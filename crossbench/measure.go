package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// median returns the middle of xs (the mean of the two middle values for
// an even count); 0 for none.
func median(xs []float64) float64 {
	return quantile(xs, 0.5)
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics; 0 for none.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// appendAt appends x to the i-th list of xs, growing xs as needed.
func appendAt(xs [][]float64, i int, x float64) [][]float64 {
	for len(xs) <= i {
		xs = append(xs, nil)
	}
	xs[i] = append(xs[i], x)
	return xs
}

// medians returns the median of each list.
func medians(xs [][]float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = median(x)
	}
	return out
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio is a/b, or 0 when b is 0 (the layer did no work on this workload).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// heapSampler polls the live heap during a timed region and keeps the
// peak. The live heap is what the last GC cycle found reachable, so the
// peak does not depend on how much garbage happened to await collection
// when a sample was taken.
type heapSampler struct {
	stopc chan struct{}
	done  chan struct{}

	mu     sync.Mutex // held while sampling
	paused bool
	peak   uint64
}

const heapMetric = "/gc/heap/live:bytes"

func readHeap(s []metrics.Sample) uint64 {
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// startHeapSampler begins sampling every 2ms until stop.
func startHeapSampler() *heapSampler {
	h := &heapSampler{stopc: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		s := []metrics.Sample{{Name: heapMetric}}
		t := time.NewTicker(2 * time.Millisecond)
		defer t.Stop()
		for {
			h.mu.Lock()
			if !h.paused {
				h.peak = max(h.peak, readHeap(s))
			}
			h.mu.Unlock()
			select {
			case <-h.stopc:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

// unsampled runs f with sampling paused, then collects the garbage f left
// before sampling resumes, so the peak covers only the workload's own
// operations. A nil sampler just runs f.
func (h *heapSampler) unsampled(f func() error) error {
	if h == nil {
		return f()
	}
	h.setPaused(true)
	err := f()
	runtime.GC()
	h.setPaused(false)
	return err
}

func (h *heapSampler) setPaused(p bool) {
	h.mu.Lock()
	h.paused = p
	h.mu.Unlock()
}

// stop ends sampling and returns the peak in MiB.
func (h *heapSampler) stop() float64 {
	close(h.stopc)
	<-h.done
	h.peak = max(h.peak, readHeap([]metrics.Sample{{Name: heapMetric}}))
	return float64(h.peak) / (1 << 20)
}

// goCounters are the runtime's cumulative allocation and GC counts.
type goCounters struct{ allocBytes, cycles float64 }

func readGoCounters() goCounters {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/cycles/total:gc-cycles"}}
	metrics.Read(s)
	return goCounters{float64(s[0].Value.Uint64()), float64(s[1].Value.Uint64())}
}

func (c goCounters) sub(o goCounters) goCounters {
	return goCounters{c.allocBytes - o.allocBytes, c.cycles - o.cycles}
}

// hostInfo records where a result was measured.
type hostInfo struct {
	Nproc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	CPU        string  `json:"cpu"`
	GoVersion  string  `json:"go_version"`
	OS         string  `json:"os"`
	Arch       string  `json:"arch"`
	Workload   string  `json:"workload"`
	Seed       uint64  `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Traced     bool    `json:"traced"`
}

func describeHost(cfg *config) hostInfo {
	return hostInfo{
		Nproc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPU:        cpuModel(),
		GoVersion:  runtime.Version(),
		OS:         runtime.GOOS,
		Arch:       runtime.GOARCH,
		Workload:   cfg.workload,
		Seed:       cfg.seed,
		Seconds:    cfg.seconds,
		Traced:     cfg.traced,
	}
}

// cpuModel reads the first "model name" line of /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// clientGauge tracks how many closed-loop clients run at once.
type clientGauge struct{ n, peak atomic.Int64 }

func (g *clientGauge) enter() {
	n := g.n.Add(1)
	for p := g.peak.Load(); n > p && !g.peak.CompareAndSwap(p, n); p = g.peak.Load() {
	}
}

func (g *clientGauge) exit() { g.n.Add(-1) }
