// Command crossbench is crosssched's end-to-end benchmark. It runs one
// named workload from a seed, times it from outside by calling into the
// trace, sim, stats, par and twin packages, checks every output the timed
// region produced, and prints one JSON result line:
//
//	go -C crossbench run . --workload twin-deep --seed 7 --seconds 10 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics; with --trace 1
// the run measures the workload twice, untraced and then traced, and
// reports the per-layer metrics derived from the traced run's spans plus
// the tracing overhead. See README.md for the workloads and metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// config is one invocation's settings.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	traced   bool
	spansOut string // traced runs write their spans here ("" = don't)
	size     sizes
	nproc    int // client goroutines and par workers
}

// sizes fixes how much input each workload builds. fullSizes is what the
// benchmark measures; tests run tinySizes.
type sizes struct {
	setupReps int // set-ups per run; setup_s is their median

	phillyJobs int // stream-philly trace length
	phillySegs int // independently drawn segments it is made of
	chunkJobs  int // stream-philly jobs per timed intake chunk

	gridJobs int // backfill-grid trace length
	gridSegs int // independently drawn segments it is made of

	deepJobs  int // jobs per twin-deep session (the default MaxJobs)
	deepBatch int // jobs per Submit
	deepLogs  int // distinct session logs built in set-up
	deepSegs  int // independently drawn segments each log is made of
}

var fullSizes = sizes{
	setupReps:  3,
	phillyJobs: 300000, phillySegs: 60, chunkJobs: 30,
	gridJobs: 25600, gridSegs: 32,
	deepJobs: 10000, deepBatch: 50, deepLogs: 10, deepSegs: 4,
}

var tinySizes = sizes{
	setupReps:  2,
	phillyJobs: 3000, phillySegs: 2, chunkJobs: 10,
	gridJobs: 800, gridSegs: 2,
	deepJobs: 300, deepBatch: 50, deepLogs: 2, deepSegs: 2,
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// bench is one workload. A fresh value is built for every set-up.
type bench interface {
	// setup builds the workload's inputs from the seed.
	setup(seed uint64) error
	// measure runs the timed region for about seconds, recording spans
	// on tr when it is non-nil. Work that is not the workload's own
	// operations (timing recovery_s) runs through heap.unsampled.
	measure(seconds float64, tr *tracer, heap *heapSampler) (*phase, error)
	// check verifies every output the measured phases recorded.
	check() error
}

// phase is what one measure call observed.
type phase struct {
	attempted, failed int64
	rounds            int     // repetitions of the workload's unit of work
	rate              float64 // jobs/s, compared across untraced and traced runs
	metrics           map[string]metric
	notes             []string // sample counts and the like, for standard error
}

// workloads maps each workload name to its constructor.
var workloads = map[string]func(cfg *config) bench{
	"stream-philly": newStreamBench,
	"backfill-grid": newGridBench,
	"twin-deep":     newDeepBench,
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("crossbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	cfg := config{size: fullSizes, nproc: runtime.GOMAXPROCS(0)}
	fs.StringVar(&cfg.workload, "workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	fs.Uint64Var(&cfg.seed, "seed", 1, "input seed")
	fs.Float64Var(&cfg.seconds, "seconds", 10, "length of the timed region in seconds")
	tr := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	fs.StringVar(&cfg.spansOut, "spans-out", filepath.Join(".bench_build", "spans"), "directory traced runs write their spans to")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if _, ok := workloads[cfg.workload]; !ok {
		fmt.Fprintf(stderr, "crossbench: unknown workload %q (want one of %s)\n", cfg.workload, strings.Join(workloadNames(), ", "))
		return 2
	}
	if cfg.seconds <= 0 || (*tr != 0 && *tr != 1) {
		fmt.Fprintln(stderr, "crossbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	cfg.traced = *tr == 1

	res, host, err := execute(&cfg)
	if err != nil {
		fmt.Fprintf(stderr, "crossbench: %s: %v\n", cfg.workload, err)
		return 1
	}
	hostLine, _ := json.Marshal(host)
	fmt.Fprintf(stdout, "host %s\n", hostLine)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "crossbench: encode result: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

// execute sets the workload up setupReps times, measures it, and checks
// its outputs. A failed check is reported through result.Correct; err is
// for runs that could not be completed at all.
func execute(cfg *config) (*result, hostInfo, error) {
	host := describeHost(cfg)
	newBench := workloads[cfg.workload]

	var b bench
	var setups []float64
	for i := 0; i < cfg.size.setupReps; i++ {
		b = nil
		runtime.GC() // the previous set-up's garbage is not this one's cost
		b = newBench(cfg)
		t0 := time.Now()
		if err := b.setup(cfg.seed); err != nil {
			return nil, host, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}

	runtime.GC()
	heap := startHeapSampler()
	ph, err := b.measure(cfg.seconds, nil, heap)
	peak := heap.stop()
	if err != nil {
		return nil, host, fmt.Errorf("measure: %w", err)
	}
	for _, n := range ph.notes {
		fmt.Fprintf(os.Stderr, "crossbench: %s: %s\n", cfg.workload, n)
	}
	res := &result{Attempted: ph.attempted, Failed: ph.failed}
	got := ph.metrics
	if !cfg.traced {
		got["setup_s"] = metric{median(setups), "s"}
		got["peak_heap_mb"] = metric{peak, "MB"}
		if res.Metrics, err = collect(endToEnd, got, false); err != nil {
			return nil, host, err
		}
	} else {
		tr := newTracer()
		runtime.GC()
		before := readGoCounters()
		tph, err := b.measure(cfg.seconds, tr, nil)
		if err != nil {
			return nil, host, fmt.Errorf("traced measure: %w", err)
		}
		gc := readGoCounters().sub(before)
		res.Attempted += tph.attempted
		res.Failed += tph.failed
		got := tph.metrics
		rounds := float64(max(tph.rounds, 1))
		got["go.alloc_mb"] = metric{gc.allocBytes / (1 << 20) / rounds, "MB/round"}
		got["go.gc_cycles"] = metric{gc.cycles / rounds, "count/round"}
		got["bench.trace_overhead_pct"] = metric{(ph.rate/tph.rate - 1) * 100, "%"}
		if res.Metrics, err = collect(perLayer, got, true); err != nil {
			return nil, host, err
		}
		if cfg.spansOut != "" {
			path := filepath.Join(cfg.spansOut, fmt.Sprintf("%s-seed%d.jsonl", cfg.workload, cfg.seed))
			if err := tr.write(path, host); err != nil {
				return nil, host, fmt.Errorf("write spans: %w", err)
			}
		}
	}

	if err := b.check(); err != nil {
		var cf *checkFailure
		if !errors.As(err, &cf) {
			return nil, host, fmt.Errorf("check: %w", err)
		}
		fmt.Fprintf(os.Stderr, "crossbench: %s: correctness check failed: %v\n", cfg.workload, err)
		return res, host, nil
	}
	res.Correct = true
	return res, host, nil
}

// metricDef names a reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd lists the end-to-end metrics. Every workload reports every one
// of them; README.md says what each measures on each workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"jobs_per_s", "jobs/s"},
	{"ops_per_s", "ops/s"},
	{"peak_heap_mb", "MB"},
	{"mutate_p50_ms", "ms"},
	{"mutate_p99_ms", "ms"},
	{"whatif_p50_ms", "ms"},
	{"whatif_p99_ms", "ms"},
	{"recovery_s", "s"},
}

// perLayer lists the per-layer metrics of a traced run. A metric of a
// layer the workload does not exercise reads 0.
var perLayer = []metricDef{
	{"trace.parse_s", "s/round"},
	{"trace.parse_mb_per_s", "MB/s"},
	{"stats.sink_s", "s/round"},
	{"sim.run_self_s", "s/round"},
	{"sim.cell_s.easy", "s/round"},
	{"sim.cell_s.conservative", "s/round"},
	{"sim.cell_s.relaxed", "s/round"},
	{"sim.cell_s.adaptive", "s/round"},
	{"sim.events", "count"},
	{"sim.schedule_passes", "count"},
	{"sim.backfilled", "count"},
	{"sim.cons_planned_jobs", "count"},
	{"sim.cons_kept_ratio", "ratio"},
	{"sim.score_cache_hit_ratio", "ratio"},
	{"sim.max_window_jobs", "jobs"},
	{"par.busy_ratio", "ratio"},
	{"par.tail_idle_s", "s/round"},
	{"twin.submit_s", "s/call"},
	{"twin.advance_s", "s/call"},
	{"twin.whatif_s", "s/call"},
	{"twin.mutate_ms.first_1k", "ms"},
	{"twin.mutate_ms.last_1k", "ms"},
	{"twin.depth_cost_ratio", "ratio"},
	{"twin.whatif_pending_jobs", "jobs"},
	{"twin.events_published", "count"},
	{"go.alloc_mb", "MB/round"},
	{"go.gc_cycles", "count/round"},
	{"bench.trace_overhead_pct", "%"},
}

// collect picks the listed metrics out of what a phase measured, checking
// their units. A missing metric is an error unless zeroMissing is set.
func collect(defs []metricDef, got map[string]metric, zeroMissing bool) (map[string]metric, error) {
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		m, ok := got[d.name]
		switch {
		case !ok && zeroMissing:
			m = metric{0, d.unit}
		case !ok:
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		case m.Unit != d.unit:
			return nil, fmt.Errorf("metric %s measured in %s, want %s", d.name, m.Unit, d.unit)
		}
		out[d.name] = m
	}
	for name := range got {
		if _, ok := out[name]; !ok {
			return nil, fmt.Errorf("metric %s is not listed", name)
		}
	}
	return out, nil
}

// checkFailure marks an output that is wrong, as opposed to a check that
// could not run.
type checkFailure struct{ msg string }

func (e *checkFailure) Error() string { return e.msg }

func failf(format string, args ...any) error {
	return &checkFailure{fmt.Sprintf(format, args...)}
}
