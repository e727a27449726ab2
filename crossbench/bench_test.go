package main

import (
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// tinyConfig is a run of one workload at test size.
func tinyConfig(t *testing.T, workload string, seed uint64, traced bool) *config {
	t.Helper()
	return &config{
		workload: workload,
		seed:     seed,
		seconds:  0.05,
		traced:   traced,
		spansOut: t.TempDir(),
		size:     tinySizes,
		nproc:    2,
	}
}

func TestTinyRunsPassTheirChecks(t *testing.T) {
	for _, w := range workloadNames() {
		for _, traced := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/traced=%v", w, traced), func(t *testing.T) {
				res, host, err := execute(tinyConfig(t, w, 3, traced))
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
				}
				defs := endToEnd
				if traced {
					defs = perLayer
				}
				if len(res.Metrics) != len(defs) {
					t.Fatalf("got %d metrics, want %d", len(res.Metrics), len(defs))
				}
				if !traced {
					for name, m := range res.Metrics {
						if m.Value <= 0 {
							t.Errorf("%s = %v, want > 0", name, m.Value)
						}
					}
				}
				if host.Nproc < 1 || host.GoVersion == "" || host.CPU == "" {
					t.Errorf("host record incomplete: %+v", host)
				}
			})
		}
	}
}

// TestRunCommand drives the command line: an unknown workload is refused
// without printing a result.
func TestRunCommand(t *testing.T) {
	var out, errOut strings.Builder
	code := run([]string{"--workload", "nope"}, &out, &errOut)
	if code == 0 || out.Len() != 0 {
		t.Fatalf("unknown workload: exit %d, stdout %q", code, out.String())
	}
}

// TestChecksCatchWrongOutputs tampers with one recorded output of each
// workload and expects its check to fail.
func TestChecksCatchWrongOutputs(t *testing.T) {
	tamper := map[string]func(b bench){
		"stream-philly": func(b bench) {
			sb := b.(*streamBench)
			sb.outs[0].res.AvgWait += 1e-9
		},
		"backfill-grid": func(b bench) {
			gb := b.(*gridBench)
			gb.grids[len(gb.grids)-1][1][0] ^= 1
		},
		"twin-deep": func(b bench) {
			db := b.(*deepBench)
			db.sessions[0].prefix[0] ^= 1
		},
	}
	for _, w := range workloadNames() {
		t.Run(w, func(t *testing.T) {
			cfg := tinyConfig(t, w, 5, false)
			b := workloads[w](cfg)
			if err := b.setup(cfg.seed); err != nil {
				t.Fatal(err)
			}
			if _, err := b.measure(cfg.seconds, nil, nil); err != nil {
				t.Fatal(err)
			}
			if err := b.check(); err != nil {
				t.Fatalf("untampered run failed its check: %v", err)
			}
			tamper[w](b)
			var cf *checkFailure
			if err := b.check(); !errors.As(err, &cf) {
				t.Fatalf("check after tampering = %v, want a check failure", err)
			}
		})
	}
}

// inputDigest hashes the inputs a workload's set-up built.
func inputDigest(t *testing.T, b bench) [32]byte {
	t.Helper()
	h := sha256.New()
	enc := json.NewEncoder(h) // follows the specs' VC pointers
	switch b := b.(type) {
	case *streamBench:
		h.Write(b.swf)
	case *gridBench:
		h.Write(b.swf)
	case *deepBench:
		enc.Encode(b.logs)
	default:
		t.Fatalf("no digest for %T", b)
	}
	var out [32]byte
	h.Sum(out[:0])
	return out
}

func TestSeedsMakeTheInputs(t *testing.T) {
	for _, w := range workloadNames() {
		t.Run(w, func(t *testing.T) {
			digest := func(seed uint64) [32]byte {
				cfg := tinyConfig(t, w, seed, false)
				b := workloads[w](cfg)
				if err := b.setup(seed); err != nil {
					t.Fatal(err)
				}
				return inputDigest(t, b)
			}
			a, again, other := digest(11), digest(11), digest(12)
			if a != again {
				t.Error("the same seed built different inputs")
			}
			if a == other {
				t.Error("different seeds built the same inputs")
			}
		})
	}
}

// exactMetrics are the per-layer counts that must repeat at a fixed seed.
var exactMetrics = []string{
	"sim.events", "sim.schedule_passes", "sim.backfilled", "sim.cons_planned_jobs",
	"sim.cons_kept_ratio", "sim.score_cache_hit_ratio", "sim.max_window_jobs",
	"twin.events_published", "twin.whatif_pending_jobs",
}

func TestExactCountersRepeat(t *testing.T) {
	for _, w := range workloadNames() {
		t.Run(w, func(t *testing.T) {
			first, _, err := execute(tinyConfig(t, w, 21, true))
			if err != nil {
				t.Fatal(err)
			}
			second, _, err := execute(tinyConfig(t, w, 21, true))
			if err != nil {
				t.Fatal(err)
			}
			nonzero := 0
			for _, name := range exactMetrics {
				a, b := first.Metrics[name].Value, second.Metrics[name].Value
				if a != b {
					t.Errorf("%s: %v then %v", name, a, b)
				}
				if a != 0 {
					nonzero++
				}
			}
			if nonzero == 0 {
				t.Error("no exact counter measured any work")
			}
		})
	}
}

// TestTwinClientsBoundedByNproc runs twin-deep with three clients and
// checks that at most three ever ran at once.
func TestTwinClientsBoundedByNproc(t *testing.T) {
	cfg := tinyConfig(t, "twin-deep", 2, false)
	cfg.nproc = 3
	b := newDeepBench(cfg).(*deepBench)
	if err := b.setup(cfg.seed); err != nil {
		t.Fatal(err)
	}
	if _, err := b.measure(cfg.seconds, nil, nil); err != nil {
		t.Fatal(err)
	}
	if peak := b.clients.peak.Load(); peak < 1 || peak > int64(cfg.nproc) {
		t.Fatalf("%d clients ran at once, want 1..%d", peak, cfg.nproc)
	}
}

func TestSelfTimeSubtractsChildUnion(t *testing.T) {
	ms := int64(time.Millisecond)
	spans := []span{
		{ID: 1, Name: "parent", Start: 0, End: 10 * ms},
		{ID: 2, Parent: 1, Name: "a", Start: 1 * ms, End: 4 * ms},
		{ID: 3, Parent: 1, Name: "b", Start: 3 * ms, End: 6 * ms}, // overlaps a
		{ID: 4, Parent: 1, Name: "agg", Start: 6 * ms, End: 9 * ms, Count: 10, Busy: 2 * ms},
	}
	lt := layerTimes(spans)
	if got, want := lt["parent"].self, time.Duration(10-5-2)*time.Millisecond; got != want {
		t.Errorf("parent self = %v, want %v", got, want)
	}
	if got := lt["agg"].count; got != 10 {
		t.Errorf("aggregate count = %d, want 10", got)
	}
}

// TestBenchmarkJSONListsTheMetrics keeps BENCHMARK.json at the repository
// root in step with the metrics the benchmark reports.
func TestBenchmarkJSONListsTheMetrics(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	same := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the benchmark reports %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json has %s (%s), the benchmark %s (%s)", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
	for _, w := range spec.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json names workload %q, the benchmark has %v", w.Name, workloadNames())
		}
	}
}
