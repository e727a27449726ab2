package main

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"crosssched/internal/obs"
	"crosssched/internal/sim"
	"crosssched/internal/synth"
	"crosssched/internal/trace"
	"crosssched/internal/twin"
)

// deepBench is twin-deep: an in-memory twin.Manager hosting Theta-shaped
// sessions, each fed its log in fixed batches up to the default 10k-job
// MaxJobs cap by one of nproc closed-loop clients. A mutation is
// Submit(batch) + AdvanceTo(the batch's last submit time); every second
// batch adds a 3-candidate, fault-free WhatIf.
type deepBench struct {
	cfg  *config
	logs [][]twin.JobSpec // submit-sorted session logs

	clients  clientGauge
	sessions []*deepSession // every driven session, for the check
	rebuilt  []rebuilt      // every session rebuilt from its log, for the check
}

var (
	deepSession0 = twin.SessionConfig{Profile: "Theta", Policy: sim.FCFS, Backfill: sim.EASY}
	deepWhatIf   = twin.WhatIfRequest{Candidates: []twin.Candidate{
		{Policy: "SJF"}, {Policy: "WFP3"}, {Backfill: "relaxed"},
	}}
)

func newDeepBench(cfg *config) bench { return &deepBench{cfg: cfg} }

// deepQueue is the mean number of jobs FCFS+EASY keeps waiting in every
// segment of a twin-deep log, so every what-if has a comparable pending
// set to score: the calibration panel's median at the Theta profile's
// calibrated load (see calibrate_test.go).
var deepQueue = queueTarget{sim.EASY, 32.0}

func (b *deepBench) setup(seed uint64) error {
	sz := b.cfg.size
	b.logs = make([][]twin.JobSpec, sz.deepLogs)
	for i := range b.logs {
		tr, err := segmented(synth.Theta, sz.deepJobs/sz.deepSegs, sz.deepSegs, seed<<8|uint64(i), deepQueue, b.cfg.nproc)
		if err != nil {
			return err
		}
		b.logs[i] = jobSpecs(tr)
	}
	return nil
}

// jobSpecs converts jobs to twin job specs, keeping each job's submit time
// and, on a partitioned system, its virtual cluster.
func jobSpecs(tr *trace.Trace) []twin.JobSpec {
	out := make([]twin.JobSpec, len(tr.Jobs))
	for i, j := range tr.Jobs {
		out[i] = twin.JobSpec{Procs: j.Procs, Run: j.Run, Walltime: j.Walltime, User: j.User, Submit: j.Submit}
		if j.VC >= 0 && tr.System.VirtualClusters > 1 {
			vc := j.VC
			out[i].VC = &vc
		}
	}
	return out
}

// deepSession is what one driven session left for the check.
type deepSession struct {
	index       int
	id          string
	log         int     // index into logs
	clock       float64 // final session clock
	prefix      [32]byte
	events      int
	mut         []time.Duration // mutation latencies in log order
	wif         []time.Duration // what-if latencies in log order
	pendingSum  int
	report      *twin.Report // the last what-if
	reportJobs  int          // log length when it was asked
	reportClock float64
}

// twinOps tallies one measured phase's twin operations across clients.
type twinOps struct {
	attempted, failed atomic.Int64
	jobs              atomic.Int64
}

func (b *deepBench) measure(seconds float64, tr *tracer, heap *heapSampler) (*phase, error) {
	m := twin.NewManager(twin.Config{MaxSessions: 1 << 20})
	defer m.Close()
	var ops twinOps
	var rebuilds [][]float64 // [log][repetition] s
	rebuild := func(from, to int) error {
		return heap.unsampled(func() error {
			for r := from; r < to; r++ {
				d, err := b.rebuild(r % len(b.logs))
				if err != nil {
					return err
				}
				rebuilds = appendAt(rebuilds, r%len(b.logs), d)
			}
			return nil
		})
	}
	if tr == nil {
		if err := rebuild(0, deepRebuilds/2); err != nil {
			return nil, err
		}
	}
	var next atomic.Int64
	var mu sync.Mutex
	var driven []*deepSession
	var firstErr error
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < b.cfg.nproc; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			b.clients.enter()
			defer b.clients.exit()
			log := tr.log()
			for {
				i := int(next.Add(1) - 1)
				// The first deepRepeats sessions per log always run: the
				// latency percentiles need that many repetitions of each
				// operation, and the first nproc are the reference
				// sessions the exact counters come from.
				if i >= max(deepRepeats*len(b.logs), b.cfg.nproc) && time.Since(start).Seconds() >= seconds {
					return
				}
				ds, err := b.drive(m, i, &ops, tr, log)
				mu.Lock()
				if err != nil && firstErr == nil {
					firstErr = err
				}
				if ds != nil {
					driven = append(driven, ds)
				}
				mu.Unlock()
				if err != nil {
					return
				}
			}
		}()
	}
	wg.Wait()
	wall := time.Since(start).Seconds()
	b.sessions = append(b.sessions, driven...)

	ph := &phase{attempted: ops.attempted.Load(), failed: ops.failed.Load(), rounds: len(driven), metrics: map[string]metric{}}
	ph.rate = float64(ops.jobs.Load()) / wall
	if firstErr != nil {
		return ph, firstErr
	}
	if tr == nil {
		if err := rebuild(deepRebuilds/2, deepRebuilds); err != nil {
			return ph, err
		}
		ph.metrics["jobs_per_s"] = metric{ph.rate, "jobs/s"}
		ph.metrics["ops_per_s"] = metric{float64(ops.attempted.Load()) / wall, "ops/s"}
		// Every session fed the same log repeats the same mutations and
		// what-ifs, so each one's cost is the faster of its first
		// deepRepeats repetitions, which a host stall or a collection
		// during one of them does not move; the percentiles are taken
		// over those costs.
		mut := repeatedCosts(driven, func(ds *deepSession) []time.Duration { return ds.mut })
		wif := repeatedCosts(driven, func(ds *deepSession) []time.Duration { return ds.wif })
		ph.metrics["mutate_p50_ms"] = metric{quantile(mut, 0.5), "ms"}
		ph.metrics["mutate_p99_ms"] = metric{quantile(mut, 0.99), "ms"}
		ph.metrics["whatif_p50_ms"] = metric{quantile(wif, 0.5), "ms"}
		ph.metrics["whatif_p99_ms"] = metric{quantile(wif, 0.99), "ms"}
		// A log's rebuild cost is its fastest rebuild, as for the
		// latencies; recovery_s is the median over the logs.
		fastest := make([]float64, len(rebuilds))
		for i, r := range rebuilds {
			fastest[i] = slices.Min(r)
		}
		ph.metrics["recovery_s"] = metric{median(fastest), "s"}
		ph.notes = append(ph.notes, fmt.Sprintf("%d sessions of %d jobs over %d logs: %d distinct mutations, %d distinct what-ifs, %d rebuilds",
			len(driven), b.cfg.size.deepJobs, len(b.logs), len(mut), len(wif), deepRebuilds))
		return ph, nil
	}

	lt := layerTimes(tr.all())
	perCall := func(name string) float64 {
		if l := lt[name]; l != nil {
			return l.self.Seconds() / float64(l.count)
		}
		return 0
	}
	ph.metrics["twin.submit_s"] = metric{perCall("twin.Submit"), "s/call"}
	ph.metrics["twin.advance_s"] = metric{perCall("twin.AdvanceTo"), "s/call"}
	ph.metrics["twin.whatif_s"] = metric{perCall("twin.WhatIf"), "s/call"}

	// Depth curve over every session driven in this phase; exact work
	// counts over the reference sessions.
	k := max(1000/b.cfg.size.deepBatch, 1)
	var first, last []float64
	var events, whatifs, pending int
	for _, ds := range driven {
		for j, d := range ds.mut {
			if j < k {
				first = append(first, ms(d))
			}
			if j >= len(ds.mut)-k {
				last = append(last, ms(d))
			}
		}
		if ds.index < b.cfg.nproc {
			events += ds.events
			whatifs += len(ds.wif)
			pending += ds.pendingSum
		}
	}
	ph.metrics["twin.mutate_ms.first_1k"] = metric{mean(first), "ms"}
	ph.metrics["twin.mutate_ms.last_1k"] = metric{mean(last), "ms"}
	ph.metrics["twin.depth_cost_ratio"] = metric{ratio(mean(last), mean(first)), "ratio"}
	ph.metrics["twin.whatif_pending_jobs"] = metric{ratio(float64(pending), float64(whatifs)), "jobs"}
	ph.metrics["twin.events_published"] = metric{float64(events), "count"}
	return ph, nil
}

// deepRepeats is how many sessions fed the same log a latency is taken
// over. It is fixed, not however many the run fits in, because the fastest
// of more repetitions is faster.
const deepRepeats = 2

// repeatedCosts returns, for every position in a log, the fastest of the
// latencies pick returns at that position in the log's first deepRepeats
// sessions.
func repeatedCosts(sessions []*deepSession, pick func(*deepSession) []time.Duration) []float64 {
	byIndex := append([]*deepSession(nil), sessions...)
	slices.SortFunc(byIndex, func(a, b *deepSession) int { return a.index - b.index })
	runs := map[[2]int][]float64{} // (log, position) -> latencies
	for _, ds := range byIndex {
		for i, d := range pick(ds) {
			if k := [2]int{ds.log, i}; len(runs[k]) < deepRepeats {
				runs[k] = append(runs[k], ms(d))
			}
		}
	}
	out := make([]float64, 0, len(runs))
	for _, r := range runs {
		out = append(out, slices.Min(r))
	}
	return out
}

// drive feeds session i its whole log and returns what the check needs.
func (b *deepBench) drive(m *twin.Manager, i int, ops *twinOps, tr *tracer, log *spanLog) (*deepSession, error) {
	cfg := deepSession0
	cfg.Seed = uint64(i)
	s, err := m.Create(cfg)
	if err != nil {
		return nil, err
	}
	ds := &deepSession{index: i, id: s.ID, log: i % len(b.logs)}
	jobs := b.logs[ds.log]
	batch := b.cfg.size.deepBatch
	for k := 0; k*batch < len(jobs); k++ {
		specs := jobs[k*batch : min((k+1)*batch, len(jobs))]
		clock := specs[len(specs)-1].Submit

		op := tr.newOp()
		ops.attempted.Add(1)
		root := log.begin("twin.mutate", 0, op)
		t0 := time.Now()
		id := log.begin("twin.Submit", root, op)
		_, err := s.Submit(specs)
		log.end(id)
		if err == nil {
			id = log.begin("twin.AdvanceTo", root, op)
			err = s.AdvanceTo(clock)
			log.end(id)
		}
		d := time.Since(t0)
		log.end(root)
		if err != nil {
			ops.failed.Add(1)
			return ds, fmt.Errorf("session %s batch %d: %w", s.ID, k, err)
		}
		ops.jobs.Add(int64(len(specs)))
		ds.mut = append(ds.mut, d)

		if k%2 == 1 {
			op := tr.newOp()
			ops.attempted.Add(1)
			id := log.begin("twin.WhatIf", 0, op)
			t0 := time.Now()
			rep, err := s.WhatIf(context.Background(), deepWhatIf)
			d := time.Since(t0)
			log.end(id)
			if err != nil {
				ops.failed.Add(1)
				return ds, fmt.Errorf("session %s what-if at batch %d: %w", s.ID, k, err)
			}
			ds.wif = append(ds.wif, d)
			ds.pendingSum += rep.PendingJobs
			ds.report, ds.reportJobs, ds.reportClock = rep, (k*batch)+len(specs), clock
		}
	}
	ds.clock = s.Now()
	ev, err := s.EmittedPrefix()
	if err != nil {
		return ds, err
	}
	ds.prefix, ds.events = digestEvents(ev), len(ev)
	return ds, m.Delete(s.ID)
}

// deepRebuilds is how many times a run rebuilds a full session for
// recovery_s, half before the clients start and half after they stop,
// going round the logs so the median covers all of them.
const deepRebuilds = 40

// rebuilt is one session rebuilt from its log, kept for the check.
type rebuilt struct {
	log    int
	prefix [32]byte
	events int
}

// rebuild times recovering a full-depth session from log i, the work a
// restart does per session (one Submit of the whole log and one
// AdvanceTo, so one baseline replay), on a fresh in-memory manager.
func (b *deepBench) rebuild(i int) (float64, error) {
	log := b.logs[i]
	m := twin.NewManager(twin.Config{})
	defer m.Close()
	runtime.GC()
	t0 := time.Now()
	s, err := m.Create(deepSession0)
	if err == nil {
		_, err = s.Submit(log)
	}
	if err == nil {
		err = s.AdvanceTo(log[len(log)-1].Submit)
	}
	d := time.Since(t0)
	var ev []obs.Event
	if err == nil {
		ev, err = s.EmittedPrefix()
	}
	if err != nil {
		return 0, fmt.Errorf("rebuild: %w", err)
	}
	b.rebuilt = append(b.rebuilt, rebuilt{i, digestEvents(ev), len(ev)})
	return d.Seconds(), nil
}

// digestEvents hashes the events' deterministic JSON encoding.
func digestEvents(ev []obs.Event) [32]byte {
	h := sha256.New()
	var buf []byte
	for _, e := range ev {
		buf = obs.AppendEventJSON(buf[:0], e)
		h.Write(buf)
		h.Write([]byte{'\n'})
	}
	var out [32]byte
	h.Sum(out[:0])
	return out
}

// twinTrace is the trace a session replays: the log with the session's
// cluster shape, as the twin builds it.
func twinTrace(id string, cores, parts int, specs []twin.JobSpec) *trace.Trace {
	tr := &trace.Trace{System: trace.System{Name: "twin:" + id, Kind: trace.HPC, TotalCores: cores, VirtualClusters: parts}}
	tr.Jobs = make([]trace.Job, len(specs))
	for i, sp := range specs {
		vc := -1
		if sp.VC != nil {
			vc = *sp.VC
		}
		tr.Jobs[i] = trace.Job{ID: i, User: sp.User, Submit: sp.Submit, Wait: -1, Run: sp.Run,
			Walltime: sp.Walltime, Procs: sp.Procs, VC: vc, Status: trace.Passed}
	}
	return tr
}

// coldPrefix is the decision-event prefix strictly before clock of a cold
// sim.Run of the log.
func coldPrefix(tr *trace.Trace, cfg twin.SessionConfig, clock float64) ([32]byte, int, error) {
	rec := &obs.Recorder{}
	_, err := sim.Run(tr, sim.Options{Policy: cfg.Policy, Backfill: cfg.Backfill, RelaxFactor: cfg.RelaxFactor, Observer: rec})
	if err != nil {
		return [32]byte{}, 0, err
	}
	k := 0
	for k < len(rec.Events) && rec.Events[k].Time < clock {
		k++
	}
	return digestEvents(rec.Events[:k]), k, nil
}

// check requires each session's published prefix, whether driven batch by
// batch or rebuilt from its whole log, to equal the strictly-before-clock
// prefix of a cold sim.Run of its log, and each driven session's last warm
// what-if report to be byte-identical to a ColdWhatIf session's report over
// the same log and clock (session IDs aside).
func (b *deepBench) check() error {
	sys := synth.Theta(1).Sys
	first := map[int]rebuilt{}
	for _, rb := range b.rebuilt {
		if f, ok := first[rb.log]; ok {
			if rb != f {
				return failf("two rebuilds of log %d published different events", rb.log)
			}
			continue
		}
		first[rb.log] = rb
		log := b.logs[rb.log]
		want, n, err := coldPrefix(twinTrace("rebuild", sys.TotalCores, 1, log), deepSession0, log[len(log)-1].Submit)
		if err != nil {
			return err
		}
		if want != rb.prefix || n != rb.events {
			return failf("session rebuilt from log %d published %d events, cold replay has %d (or their bytes differ)", rb.log, rb.events, n)
		}
	}
	cold := twin.NewManager(twin.Config{})
	defer cold.Close()
	for _, ds := range b.sessions {
		log := b.logs[ds.log]
		want, n, err := coldPrefix(twinTrace(ds.id, sys.TotalCores, 1, log), deepSession0, ds.clock)
		if err != nil {
			return err
		}
		if want != ds.prefix || n != ds.events {
			return failf("session %s: published %d events, cold replay has %d before t=%v (or their bytes differ)", ds.id, ds.events, n, ds.clock)
		}
		if ds.report == nil {
			continue
		}
		cfg := deepSession0
		cfg.Seed = uint64(ds.index)
		cfg.ColdWhatIf = true
		s, err := cold.Create(cfg)
		if err != nil {
			return err
		}
		if _, err := s.Submit(log[:ds.reportJobs]); err != nil {
			return err
		}
		if err := s.AdvanceTo(ds.reportClock); err != nil {
			return err
		}
		rep, err := s.WhatIf(context.Background(), deepWhatIf)
		if err != nil {
			return err
		}
		if err := cold.Delete(s.ID); err != nil {
			return err
		}
		rep.Session = ds.report.Session
		gotJSON, _ := json.Marshal(ds.report)
		wantJSON, _ := json.Marshal(rep)
		if string(gotJSON) != string(wantJSON) {
			return failf("session %s: warm what-if report differs from the cold one:\n%s\n%s", ds.id, gotJSON, wantJSON)
		}
	}
	return nil
}
