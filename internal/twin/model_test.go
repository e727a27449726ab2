package twin

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"crosssched/internal/obs"
	"crosssched/internal/sim"
	"crosssched/internal/trace"
)

// coldModel is the reference a session is checked against: everything is
// recomputed from a cold sim.Run of the session's log, from t=0.
type coldModel struct {
	s    *Session // supplies the configuration and the candidate options
	jobs []trace.Job
	now  float64
}

// run replays the log under opt and returns the result and its events.
func (m *coldModel) run(t *testing.T, opt sim.Options) (*sim.Result, []obs.Event) {
	t.Helper()
	rec := &obs.Recorder{}
	opt.Observer = rec
	res, err := sim.Run(m.s.trace(m.jobs), opt)
	if err != nil {
		t.Fatal(err)
	}
	return res, rec.Events
}

// prefix returns the published-event surface: the baseline's cold-run
// events strictly before the clock.
func (m *coldModel) prefix(t *testing.T) (*sim.Result, []obs.Event) {
	res, events := m.run(t, m.s.baseOptions())
	k := 0
	for k < len(events) && events[k].Time < m.now {
		k++
	}
	return res, events[:k]
}

// snapshot classifies every job of the cold run at the clock.
func (m *coldModel) snapshot(t *testing.T, id string) Snapshot {
	res, emitted := m.prefix(t)
	cfg := m.s.cfg
	snap := Snapshot{
		ID: id, Now: m.now, Profile: cfg.Profile, Cores: cfg.Cores, Partitions: cfg.Partitions,
		Policy: cfg.Policy.String(), Backfill: cfg.Backfill.String(), Seed: cfg.Seed,
		TickRate: cfg.TickRate, Jobs: len(m.jobs), EventsEmitted: len(emitted),
	}
	var waitSum float64
	for _, j := range res.Jobs {
		start := j.Submit + j.Wait
		switch {
		case j.Submit >= m.now:
			snap.Future++
		case start+j.Run < m.now:
			snap.Completed++
			waitSum += j.Wait
		case start < m.now:
			snap.Running++
		default:
			snap.Queued++
		}
	}
	if snap.Completed > 0 {
		snap.AvgWaitCompleted = waitSum / float64(snap.Completed)
	}
	return snap
}

// whatIf is the report of cold runs: the baseline's schedule decides the
// pending set, and every candidate replays the log from t=0.
func (m *coldModel) whatIf(t *testing.T, id string, req WhatIfRequest) (*Report, error) {
	if len(m.jobs) == 0 {
		return nil, ErrEmpty
	}
	base, _ := m.run(t, m.s.baseOptions())
	pending := make([]bool, len(m.jobs))
	nPending := 0
	for i, j := range base.Jobs {
		if j.Submit+j.Wait >= m.now {
			pending[i] = true
			nPending++
		}
	}
	if nPending == 0 {
		return nil, ErrEmpty
	}
	cfg := m.s.cfg
	outs := []Outcome{score(Candidate{Policy: cfg.Policy.String(), Backfill: cfg.Backfill.String(),
		RelaxFactor: cfg.RelaxFactor}, base, pending, nPending)}
	for _, c := range req.Candidates {
		opt, err := m.s.candidateOptions(c, cfg.Seed)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sim.Run(m.s.trace(m.jobs), opt)
		if err != nil {
			t.Fatal(err)
		}
		outs = append(outs, score(c, res, pending, nPending))
	}
	return newReport(id, m.now, cfg.Seed, nPending, outs), nil
}

// checkSession compares a session's Status, EmittedPrefix and WhatIf with
// the cold model.
func checkSession(t *testing.T, tag string, s *Session, m *coldModel, req WhatIfRequest) {
	t.Helper()
	got, err := s.Status()
	if err != nil {
		t.Fatalf("%s: status: %v", tag, err)
	}
	if want := m.snapshot(t, s.ID); got != want {
		t.Fatalf("%s: snapshot\n got %+v\nwant %+v", tag, got, want)
	}
	ev, err := s.EmittedPrefix()
	if err != nil {
		t.Fatalf("%s: prefix: %v", tag, err)
	}
	if _, want := m.prefix(t); string(eventsJSONL(ev)) != string(eventsJSONL(want)) {
		t.Fatalf("%s: published %d events, the cold prefix has %d (or their bytes differ)", tag, len(ev), len(want))
	}
	rep, err := s.WhatIf(context.Background(), req)
	want, wantErr := m.whatIf(t, s.ID, req)
	if wantErr != nil {
		if !errors.Is(err, wantErr) {
			t.Fatalf("%s: what-if error %v, want %v", tag, err, wantErr)
		}
		return
	}
	if err != nil {
		t.Fatalf("%s: what-if: %v", tag, err)
	}
	gb, _ := json.Marshal(rep)
	wb, _ := json.Marshal(want)
	if string(gb) != string(wb) {
		t.Fatalf("%s: what-if report differs from the cold one:\n%s\n%s", tag, gb, wb)
	}
}

// TestSessionMatchesColdReplay is the session-level model test: random
// sequences of Submit, AdvanceTo, AdvanceBy, Status, WhatIf and
// EmittedPrefix on a live session must agree, after every step, with a
// reference recomputed from a cold sim.Run of the log so far — the
// snapshot, the published prefix byte for byte, and the what-if report as
// JSON. At random points a second session is restored from the log and
// clock and must agree too. Some advances land exactly on the next start
// of a queued job, so a job starting exactly at the clock is covered.
func TestSessionMatchesColdReplay(t *testing.T) {
	cfgs := []SessionConfig{
		{Cores: 16, Policy: sim.FCFS, Backfill: sim.EASY, Seed: 1},
		{Cores: 24, Partitions: 3, Policy: sim.SJF, Backfill: sim.Conservative, Seed: 2},
		{Cores: 16, Policy: sim.WFP3, Backfill: sim.Relaxed, RelaxFactor: 0.2, Seed: 3},
		{Cores: 16, Policy: sim.Fair, Backfill: sim.EASY, Seed: 4, ColdWhatIf: true},
	}
	cands := []Candidate{
		{},
		{Policy: "sjf", Backfill: "easy"},
		{Policy: "wfp3", Backfill: "conservative"},
		{Policy: "f2", Backfill: "relaxed", RelaxFactor: 0.25},
		{Policy: "fcfs", Backfill: "easy", Faults: "mtbf=43200,mttr=3600,frac=0.25,recovery=requeue,retry=2"},
	}
	for ci, cfg := range cfgs {
		t.Run(fmt.Sprintf("%s+%s", cfg.Policy, cfg.Backfill), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(ci + 1)))
			m := testManager(t, Config{})
			s, err := m.Create(cfg)
			if err != nil {
				t.Fatal(err)
			}
			model := &coldModel{s: s}
			for step := 0; step < 60; step++ {
				tag := fmt.Sprintf("step %d", step)
				switch op := rng.Intn(6); op {
				case 0, 1: // Submit a burst; some requests lie before the clock
					specs := make([]JobSpec, 1+rng.Intn(6))
					for i := range specs {
						run := float64(60 * (1 + rng.Intn(40)))
						specs[i] = JobSpec{
							Procs: 1 << rng.Intn(4), Run: run, Walltime: run * float64(1+rng.Intn(3)),
							User: rng.Intn(5), Submit: max(0, model.now+float64(60*(rng.Intn(20)-5))),
						}
						if cfg.Partitions > 1 && rng.Intn(2) == 0 {
							vc := rng.Intn(cfg.Partitions)
							specs[i].VC = &vc
						}
					}
					if _, err := s.Submit(specs); err != nil {
						t.Fatalf("%s: submit: %v", tag, err)
					}
					s.mu.Lock()
					model.jobs = s.base.Jobs()
					s.mu.Unlock()
				case 2: // AdvanceBy
					d := float64(60 * rng.Intn(30))
					if err := s.AdvanceBy(d); err != nil {
						t.Fatalf("%s: advance by: %v", tag, err)
					}
					model.now += d
				case 3: // AdvanceTo the next start of a still-queued job
					to := model.now
					if len(model.jobs) > 0 {
						res, _ := model.run(t, s.baseOptions())
						for _, j := range res.Jobs {
							if st := j.Submit + j.Wait; st > model.now && (to == model.now || st < to) {
								to = st
							}
						}
					}
					if err := s.AdvanceTo(to); err != nil {
						t.Fatalf("%s: advance to: %v", tag, err)
					}
					model.now = to
				case 4: // restore a second session from the log and clock
					r, err := newSession(s.ID, s.cfg, m.cfg)
					if err != nil {
						t.Fatal(err)
					}
					if err := r.restore(append([]trace.Job(nil), model.jobs...), model.now); err != nil {
						t.Fatalf("%s: restore: %v", tag, err)
					}
					checkSession(t, tag+" (restored)", r, model, WhatIfRequest{Candidates: cands[:2]})
					r.Close()
				}
				req := WhatIfRequest{Candidates: []Candidate{cands[rng.Intn(len(cands))], cands[rng.Intn(len(cands))]}}
				checkSession(t, tag, s, model, req)
			}
		})
	}
}

// TestConcurrentMutationsAndWhatIfs runs what-ifs on one session while
// another goroutine submits and advances it, so forks of the live
// baseline and of the warm candidates race its growth. Round k submits
// batch k at or after clock k*step and then advances to (k+1)*step, so a
// report taken at clock m*step saw either m or m+1 batches: it must equal
// the cold report of one of those two logs.
func TestConcurrentMutationsAndWhatIfs(t *testing.T) {
	const rounds, batch, step = 12, 8, 600.0
	m := testManager(t, Config{})
	s, err := m.Create(SessionConfig{Cores: 16, Policy: sim.FCFS, Backfill: sim.EASY})
	if err != nil {
		t.Fatal(err)
	}
	req := WhatIfRequest{Candidates: []Candidate{{}, {Policy: "sjf"}, {Policy: "wfp3", Backfill: "conservative"}}}
	if _, err := s.Submit(burst(batch, 0)); err != nil {
		t.Fatal(err)
	}
	// The mutator waits for a finished what-if before each of its steps,
	// so queries land between (and during) every kind of mutation.
	done, quit := make(chan struct{}), make(chan struct{})
	progress := make(chan struct{})
	var mutErr error
	go func() {
		defer close(done)
		wait := func() bool {
			select {
			case <-progress:
				return true
			case <-quit:
				return false
			}
		}
		for k := 1; k < rounds; k++ {
			if !wait() {
				return
			}
			if mutErr = s.AdvanceTo(float64(k) * step); mutErr != nil {
				return
			}
			if !wait() {
				return
			}
			if _, mutErr = s.Submit(burst(batch, float64(k)*step)); mutErr != nil {
				return
			}
		}
	}()
	type seen struct {
		now  float64
		json string
	}
	reps := make([][]seen, 2)
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for w := range reps {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				rep, err := s.WhatIf(context.Background(), req)
				switch {
				case err == nil:
					b, _ := json.Marshal(rep)
					reps[w] = append(reps[w], seen{rep.Now, string(b)})
				case !errors.Is(err, ErrEmpty): // ErrEmpty: every job started
					errs[w] = err
					return
				}
				select {
				case progress <- struct{}{}:
				default:
				}
			}
		}()
	}
	go func() {
		wg.Wait()
		close(quit) // the mutator must not wait on workers that are gone
	}()
	<-done
	wg.Wait()
	if mutErr != nil {
		t.Fatal(mutErr)
	}
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	s.mu.Lock()
	log := s.base.Jobs()
	s.mu.Unlock()
	checked := 0
	for _, rs := range reps {
		for _, r := range rs {
			mth := int(r.now / step)
			ok := false
			for _, n := range []int{mth * batch, (mth + 1) * batch} {
				if n == 0 || n > len(log) {
					continue
				}
				want, err := (&coldModel{s: s, jobs: log[:n], now: r.now}).whatIf(t, s.ID, req)
				if err == nil {
					b, _ := json.Marshal(want)
					ok = ok || string(b) == r.json
				}
			}
			if !ok {
				t.Fatalf("what-if at t=%v matches no cold report of the logs it could have seen:\n%s", r.now, r.json)
			}
			checked++
		}
	}
	t.Logf("checked %d concurrent what-if reports", checked)
}
