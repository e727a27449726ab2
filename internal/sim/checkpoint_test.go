package sim

import (
	"fmt"
	"testing"

	"crosssched/internal/fault"
	"crosssched/internal/obs"
	"crosssched/internal/trace"
)

// ckTrace builds a small deterministic multi-partition workload that
// exercises queue buildup, backfilling, and promises across 3 partitions.
func ckTrace(t *testing.T) *trace.Trace {
	t.Helper()
	tr := &trace.Trace{System: trace.System{
		Name: "ck", Kind: trace.HPC, TotalCores: 48, VirtualClusters: 3,
	}}
	// A pseudo-random but fixed job mix: bursts at coarse ticks so several
	// event times collide across partitions.
	rng := uint64(0x9e3779b97f4a7c15)
	next := func(n uint64) uint64 {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return rng % n
	}
	submit := 0.0
	for i := 0; i < 160; i++ {
		submit += float64(next(240))
		procs := 1 << next(4)
		run := float64(60 + next(5000))
		wall := run * (1 + float64(next(9))/10)
		if next(4) == 0 {
			wall = 0 // no estimate: planner falls back to runtime
		}
		tr.Jobs = append(tr.Jobs, trace.Job{
			ID: i, User: int(next(7)), Submit: submit, Wait: -1,
			Run: run, Walltime: wall, Procs: procs, VC: int(next(4)) - 1,
			Status: trace.Passed,
		})
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	return tr
}

// sameResult asserts exact equality of two results, every field the
// simulator promises deterministic.
func ckSameResult(t *testing.T, tag string, got, want *Result) {
	t.Helper()
	if len(got.Jobs) != len(want.Jobs) {
		t.Fatalf("%s: %d jobs vs %d", tag, len(got.Jobs), len(want.Jobs))
	}
	for i := range want.Jobs {
		if got.Jobs[i] != want.Jobs[i] {
			t.Fatalf("%s: job %d = %+v, want %+v", tag, i, got.Jobs[i], want.Jobs[i])
		}
		if got.PromisedStart[i] != want.PromisedStart[i] {
			t.Fatalf("%s: promise %d = %v, want %v", tag, i, got.PromisedStart[i], want.PromisedStart[i])
		}
	}
	if got.AvgWait != want.AvgWait || got.AvgBsld != want.AvgBsld ||
		got.Utilization != want.Utilization || got.Makespan != want.Makespan ||
		got.Violations != want.Violations || got.ViolationDelay != want.ViolationDelay ||
		got.Backfilled != want.Backfilled || got.MaxQueueLen != want.MaxQueueLen {
		t.Fatalf("%s: aggregates %+v, want %+v", tag, got, want)
	}
	if len(got.QueueTimeline) != len(want.QueueTimeline) {
		t.Fatalf("%s: timeline %d vs %d", tag, len(got.QueueTimeline), len(want.QueueTimeline))
	}
	for i := range want.QueueTimeline {
		if got.QueueTimeline[i] != want.QueueTimeline[i] {
			t.Fatalf("%s: timeline[%d] %+v vs %+v", tag, i, got.QueueTimeline[i], want.QueueTimeline[i])
		}
	}
}

// TestCheckpointForkMatchesColdRun: pausing at a spread of points — before,
// inside, and after the arrival window — then forking must reproduce the
// cold run exactly for every policy/backfill shape.
func TestCheckpointForkMatchesColdRun(t *testing.T) {
	tr := ckTrace(t)
	span := tr.Jobs[len(tr.Jobs)-1].Submit
	opts := []Options{
		{Policy: FCFS, Backfill: EASY},
		{Policy: SJF, Backfill: Relaxed, RelaxFactor: 0.2},
		{Policy: WFP3, Backfill: Conservative},
		{Policy: Fair, Backfill: EASY, FairshareHalfLife: 3600},
		{Policy: F2, Backfill: AdaptiveRelaxed, RelaxFactor: 0.15},
		{Policy: FCFS, Backfill: NoBackfill},
	}
	for _, opt := range opts {
		opt := opt
		t.Run(opt.Policy.String()+"+"+opt.Backfill.String(), func(t *testing.T) {
			t.Parallel()
			want, err := Run(tr, opt)
			if err != nil {
				t.Fatal(err)
			}
			for _, frac := range []float64{0, 0.25, 0.5, 0.9, 1.5} {
				ck, err := RunToCheckpoint(tr, opt, frac*span)
				if err != nil {
					t.Fatalf("pause %v: %v", frac, err)
				}
				got, err := ck.WhatIf(nil)
				if err != nil {
					t.Fatalf("pause %v: %v", frac, err)
				}
				ckSameResult(t, opt.Policy.String(), got, want)
			}
		})
	}
}

// TestCheckpointAdvanceAndExtend: feeding the trace in slices — extend,
// advance, extend — must land on the same result as one cold run of the
// full trace, and forks must not disturb the checkpoint they fork from.
func TestCheckpointAdvanceAndExtend(t *testing.T) {
	tr := ckTrace(t)
	opt := Options{Policy: SJF, Backfill: EASY}
	want, err := Run(tr, opt)
	if err != nil {
		t.Fatal(err)
	}
	n := len(tr.Jobs)
	cut1, cut2 := n/3, 2*n/3
	head := &trace.Trace{System: tr.System, Jobs: tr.Jobs[:cut1]}
	ck, err := RunToCheckpoint(head, opt, tr.Jobs[cut1-1].Submit/2)
	if err != nil {
		t.Fatal(err)
	}
	// Fork mid-way; its result covers only the jobs known so far.
	if _, err := ck.WhatIf(nil); err != nil {
		t.Fatal(err)
	}
	if err := ck.Extend(tr.Jobs[cut1:cut2]); err != nil {
		t.Fatal(err)
	}
	if err := ck.AdvanceTo(tr.Jobs[cut2-1].Submit); err != nil {
		t.Fatal(err)
	}
	// A second advance to an earlier time must be a no-op, not an error.
	if err := ck.AdvanceTo(0); err != nil {
		t.Fatal(err)
	}
	if err := ck.Extend(tr.Jobs[cut2:]); err != nil {
		t.Fatal(err)
	}
	got, err := ck.WhatIf(nil)
	if err != nil {
		t.Fatal(err)
	}
	ckSameResult(t, "staged", got, want)
	// The checkpoint is still usable after forks: fork again, same answer.
	got2, err := ck.WhatIf(nil)
	if err != nil {
		t.Fatal(err)
	}
	ckSameResult(t, "refork", got2, want)
}

// TestCheckpointExtendRejectsPast: arrivals before the pause time or out of
// submit order must be rejected (they cannot be revised into history), and
// so must a shared log that does not continue the checkpoint's trace.
func TestCheckpointExtendRejectsPast(t *testing.T) {
	tr := ckTrace(t)
	opt := Options{Policy: FCFS, Backfill: EASY}
	ck, err := RunToCheckpoint(tr, opt, tr.Jobs[len(tr.Jobs)-1].Submit+1)
	if err != nil {
		t.Fatal(err)
	}
	late := trace.Job{ID: 999, Submit: 0, Wait: -1, Run: 10, Procs: 1, VC: 0, Status: trace.Passed}
	if err := ck.Extend([]trace.Job{late}); err == nil {
		t.Fatal("extend accepted an arrival before the pause time")
	}
	huge := trace.Job{ID: 1000, Submit: ck.PausedAt() + 1, Wait: -1, Run: 10, Procs: 1 << 20, VC: 0, Status: trace.Passed}
	if err := ck.Extend([]trace.Job{huge}); err == nil {
		t.Fatal("extend accepted a job larger than its partition")
	}
	next := trace.Job{ID: 1001, Submit: ck.PausedAt() + 1, Wait: -1, Run: 10, Procs: 1, VC: 0, Status: trace.Passed}
	if err := ck.ExtendShared(append(tr.Jobs[1:len(tr.Jobs):len(tr.Jobs)], next, next)); err == nil {
		t.Fatal("shared extend accepted a log that does not continue the trace")
	}
	if err := ck.ExtendShared(tr.Jobs[:len(tr.Jobs)-1]); err == nil {
		t.Fatal("shared extend accepted a log shorter than the trace")
	}
	if ck.Len() != len(tr.Jobs) {
		t.Fatalf("failed extend mutated the log: %d jobs, want %d", ck.Len(), len(tr.Jobs))
	}
}

// TestCheckpointRejectsFaults: fault injection cannot be checkpointed.
func TestCheckpointRejectsFaults(t *testing.T) {
	tr := ckTrace(t)
	opt := Options{Policy: FCFS, Backfill: EASY}
	opt.Faults = &fault.Config{MTBF: 20000, MTTR: 4000, OutageFrac: 0.2, Seed: 1}
	if _, err := RunToCheckpoint(tr, opt, 100); err == nil {
		t.Fatal("checkpoint accepted fault injection")
	}
}

// FuzzCheckpointOps drives a checkpoint that carries a Recorder through a
// byte-derived sequence of Extend, AdvanceTo and WhatIf. After every step
// the recorded events must be exactly the strictly-before-pause prefix of
// a cold run of the trace so far (with an observer), and every fork must
// reproduce that cold run exactly. The first two bytes pick the options
// and the cluster shape; each later byte is one operation:
//
//	b%4 == 0, 1  Extend (0) or ExtendShared (1) by 1+(b>>2)%4 jobs,
//	             arriving from the latest of the pause time and the last
//	             submit on
//	b%4 == 2     AdvanceTo: by (b>>2)*90 s, or — when (b>>2)%8 == 0 —
//	             exactly to the next start of a queued job in the cold run
//	b%4 == 3     WhatIf
func FuzzCheckpointOps(f *testing.F) {
	f.Add([]byte{0, 0, 0, 4, 8, 2, 30, 3, 1, 2, 3})
	f.Add([]byte{2, 1, 12, 12, 2, 3, 5, 10, 34, 3, 2, 66, 3})
	f.Add([]byte{3, 1, 1, 1, 1, 1, 2, 2, 2, 3, 0, 0, 130, 3})
	f.Add([]byte{4, 0, 13, 9, 5, 1, 250, 3, 2, 7, 7, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		if len(data) > 64 {
			data = data[:64]
		}
		opts := []Options{
			{Policy: FCFS, Backfill: EASY},
			{Policy: SJF, Backfill: Relaxed, RelaxFactor: 0.2},
			{Policy: WFP3, Backfill: Conservative},
			{Policy: Fair, Backfill: EASY, FairshareHalfLife: 3600},
			{Policy: F2, Backfill: AdaptiveRelaxed, RelaxFactor: 0.15},
			{Policy: FCFS, Backfill: NoBackfill},
		}
		opt := opts[int(data[0])%len(opts)]
		tr := &trace.Trace{System: trace.System{Name: "fuzz", Kind: trace.HPC, TotalCores: 16}}
		if data[1]%2 == 1 {
			tr.System.TotalCores, tr.System.VirtualClusters = 24, 3
		}
		rec := &obs.Recorder{}
		withRec := opt
		withRec.Observer = rec
		ck, err := RunToCheckpoint(tr, withRec, 0)
		if err != nil {
			t.Fatal(err)
		}
		// cold runs the trace so far from t=0 and returns its result and
		// decision events.
		cold := func() (*Result, []obs.Event) {
			coldRec := &obs.Recorder{}
			o := opt
			o.Observer = coldRec
			res, err := Run(tr, o)
			if err != nil {
				t.Fatal(err)
			}
			return res, coldRec.Events
		}
		rng := uint64(data[0])<<8 | uint64(data[1]) | 1
		next := func(n uint64) uint64 {
			rng ^= rng << 13
			rng ^= rng >> 7
			rng ^= rng << 17
			return rng % n
		}
		clock := 0.0
		for step, b := range data[2:] {
			arg := int(b >> 2)
			switch b % 4 {
			case 0, 1:
				at := clock
				if n := len(tr.Jobs); n > 0 && tr.Jobs[n-1].Submit > at {
					at = tr.Jobs[n-1].Submit
				}
				var jobs []trace.Job
				for k := 0; k <= arg%4; k++ {
					at += float64(next(3) * 60)
					run := float64(60 * (1 + next(40)))
					jobs = append(jobs, trace.Job{
						ID: len(tr.Jobs) + k, User: int(next(5)), Submit: at, Wait: -1,
						Run: run, Walltime: run * float64(1+next(3)), Procs: 1 << next(4),
						VC: int(next(4)) - 1, Status: trace.Passed,
					})
				}
				if b%4 == 0 {
					err = ck.Extend(jobs)
					tr.Jobs = append(tr.Jobs, jobs...)
				} else {
					// Later appends to tr.Jobs may land in the storage the
					// checkpoint now shares, beyond its trace.
					tr.Jobs = append(tr.Jobs, jobs...)
					err = ck.ExtendShared(tr.Jobs)
				}
				if err != nil {
					t.Fatalf("step %d: extend: %v", step, err)
				}
			case 2:
				to := clock + float64(arg*90)
				if arg%8 == 0 {
					// The next start of a job still queued at the clock: a
					// pause exactly at a decision instant.
					res, _ := cold()
					to = clock
					for _, j := range res.Jobs {
						if s := j.Submit + j.Wait; s > clock && (to == clock || s < to) {
							to = s
						}
					}
				}
				if err := ck.AdvanceTo(to); err != nil {
					t.Fatalf("step %d: advance: %v", step, err)
				}
				clock = to
			case 3:
				got, err := ck.WhatIf(nil)
				if err != nil {
					t.Fatalf("step %d: what-if: %v", step, err)
				}
				want, _ := cold()
				ckSameResult(t, fmt.Sprintf("step %d fork", step), got, want)
			}
			_, events := cold()
			k := 0
			for k < len(events) && events[k].Time < clock {
				k++
			}
			if len(rec.Events) != k {
				t.Fatalf("step %d: checkpoint emitted %d events, the cold run has %d before t=%v",
					step, len(rec.Events), k, clock)
			}
			for i := range rec.Events {
				if rec.Events[i] != events[i] {
					t.Fatalf("step %d: event %d = %+v, cold run has %+v", step, i, rec.Events[i], events[i])
				}
			}
		}
	})
}
