package main

import (
	"context"
	"math"

	"crosssched/internal/par"
	"crosssched/internal/sim"
	"crosssched/internal/synth"
	"crosssched/internal/trace"
)

// The calibrated synth profiles draw a fresh user population per seed, so
// the offered load of a generated trace varies several-fold from seed to
// seed, and with it the queue lengths that decide how much work a
// scheduler does (a 2,500-job Theta segment keeps 5 to 649 jobs queued
// depending on the seed). The benchmark compares runs across seeds, so it
// fixes the load instead: every job's runtime and walltime is multiplied
// by one per-segment factor that sets the segment's mean queue to the
// workload's target (see calibrate_test.go for where targets come from).
// Arrival times, sizes, users and the runtime/walltime ratio are the
// profile's.

// segmented lays k independent traces of n jobs each one after another,
// each drawn from the profile with its own seed and so from its own user
// population, and each scaled by congest to the target queue. A run then
// averages over k populations instead of depending on one, and every seed
// yields the same number of jobs. Each segment starts only once the
// previous one has certainly drained (its last submit plus all its jobs
// run back to back), so segments do not load each other and the scaling
// holds. User IDs are offset per segment to keep the populations apart;
// IDs are dense in submit order. Segments are built on up to workers
// goroutines.
func segmented(profile func(days float64) *synth.Profile, n, k int, seed uint64, target queueTarget, workers int) (*trace.Trace, error) {
	segs := make([]*trace.Trace, k)
	users := make([]int, k)
	err := par.ForEach(par.WithLimit(context.Background(), workers), k, func(_ context.Context, i int) error {
		seg, u, err := firstJobs(profile, n, seed<<8|uint64(i))
		if err != nil {
			return err
		}
		segs[i], users[i] = seg, u
		return congest(seg, target)
	})
	if err != nil {
		return nil, err
	}
	out := trace.New(segs[0].System)
	shift := 0.0
	for i, seg := range segs {
		end := 0.0
		for _, j := range seg.Jobs {
			end = max(end, j.Submit)
			j.Submit += shift
			j.User += i * users[i]
			out.Jobs = append(out.Jobs, j)
		}
		for _, j := range seg.Jobs {
			end += max(j.Run, j.Walltime)
		}
		shift += math.Ceil(end)
	}
	out.SortBySubmit()
	return out, nil
}

// firstJobs generates the profile's first n jobs for seed, lengthening the
// generated span until it holds that many, and returns the profile's user
// population size with them.
func firstJobs(profile func(days float64) *synth.Profile, n int, seed uint64) (*trace.Trace, int, error) {
	days := float64(n) / profile(1).JobsPerDay * 1.25
	for {
		p := profile(days)
		tr, err := p.Generate(seed)
		if err != nil {
			return nil, 0, err
		}
		if len(tr.Jobs) >= n {
			tr.Jobs = tr.Jobs[:n]
			return tr, p.Users, nil
		}
		days *= 2
	}
}

// scaleRuntimes sets jobs to base with runtimes and walltimes times f.
func scaleRuntimes(jobs, base []trace.Job, f float64) {
	for i := range jobs {
		jobs[i].Run = base[i].Run * f
		jobs[i].Walltime = base[i].Walltime * f
	}
}

// congest scales tr so that its mean queue is about the target. The factor
// is found by bisection on its logarithm.
func congest(tr *trace.Trace, target queueTarget) error {
	n := len(tr.Jobs)
	if n < 2 {
		return nil
	}
	base := append([]trace.Job(nil), tr.Jobs...)
	queue := func(logF float64) (float64, error) {
		scaleRuntimes(tr.Jobs, base, math.Exp2(logF))
		return meanQueue(tr, target.backfill)
	}
	lo, hi := -8.0, 4.0
	for i := 0; i < 10; i++ {
		mid := (lo + hi) / 2
		q, err := queue(mid)
		if err != nil {
			return err
		}
		if q < target.jobs {
			lo = mid
		} else {
			hi = mid
		}
	}
	scaleRuntimes(tr.Jobs, base, math.Exp2(lo))
	return nil
}

// meanQueue is the mean number of jobs FCFS with backfilling bf keeps
// waiting on tr: mean wait times arrival rate, by Little's law.
func meanQueue(tr *trace.Trace, bf sim.BackfillKind) (float64, error) {
	n := len(tr.Jobs)
	res, err := sim.Run(tr, sim.Options{Policy: sim.FCFS, Backfill: bf})
	if err != nil {
		return 0, err
	}
	return res.AvgWait * float64(n) / (tr.Jobs[n-1].Submit - tr.Jobs[0].Submit), nil
}

// queueTarget is a mean queue length under FCFS with one backfilling kind:
// the kind whose work a workload's cost follows.
type queueTarget struct {
	backfill sim.BackfillKind
	jobs     float64
}
