package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"runtime"
	"time"

	"crosssched/internal/check"
	"crosssched/internal/obs"
	"crosssched/internal/par"
	"crosssched/internal/sim"
	"crosssched/internal/synth"
	"crosssched/internal/trace"
)

// gridBench is backfill-grid: the paper's policy x backfill study (schedsim
// -matrix, Table II) on a congested BlueWaters-shaped trace. Each cell is
// one sim.RunContext call; the cells fan out on par.ForEach with nproc
// workers.
type gridBench struct {
	cfg *config
	tr  *trace.Trace
	swf []byte // tr as SWF text, rebuilt for recovery_s

	grids [][][32]byte // every timed grid's cell digests, for the check
}

var (
	gridPolicies  = []sim.Policy{sim.FCFS, sim.SJF, sim.WFP3}
	gridBackfills = []sim.BackfillKind{sim.EASY, sim.Conservative, sim.Relaxed, sim.AdaptiveRelaxed}
)

// gridRebuilds is how many times a run times trace.ReadSWF for recovery_s
// before each grid, so the samples are spread through the run.
const gridRebuilds = 2

// gridQueue is the mean number of jobs FCFS+conservative keeps waiting in
// each backfill-grid segment: the calibration panel's median at the
// BlueWaters profile's calibrated load (see calibrate_test.go). The conservative
// planner's work follows its queue, and it is most of the grid's cost, so
// fixing the EASY queue instead left that cost varying with the seed.
var gridQueue = queueTarget{sim.Conservative, 78.5}

func gridOptions(i int) sim.Options {
	return sim.Options{
		Policy:      gridPolicies[i/len(gridBackfills)],
		Backfill:    gridBackfills[i%len(gridBackfills)],
		RelaxFactor: 0.10,
	}
}

func gridCells() int { return len(gridPolicies) * len(gridBackfills) }

func newGridBench(cfg *config) bench { return &gridBench{cfg: cfg} }

func (b *gridBench) setup(seed uint64) error {
	sz := b.cfg.size
	tr, err := segmented(synth.BlueWaters, sz.gridJobs/sz.gridSegs, sz.gridSegs, seed, gridQueue, b.cfg.nproc)
	if err != nil {
		return err
	}
	var buf bytes.Buffer
	if err := trace.WriteSWF(&buf, tr); err != nil {
		return err
	}
	b.tr, b.swf = tr, buf.Bytes()
	return nil
}

// gridOut is one grid's cells.
type gridOut struct {
	res  []*sim.Result
	met  []obs.Metrics
	cell []time.Duration // each cell's run time
	done []time.Duration // when each cell's result was ready, from the grid's start
	wall time.Duration
}

func (b *gridBench) grid(tr *tracer) (gridOut, error) {
	n := gridCells()
	out := gridOut{res: make([]*sim.Result, n), met: make([]obs.Metrics, n), cell: make([]time.Duration, n), done: make([]time.Duration, n)}
	main := tr.log()
	root := main.begin("par.ForEach", 0, 0)
	ctx := par.WithLimit(context.Background(), b.cfg.nproc)
	t0 := time.Now()
	err := par.ForEach(ctx, n, func(ctx context.Context, i int) error {
		log := tr.log() // one buffer per cell: cells run on par's workers
		opt := gridOptions(i)
		opt.Metrics = &out.met[i]
		id := log.begin("sim.cell."+opt.Backfill.String(), root, 0)
		c0 := time.Now()
		res, err := sim.RunContext(ctx, b.tr, opt)
		out.cell[i] = time.Since(c0)
		out.done[i] = time.Since(t0)
		log.end(id)
		if err != nil {
			return fmt.Errorf("%v/%v: %w", opt.Policy, opt.Backfill, err)
		}
		out.res[i] = res
		return nil
	})
	out.wall = time.Since(t0)
	main.end(root)
	return out, err
}

func (b *gridBench) measure(seconds float64, tr *tracer, heap *heapSampler) (*phase, error) {
	ph := &phase{metrics: map[string]metric{}}
	var outs []gridOut
	var rates, rebuilds []float64
	start := time.Now()
	for len(outs) == 0 || time.Since(start).Seconds() < seconds {
		ph.attempted += int64(gridCells())
		runtime.GC() // each grid starts from a collected heap
		// Recovery: rebuilding the materialized trace from its SWF text,
		// here, once the previous grid's results are collected.
		if tr == nil {
			err := heap.unsampled(func() error {
				for i := 0; i < gridRebuilds; i++ {
					runtime.GC()
					t0 := time.Now()
					if _, err := trace.ReadSWF(bytes.NewReader(b.swf)); err != nil {
						return err
					}
					rebuilds = append(rebuilds, time.Since(t0).Seconds())
				}
				return nil
			})
			if err != nil {
				return ph, err
			}
		}
		o, err := b.grid(tr)
		if err != nil {
			ph.failed++
			return ph, err
		}
		rates = append(rates, float64(gridCells()*len(b.tr.Jobs))/o.wall.Seconds())
		// Only digests are kept, so no grid's results outlive it and the
		// live heap is the program's, not the check's.
		b.grids = append(b.grids, digestGrid(o.res))
		o.res = nil
		outs = append(outs, o)
	}
	ph.rounds = len(outs)
	ph.rate = median(rates)

	if tr == nil {
		// Every grid runs the same cells, so each cell's run time, and the
		// time from the grid's start until its result is ready, is its
		// median over the run's grids, which a host stall during a few
		// grids does not move; the percentiles are taken over the cells.
		var runs, ready [][]float64 // [cell][grid] ms
		var grids []float64
		for _, o := range outs {
			for i := range o.cell {
				runs = appendAt(runs, i, ms(o.cell[i]))
				ready = appendAt(ready, i, ms(o.done[i]))
			}
			grids = append(grids, ms(o.wall))
		}
		cellRun, cellReady := medians(runs), medians(ready)
		ph.metrics["jobs_per_s"] = metric{ph.rate, "jobs/s"}
		ph.metrics["ops_per_s"] = metric{float64(gridCells()) / (median(grids) / 1000), "ops/s"}
		ph.metrics["mutate_p50_ms"] = metric{quantile(cellRun, 0.5), "ms"}
		ph.metrics["mutate_p99_ms"] = metric{quantile(cellRun, 0.99), "ms"}
		ph.metrics["whatif_p50_ms"] = metric{quantile(cellReady, 0.5), "ms"}
		ph.metrics["whatif_p99_ms"] = metric{quantile(cellReady, 0.99), "ms"}
		ph.metrics["recovery_s"] = metric{median(rebuilds), "s"}
		ph.notes = append(ph.notes, fmt.Sprintf("%d grids of %d cells on %d jobs, %d rebuilds", len(outs), gridCells(), len(b.tr.Jobs), len(rebuilds)))
		return ph, nil
	}

	n := float64(len(outs))
	lt := layerTimes(tr.all())
	var cellSum float64
	for _, bf := range gridBackfills {
		s := lt["sim.cell."+bf.String()].total.Seconds() / n
		ph.metrics["sim.cell_s."+bf.String()] = metric{s, "s/round"}
		cellSum += s
	}
	var tail, busy float64
	for _, o := range outs {
		var sum time.Duration
		for _, c := range o.cell {
			sum += c
		}
		w := float64(b.cfg.nproc)
		busy += sum.Seconds() / (o.wall.Seconds() * w)
		tail += o.wall.Seconds() - sum.Seconds()/w
	}
	ph.metrics["sim.run_self_s"] = metric{cellSum, "s/round"}
	ph.metrics["par.busy_ratio"] = metric{busy / n, "ratio"}
	ph.metrics["par.tail_idle_s"] = metric{tail / n, "s/round"}

	// Exact work counts: the first grid's cells.
	var m obs.Metrics
	for i := range outs[0].met {
		c := &outs[0].met[i]
		m.Events += c.Events
		m.SchedulePasses += c.SchedulePasses
		m.Backfilled += c.Backfilled
		m.ConsKeptJobs += c.ConsKeptJobs
		m.ConsPlannedJobs += c.ConsPlannedJobs
		m.ScoreCacheHits += c.ScoreCacheHits
		m.ScoreSorts += c.ScoreSorts
	}
	ph.metrics["sim.events"] = metric{float64(m.Events), "count"}
	ph.metrics["sim.schedule_passes"] = metric{float64(m.SchedulePasses), "count"}
	ph.metrics["sim.backfilled"] = metric{float64(m.Backfilled), "count"}
	ph.metrics["sim.cons_planned_jobs"] = metric{float64(m.ConsPlannedJobs), "count"}
	ph.metrics["sim.cons_kept_ratio"] = metric{ratio(float64(m.ConsKeptJobs), float64(m.ConsKeptJobs+m.ConsPlannedJobs)), "ratio"}
	ph.metrics["sim.score_cache_hit_ratio"] = metric{ratio(float64(m.ScoreCacheHits), float64(m.ScoreCacheHits+m.ScoreSorts)), "ratio"}
	return ph, nil
}

// check runs the grid once more, audits every cell with check.Audit, and
// requires every timed grid to have produced exactly its outputs.
func (b *gridBench) check() error {
	ref, err := b.grid(nil)
	if err != nil {
		return err
	}
	for i, res := range ref.res {
		if err := check.Audit(b.tr, gridOptions(i), res).Err(); err != nil {
			opt := gridOptions(i)
			return failf("%v/%v: %v", opt.Policy, opt.Backfill, err)
		}
	}
	want := digestGrid(ref.res)
	for g, got := range b.grids {
		for i := range got {
			if got[i] != want[i] {
				opt := gridOptions(i)
				return failf("timed grid %d: cell %v/%v differs from the audited run", g, opt.Policy, opt.Backfill)
			}
		}
	}
	return nil
}

// digestGrid hashes each cell's outputs: its aggregates, counters, queue
// timeline and every scheduled job.
func digestGrid(cells []*sim.Result) [][32]byte {
	out := make([][32]byte, len(cells))
	var buf []byte
	for c, res := range cells {
		h := sha256.New()
		f := func(x float64) { buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(x)) }
		n := func(x int) { buf = binary.LittleEndian.AppendUint64(buf, uint64(x)) }
		flush := func() {
			h.Write(buf)
			buf = buf[:0]
		}
		f(res.AvgWait)
		f(res.AvgBsld)
		f(res.Utilization)
		f(res.Makespan)
		n(res.Violations)
		f(res.ViolationDelay)
		n(res.Backfilled)
		n(res.MaxQueueLen)
		for _, q := range res.QueueTimeline {
			f(q.Time)
			n(q.Length)
		}
		flush()
		for _, j := range res.Jobs {
			n(j.ID)
			n(j.User)
			f(j.Submit)
			f(j.Wait)
			f(j.Run)
			f(j.Walltime)
			n(j.Procs)
			n(j.VC)
			n(int(j.Status))
			if len(buf) >= 1<<16 {
				flush()
			}
		}
		flush()
		h.Sum(out[c][:0])
	}
	return out
}
