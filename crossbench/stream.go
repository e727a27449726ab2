package main

import (
	"bytes"
	"fmt"
	"runtime"
	"time"

	"crosssched/internal/obs"
	"crosssched/internal/sim"
	"crosssched/internal/stats"
	"crosssched/internal/synth"
	"crosssched/internal/trace"
)

// streamBench is stream-philly: the out-of-core `tracegen | schedsim
// -stream` path. A Philly-shaped SWF text held in memory is parsed by
// trace.NewSWFStream, scheduled by sim.RunStream under FCFS+EASY, and each
// retired row is folded into stats.StreamSummary accumulators.
type streamBench struct {
	cfg  *config
	swf  []byte
	jobs int

	outs []replayOut // every timed replay, for the check
}

var streamOpts = sim.Options{Policy: sim.FCFS, Backfill: sim.EASY}

const (
	// streamRebuildEvery is how many replays pass between two timings of
	// trace.ReadSWF for recovery_s.
	streamRebuildEvery = 5
	// streamBlockChunks is how many intake chunks make one block, the
	// coarse progress step whatif_* time on stream-philly.
	streamBlockChunks = 10
)

func newStreamBench(cfg *config) bench { return &streamBench{cfg: cfg} }

// streamQueue is the mean number of jobs FCFS+EASY keeps waiting in each
// stream-philly segment: the calibration panel's median at the Philly
// profile's calibrated load (see calibrate_test.go).
var streamQueue = queueTarget{sim.EASY, 738}

func (b *streamBench) setup(seed uint64) error {
	sz := b.cfg.size
	tr, err := segmented(synth.Philly, sz.phillyJobs/sz.phillySegs, sz.phillySegs, seed, streamQueue, b.cfg.nproc)
	if err != nil {
		return err
	}
	var buf bytes.Buffer
	if err := trace.WriteSWF(&buf, tr); err != nil {
		return err
	}
	b.swf, b.jobs = buf.Bytes(), len(tr.Jobs)
	return nil
}

// replayOut is what one replay produced.
type replayOut struct {
	res          *sim.Result
	met          obs.Metrics
	parsed, rows int64
	waits, bslds *stats.StreamSummary
	dur          time.Duration
	chunks       []time.Duration // time to take in each successive chunk of jobs
}

// countingStream counts the jobs a stream yields and times each chunk of
// them: the simulator pulls the next job when simulated time reaches the
// previous one's submit, so a chunk's time covers parsing, admitting and
// scheduling it.
type countingStream struct {
	src    trace.Stream
	n      int64
	chunk  int64
	mark   time.Time
	chunks []time.Duration
}

func (s *countingStream) System() trace.System { return s.src.System() }

func (s *countingStream) Next() (trace.Job, error) {
	j, err := s.src.Next()
	s.count(err)
	return j, err
}

func (s *countingStream) count(err error) {
	if err != nil {
		return
	}
	s.n++
	if s.n%s.chunk == 0 {
		now := time.Now()
		s.chunks = append(s.chunks, now.Sub(s.mark))
		s.mark = now
	}
}

// timedStream also times every Next call, for one aggregate span.
type timedStream struct {
	countingStream
	busy        time.Duration
	first, last time.Time
}

func (s *timedStream) Next() (trace.Job, error) {
	t0 := time.Now()
	j, err := s.src.Next()
	t1 := time.Now()
	if s.first.IsZero() {
		s.first = t0
	}
	s.busy += t1.Sub(t0)
	s.last = t1
	s.count(err)
	return j, err
}

// replay runs the whole pipeline once.
func (b *streamBench) replay(log *spanLog) (replayOut, error) {
	out := replayOut{waits: stats.NewStreamSummary(), bslds: stats.NewStreamSummary()}
	t0 := time.Now()
	root := log.begin("bench.replay", 0, 0)
	defer log.end(root)

	open := log.begin("trace.NewSWFStream", root, 0)
	swf, err := trace.NewSWFStream(bytes.NewReader(b.swf))
	log.end(open)
	if err != nil {
		return out, err
	}
	counted := countingStream{src: swf, chunk: int64(b.cfg.size.chunkJobs), mark: t0}
	var src trace.Stream = &counted
	if log != nil {
		src = &timedStream{countingStream: counted}
	}

	var sinkBusy time.Duration
	var sinkFirst, sinkLast time.Time
	sink := func(r sim.StreamRow) error {
		var s0 time.Time
		if log != nil {
			s0 = time.Now()
		}
		out.waits.Add(r.Job.Wait)
		out.bslds.Add(bsld(r.Job))
		out.rows++
		if log != nil {
			s1 := time.Now()
			if sinkFirst.IsZero() {
				sinkFirst = s0
			}
			sinkBusy += s1.Sub(s0)
			sinkLast = s1
		}
		return nil
	}

	opt := streamOpts
	opt.Metrics = &out.met
	run := log.begin("sim.RunStream", root, 0)
	out.res, err = sim.RunStream(src, opt, sink)
	log.end(run)
	out.dur = time.Since(t0)
	out.parsed, out.chunks = counted.n, counted.chunks
	if ts, ok := src.(*timedStream); ok {
		out.parsed, out.chunks = ts.n, ts.chunks
		log.aggregate("trace.Next", run, ts.first, ts.last, ts.n, ts.busy)
		log.aggregate("stats.sink", run, sinkFirst, sinkLast, out.rows, sinkBusy)
	}
	return out, err
}

// rebuild times materializing the trace from its SWF text.
func (b *streamBench) rebuild() (float64, error) {
	runtime.GC()
	t0 := time.Now()
	if _, err := trace.ReadSWF(bytes.NewReader(b.swf)); err != nil {
		return 0, err
	}
	return time.Since(t0).Seconds(), nil
}

// bsld is a row's bounded slowdown with the simulator's default 10s
// threshold.
func bsld(j trace.Job) float64 {
	r := max(j.Run, 10)
	return max((j.Wait+j.Run)/r, 1)
}

func (b *streamBench) measure(seconds float64, tr *tracer, heap *heapSampler) (*phase, error) {
	log := tr.log()
	ph := &phase{metrics: map[string]metric{}}
	var rates []float64
	var outs []replayOut
	start := time.Now()
	var rebuilds []float64
	for len(outs) == 0 || time.Since(start).Seconds() < seconds {
		ph.attempted++
		runtime.GC() // each replay starts from a collected heap
		// Recovery: rebuilding the materialized trace from its SWF text,
		// the state a non-streaming run must hold; sampled through the run
		// but not by the heap sampler, as the stream never holds it. It
		// runs here, once the previous replay's state is collected.
		if tr == nil && len(outs)%streamRebuildEvery == 0 {
			err := heap.unsampled(func() error {
				d, err := b.rebuild()
				rebuilds = append(rebuilds, d)
				return err
			})
			if err != nil {
				return ph, err
			}
		}
		o, err := b.replay(log)
		if err != nil {
			ph.failed++
			return ph, fmt.Errorf("replay: %w", err)
		}
		outs = append(outs, o)
		rates = append(rates, float64(o.rows)/o.dur.Seconds())
	}
	b.outs = append(b.outs, outs...)
	ph.rounds = len(outs)
	ph.rate = median(rates)

	if tr == nil {
		// Every replay takes in the same chunks of the same trace, so each
		// chunk's (and block's) cost is its median over the run's replays,
		// which a host stall during a few replays does not move; the
		// percentiles are then taken over the chunks.
		var chunkRuns, blockRuns [][]float64 // [chunk][replay] ms
		var chunks int
		var total time.Duration
		for _, o := range outs {
			var block time.Duration
			for i, c := range o.chunks {
				chunkRuns = appendAt(chunkRuns, i, ms(c))
				if block += c; (i+1)%streamBlockChunks == 0 {
					blockRuns = appendAt(blockRuns, i/streamBlockChunks, ms(block))
					block = 0
				}
			}
			chunks += len(o.chunks)
			total += o.dur
		}
		chunkCost, blockCost := medians(chunkRuns), medians(blockRuns)
		ph.metrics["jobs_per_s"] = metric{ph.rate, "jobs/s"}
		ph.metrics["ops_per_s"] = metric{float64(chunks) / total.Seconds(), "ops/s"}
		ph.metrics["mutate_p50_ms"] = metric{quantile(chunkCost, 0.5), "ms"}
		ph.metrics["mutate_p99_ms"] = metric{quantile(chunkCost, 0.99), "ms"}
		ph.metrics["whatif_p50_ms"] = metric{quantile(blockCost, 0.5), "ms"}
		ph.metrics["whatif_p99_ms"] = metric{quantile(blockCost, 0.99), "ms"}
		ph.metrics["recovery_s"] = metric{median(rebuilds), "s"}
		ph.notes = append(ph.notes, fmt.Sprintf("%d replays of %d jobs, %d chunks, %d rebuilds", len(outs), b.jobs, chunks, len(rebuilds)))
		return ph, nil
	}

	lt := layerTimes(tr.all())
	n := float64(len(outs))
	parse := (lt["trace.NewSWFStream"].total + lt["trace.Next"].total).Seconds() / n
	m := outs[0].met
	ph.metrics["trace.parse_s"] = metric{parse, "s/round"}
	ph.metrics["trace.parse_mb_per_s"] = metric{float64(len(b.swf)) / (1 << 20) / parse, "MB/s"}
	ph.metrics["stats.sink_s"] = metric{lt["stats.sink"].total.Seconds() / n, "s/round"}
	ph.metrics["sim.run_self_s"] = metric{lt["sim.RunStream"].self.Seconds() / n, "s/round"}
	ph.metrics["sim.events"] = metric{float64(m.Events), "count"}
	ph.metrics["sim.schedule_passes"] = metric{float64(m.SchedulePasses), "count"}
	ph.metrics["sim.backfilled"] = metric{float64(m.Backfilled), "count"}
	ph.metrics["sim.max_window_jobs"] = metric{float64(m.MaxWindowJobs), "jobs"}
	return ph, nil
}

// check replays the same bytes materialized (trace.ReadSWF + sim.Run) and
// requires every timed replay's aggregates to match it exactly, every
// replay to retire one row per parsed job, and one more streamed replay's
// rows to equal the materialized jobs row for row.
func (b *streamBench) check() error {
	tr, err := trace.ReadSWF(bytes.NewReader(b.swf))
	if err != nil {
		return err
	}
	ref, err := sim.Run(tr, streamOpts)
	if err != nil {
		return err
	}
	for i, o := range b.outs {
		if o.parsed != int64(len(tr.Jobs)) || o.rows != o.parsed || o.waits.N() != o.rows || o.bslds.N() != o.rows {
			return failf("replay %d: parsed %d jobs, retired %d rows, summarized %d/%d; trace has %d jobs",
				i, o.parsed, o.rows, o.waits.N(), o.bslds.N(), len(tr.Jobs))
		}
		if err := sameAggregates(o.res, ref); err != nil {
			return failf("replay %d: %v", i, err)
		}
	}

	src, err := trace.NewSWFStream(bytes.NewReader(b.swf))
	if err != nil {
		return err
	}
	i := 0
	var rowErr error
	_, err = sim.RunStream(src, streamOpts, func(r sim.StreamRow) error {
		if i >= len(ref.Jobs) || r.Job != ref.Jobs[i] || r.Promised != ref.PromisedStart[i] {
			rowErr = failf("streamed row %d differs from the materialized run", i)
			return rowErr
		}
		i++
		return nil
	})
	if rowErr != nil {
		return rowErr
	}
	return err
}

// sameAggregates compares the fields a streamed result shares with the
// materialized one, exactly.
func sameAggregates(got, want *sim.Result) error {
	switch {
	case got.AvgWait != want.AvgWait, got.AvgBsld != want.AvgBsld,
		got.Utilization != want.Utilization, got.Makespan != want.Makespan:
		return fmt.Errorf("aggregates differ: wait %v/%v bsld %v/%v util %v/%v makespan %v/%v",
			got.AvgWait, want.AvgWait, got.AvgBsld, want.AvgBsld, got.Utilization, want.Utilization, got.Makespan, want.Makespan)
	case got.Violations != want.Violations, got.ViolationDelay != want.ViolationDelay,
		got.Backfilled != want.Backfilled, got.MaxQueueLen != want.MaxQueueLen:
		return fmt.Errorf("counters differ: violations %d/%d backfilled %d/%d maxq %d/%d",
			got.Violations, want.Violations, got.Backfilled, want.Backfilled, got.MaxQueueLen, want.MaxQueueLen)
	case len(got.QueueTimeline) != len(want.QueueTimeline):
		return fmt.Errorf("queue timeline has %d samples, want %d", len(got.QueueTimeline), len(want.QueueTimeline))
	}
	for i := range got.QueueTimeline {
		if got.QueueTimeline[i] != want.QueueTimeline[i] {
			return fmt.Errorf("queue timeline differs at sample %d", i)
		}
	}
	return nil
}
