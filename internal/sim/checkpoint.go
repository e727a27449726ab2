package sim

import (
	"context"
	"fmt"
	"sync"

	"crosssched/internal/trace"
)

// Checkpoint is a paused simulation that can be extended with future
// arrivals, advanced further, and forked into what-if runs. Because
// runUntil's pause leaves the simulator in exactly the state a full run
// passes through, a fork run to completion is float-for-float identical to
// a cold run of the same (possibly extended) trace under the same options —
// the property the digital twin relies on: a session's baseline is one
// checkpoint held at the session clock, extended per submission and
// advanced with the clock, and the twin forks it, and one checkpoint per
// candidate configuration, per what-if instead of replaying the whole
// submission log from t=0 every time.
//
// All methods are safe for concurrent use. WhatIf holds the lock only while
// cloning; concurrent forks then run independently.
type Checkpoint struct {
	mu      sync.Mutex
	jobs    []trace.Job // append-only; shared read-only after ExtendShared
	r       Runner      // the paused simulation and its cluster; never pooled
	pauseAt float64
	broken  error // a failed advance poisons the checkpoint
}

// RunToCheckpoint validates tr, runs it under opt up to (exclusively)
// pauseAt, and returns the paused simulation. Fault injection cannot be
// checkpointed (its RNG and per-job attempt state are not cloneable), and
// Metrics is ignored. opt.Observer, when set, stays with the checkpoint:
// it receives every decision event strictly before the pause time, here
// and on each later AdvanceTo, in the order a cold run emits them — the
// twin publishes its event stream this way. Forks never carry it.
// The trace is copied; the caller's slice is not retained.
func RunToCheckpoint(tr *trace.Trace, opt Options, pauseAt float64) (*Checkpoint, error) {
	if opt.Faults.Enabled() {
		return nil, fmt.Errorf("sim: checkpoints do not support fault injection")
	}
	opt.Metrics = nil
	ck := &Checkpoint{pauseAt: pauseAt}
	cl, err := ck.r.begin(&opt, tr.System, tr.Jobs)
	if err != nil {
		return nil, err
	}
	ck.jobs = append([]trace.Job(nil), tr.Jobs...)
	ck.r.s.reset(context.Background(), ck.jobs, opt, cl)
	if err := ck.r.s.runUntil(pauseAt); err != nil {
		return nil, err
	}
	return ck, nil
}

// PausedAt returns the checkpoint's pause time: every event strictly before
// it has been processed.
func (ck *Checkpoint) PausedAt() float64 {
	ck.mu.Lock()
	defer ck.mu.Unlock()
	return ck.pauseAt
}

// Len returns the number of jobs in the checkpoint's trace.
func (ck *Checkpoint) Len() int {
	ck.mu.Lock()
	defer ck.mu.Unlock()
	return len(ck.jobs)
}

// Jobs returns the checkpoint's trace. The slice is shared read-only and
// capped at its length, so a later Extend never writes into it.
func (ck *Checkpoint) Jobs() []trace.Job {
	ck.mu.Lock()
	defer ck.mu.Unlock()
	return ck.jobs[:len(ck.jobs):len(ck.jobs)]
}

// Waits returns, for every job of the trace, its wait if the job started
// before the pause time and -1 if it did not.
func (ck *Checkpoint) Waits() []float64 {
	ck.mu.Lock()
	defer ck.mu.Unlock()
	s := &ck.r.s
	out := append([]float64(nil), s.waits...)
	for i := s.next; i < len(out); i++ {
		out[i] = -1 // not arrived yet
	}
	for p := range s.parts {
		for _, pj := range s.parts[p].q.live() {
			out[pj.idx] = -1 // waiting in a queue
		}
	}
	return out
}

// Extend appends future arrivals to the checkpoint's trace. The jobs must
// continue the existing submit order and arrive at or after the pause time
// (events before it have already been processed and cannot be revised); an
// append-only log whose writes are clamped to the advancing clock — the
// twin's submission log — satisfies this by construction.
func (ck *Checkpoint) Extend(jobs []trace.Job) error {
	if len(jobs) == 0 {
		return nil
	}
	ck.mu.Lock()
	defer ck.mu.Unlock()
	if err := ck.admit(jobs); err != nil {
		return err
	}
	ck.grow(append(ck.jobs, jobs...))
	return nil
}

// ExtendShared is Extend for a caller that holds the whole log: log must
// begin with the checkpoint's trace, and log[Len():] are the new arrivals,
// under Extend's rules. The checkpoint then reads its trace from log's
// storage instead of copying it, so checkpoints of one log under several
// configurations hold it once. The caller must never change
// log[:len(log)] afterwards (appending beyond it is fine).
func (ck *Checkpoint) ExtendShared(log []trace.Job) error {
	ck.mu.Lock()
	defer ck.mu.Unlock()
	n := len(ck.jobs)
	if len(log) < n || n > 0 && log[n-1] != ck.jobs[n-1] {
		return fmt.Errorf("sim: checkpoint extend: log does not continue the checkpoint's %d-job trace", n)
	}
	if err := ck.admit(log[n:]); err != nil {
		return err
	}
	ck.grow(log[:len(log):len(log)])
	return nil
}

// admit checks that jobs may be appended to the checkpoint's trace.
// Callers hold ck.mu.
func (ck *Checkpoint) admit(jobs []trace.Job) error {
	if ck.broken != nil {
		return ck.broken
	}
	last := ck.pauseAt
	if n := len(ck.jobs); n > 0 && ck.jobs[n-1].Submit > last {
		last = ck.jobs[n-1].Submit
	}
	for i := range jobs {
		if err := admitJob(&jobs[i], last, ck.r.s.cl); err != nil {
			return err
		}
		last = jobs[i].Submit
	}
	return nil
}

// grow makes jobs — the checkpoint's trace plus admitted arrivals — the
// trace, and grows the per-arrival arrays alongside. Callers hold ck.mu.
func (ck *Checkpoint) grow(jobs []trace.Job) {
	added := len(jobs) - len(ck.jobs)
	ck.jobs = jobs
	s := &ck.r.s
	s.jobs = ck.jobs
	// The pending arena may move; queue entries point into it and must be
	// re-anchored by arrival index (idxBase is always 0 here — checkpoints
	// are materialized).
	oldArena := s.pendings
	s.pendings = append(s.pendings, make([]pending, added)...)
	if len(oldArena) > 0 && &oldArena[0] != &s.pendings[0] {
		for p := range s.parts {
			q := &s.parts[p].q
			for i, pj := range q.buf[q.head:] {
				q.buf[q.head+i] = &s.pendings[pj.idx]
			}
		}
	}
	s.waits = append(s.waits, make([]float64, added)...)
	for range added {
		s.promised = append(s.promised, -1)
	}
}

// AdvanceTo moves the pause time forward to t, processing every event
// strictly before it. Times at or before the current pause are a no-op, so
// concurrent callers with different clocks compose (the later one wins).
func (ck *Checkpoint) AdvanceTo(t float64) error {
	ck.mu.Lock()
	defer ck.mu.Unlock()
	if ck.broken != nil {
		return ck.broken
	}
	if t <= ck.pauseAt {
		return nil
	}
	if err := ck.r.s.runUntil(t); err != nil {
		ck.broken = fmt.Errorf("sim: checkpoint advance failed: %w", err)
		return ck.broken
	}
	ck.pauseAt = t
	return nil
}

// WhatIf forks the paused simulation and runs the fork to completion,
// returning the full-trace Result — identical to a cold run of the
// checkpoint's current trace under its options. The checkpoint itself is
// not advanced; forks are independent and may run concurrently. The fork
// runs on a pooled Runner's working set, like a cold Run.
func (ck *Checkpoint) WhatIf(ctx context.Context) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	ck.mu.Lock()
	if ck.broken != nil {
		ck.mu.Unlock()
		return nil, ck.broken
	}
	r := runnerPool.Get().(*Runner)
	defer runnerPool.Put(r)
	fork := &r.s
	cloneSimulator(fork, &ck.r.s, ctx)
	ck.mu.Unlock()
	// The working set goes back to the pool; the checkpoint's trace and
	// the caller's context must not stay reachable from it.
	defer fork.release()
	if err := fork.finish(); err != nil {
		return nil, err
	}
	return fork.result(), nil
}

// cloneSimulator copies a paused materialized simulator into dst so the two
// can run independently, reusing dst's storage the way a Runner reset does.
// Authoritative state — the queued entries of the pending arena, queues,
// completion heap, cluster, fair-share accounts, per-arrival arrays, and
// every counter — is deep-copied; pure caches (score sort, profile, shadow,
// backfill-scan memo, conservative plan) are dropped instead, which the
// cache invariants already prove changes no scheduling decision, only
// re-derivation work. Arena entries of started jobs are never read again
// and those of future arrivals are overwritten on arrival, so only queued
// entries are copied. promised and timeline escape into the fork's Result
// and are always fresh.
func cloneSimulator(dst, src *simulator, ctx context.Context) {
	dst.opt = src.opt
	dst.opt.Observer = nil // the observer stays with the checkpoint
	dst.obsv = nil
	dst.jobs = src.jobs // read-only; Extend appends only beyond this header's len
	dst.cl = src.cl.Clone()
	dst.now = src.now
	dst.next = src.next
	dst.idxBase = 0
	dst.in = nil
	dst.flt = nil
	dst.ctx = ctx
	dst.done = ctx.Done()
	dst.met = src.met

	if n := len(src.pendings); cap(dst.pendings) >= n {
		dst.pendings = dst.pendings[:n]
	} else {
		dst.pendings = make([]pending, n)
	}
	dst.compl.items = append(dst.compl.items[:0], src.compl.items...)
	dst.waits = append(dst.waits[:0], src.waits...)
	dst.promised = append([]float64(nil), src.promised...)
	// One sample per remaining event at most: an arrival or a completion
	// of every job not yet started, and a completion per running job.
	samples := len(src.timeline) + 2*(len(src.pendings)-src.started) + src.compl.len()
	dst.timeline = append(make([]QueueSample, 0, min(samples, 2*maxTimelineSamples)), src.timeline...)
	if n := len(src.parts); cap(dst.touched) >= n {
		dst.touched = dst.touched[:n]
	} else {
		dst.touched = make([]bool, n)
	}

	if n := len(src.parts); cap(dst.parts) >= n {
		dst.parts = dst.parts[:n]
	} else {
		dst.parts = make([]partState, n)
	}
	for p := range src.parts {
		sp, dp := &src.parts[p], &dst.parts[p]
		dp.reset()
		// Queue: the live region and its mirrors copy verbatim; entries
		// re-anchor into the cloned arena by arrival index.
		for _, pj := range sp.q.live() {
			dst.pendings[pj.idx] = *pj
			dp.q.buf = append(dp.q.buf, &dst.pendings[pj.idx])
		}
		stamps, procs := sp.q.liveMirrors()
		dp.q.stamps = append(dp.q.stamps, stamps...)
		dp.q.procs = append(dp.q.procs, procs...)
		dp.avail.ends = append(dp.avail.ends, sp.avail.ends...)
		dp.avail.procs = append(dp.avail.procs, sp.avail.procs...)
		dp.avail.ver = sp.avail.ver
		// fitBound is authoritative (a sound lower bound the original run
		// would carry forward identically); the caches restart cold.
		dp.fitBound = sp.fitBound
		// Bump past every stamp copied with the arena so no stale backfill
		// memo survives into the fork.
		dp.scanGen = sp.scanGen + 1
	}

	dst.fair = nil
	if src.fair != nil {
		dst.fair = src.fair.Clone()
	}
	dst.fairVer = src.fairVer

	dst.queued = src.queued
	dst.violations = src.violations
	dst.violationDelay = src.violationDelay
	dst.backfilled = src.backfilled
	dst.maxQueueSeen = src.maxQueueSeen
	dst.started = src.started
	dst.makespan = src.makespan
}
