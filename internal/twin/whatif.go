package twin

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"crosssched/internal/fault"
	"crosssched/internal/par"
	"crosssched/internal/sim"
	"crosssched/internal/trace"
)

// ParsePolicy is sim.ParsePolicy, case-insensitively ("sjf" == "SJF") —
// the twin's wire format is typed by humans and curl scripts.
func ParsePolicy(s string) (sim.Policy, error) {
	for _, p := range sim.Policies {
		if strings.EqualFold(p.String(), s) {
			return p, nil
		}
	}
	return sim.FCFS, fmt.Errorf("twin: unknown policy %q", s)
}

// ParseBackfill is sim.ParseBackfill, case-insensitively.
func ParseBackfill(s string) (sim.BackfillKind, error) {
	for _, b := range sim.Backfills {
		if strings.EqualFold(b.String(), s) {
			return b, nil
		}
	}
	return sim.NoBackfill, fmt.Errorf("twin: unknown backfill %q", s)
}

// Candidate is one scheduling configuration a what-if query evaluates.
type Candidate struct {
	// Policy and Backfill name a sim.Policy / sim.BackfillKind ("fcfs",
	// "sjf", ..., "easy", "conservative", ...). Empty means the session's
	// baseline value.
	Policy   string `json:"policy,omitempty"`
	Backfill string `json:"backfill,omitempty"`
	// RelaxFactor tunes relaxed/adaptive backfilling (0 = default 0.10).
	RelaxFactor float64 `json:"relax,omitempty"`
	// Faults is a fault.ParseSpec scenario injected into the fork (e.g.
	// "mtbf=86400,mttr=3600,frac=0.25,recovery=requeue"). Its RNG is keyed
	// by the what-if seed unless the spec pins its own.
	Faults string `json:"faults,omitempty"`
}

// WhatIfRequest asks a session to fork and compare candidates.
type WhatIfRequest struct {
	Candidates []Candidate `json:"candidates"`
	// Seed overrides the session seed for fault injection in this query.
	Seed *uint64 `json:"seed,omitempty"`
}

// Outcome is one candidate's scored replay. Wait/bsld aggregate over the
// jobs still pending (not yet started) at the session clock — the jobs the
// recommendation can still help — while util and makespan cover the whole
// replay. Deltas are candidate minus baseline: negative wait/bsld deltas
// and positive util deltas are improvements.
type Outcome struct {
	Rank      int       `json:"rank"`
	Candidate Candidate `json:"candidate"`

	AvgWait     float64 `json:"avg_wait"`
	AvgBsld     float64 `json:"avg_bsld"`
	Utilization float64 `json:"util"`
	Makespan    float64 `json:"makespan"`
	Violations  int     `json:"violations"`
	Backfilled  int     `json:"backfilled"`
	// Fault-injection outcomes (zero without a fault spec).
	Interrupted int `json:"interrupted,omitempty"`
	FaultFailed int `json:"fault_failed,omitempty"`

	DeltaWait float64 `json:"d_wait"`
	DeltaBsld float64 `json:"d_bsld"`
	DeltaUtil float64 `json:"d_util"`
}

// Report is a ranked what-if reply. For a fixed session state and seed it
// is byte-identical across worker counts: candidate runs are indexed, the
// simulator is deterministic, and ranking ties break by candidate order.
type Report struct {
	Session     string    `json:"session"`
	Now         float64   `json:"now"`
	Seed        uint64    `json:"seed"`
	PendingJobs int       `json:"pending_jobs"`
	Baseline    Outcome   `json:"baseline"`
	Ranking     []Outcome `json:"ranking"`
}

// WhatIf forks the twin and replays the submission log under every
// candidate concurrently (pooled sim.Runner workers via internal/par),
// returning the ranked outcomes. The fork is a counterfactual replay from
// trace start: jobs already dispatched in the baseline are re-scheduled
// too (the simulator has no warm start), but scoring is restricted to the
// still-pending jobs so committed work does not drown the signal.
func (s *Session) WhatIf(ctx context.Context, req WhatIfRequest) (*Report, error) {
	if len(req.Candidates) == 0 {
		return nil, fmt.Errorf("twin: what-if needs at least one candidate")
	}
	if len(req.Candidates) > s.limits.MaxCandidates {
		return nil, fmt.Errorf("%w: %d candidates exceed cap %d",
			ErrBudget, len(req.Candidates), s.limits.MaxCandidates)
	}
	seed := s.cfg.Seed
	if req.Seed != nil {
		seed = *req.Seed
	}

	// Snapshot session state; the jobs slice is append-only so sharing the
	// prefix with concurrent submissions is safe.
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, ErrClosed
	}
	if err := s.ensureReplayLocked(); err != nil {
		s.mu.Unlock()
		return nil, err
	}
	now := s.now
	jobs := s.jobs[:len(s.jobs):len(s.jobs)]
	base := s.replay.res
	s.mu.Unlock()

	if base == nil {
		return nil, fmt.Errorf("%w: session has no jobs", ErrEmpty)
	}
	// pending: jobs that have not started at the clock under the baseline
	// (strictly-before semantics, matching event publication).
	pending := make([]bool, len(jobs))
	nPending := 0
	for i := range base.Jobs {
		if base.Jobs[i].Submit+base.Jobs[i].Wait >= now {
			pending[i] = true
			nPending++
		}
	}
	if nPending == 0 {
		return nil, fmt.Errorf("%w: every job has already started at t=%v", ErrEmpty, now)
	}

	// Resolve candidates up front so a bad spec fails before the fan-out.
	opts := make([]sim.Options, len(req.Candidates))
	for i, c := range req.Candidates {
		opt, err := s.candidateOptions(c, seed)
		if err != nil {
			return nil, fmt.Errorf("twin: candidate %d: %w", i, err)
		}
		opts[i] = opt
	}

	tr := &trace.Trace{System: trace.System{
		Name:            "twin:" + s.ID,
		Kind:            trace.HPC,
		TotalCores:      s.cfg.Cores,
		VirtualClusters: s.cfg.Partitions,
	}, Jobs: jobs}

	// Warm starts: each fault-free candidate forks a checkpoint already
	// advanced to the clock instead of replaying the log from t=0. A nil
	// entry (fault injection, cold mode, table full, or a checkpoint raced
	// past this snapshot) replays cold; the checkpoint contract makes both
	// paths byte-identical, so mixing them per candidate is invisible in
	// the report.
	cks := make([]*sim.Checkpoint, len(opts))
	for i := range opts {
		if !s.cfg.ColdWhatIf && !opts[i].Faults.Enabled() {
			cks[i] = s.warmCheckpoint(opts[i], tr, now)
		}
	}

	results := make([]*sim.Result, len(opts))
	err := par.ForEach(ctx, len(opts), func(ctx context.Context, i int) error {
		var res *sim.Result
		var err error
		if cks[i] != nil {
			res, err = cks[i].WhatIf(ctx)
		} else {
			res, err = sim.RunContext(ctx, tr, opts[i])
		}
		if err != nil {
			return fmt.Errorf("twin: candidate %d: %w", i, err)
		}
		results[i] = res
		return nil
	})
	if err != nil {
		return nil, err
	}

	rep := &Report{
		Session:     s.ID,
		Now:         now,
		Seed:        seed,
		PendingJobs: nPending,
		Baseline:    score(Candidate{Policy: s.cfg.Policy.String(), Backfill: s.cfg.Backfill.String(), RelaxFactor: s.cfg.RelaxFactor}, base, pending, nPending),
	}
	rep.Ranking = make([]Outcome, len(results))
	for i, res := range results {
		out := score(req.Candidates[i], res, pending, nPending)
		out.DeltaWait = out.AvgWait - rep.Baseline.AvgWait
		out.DeltaBsld = out.AvgBsld - rep.Baseline.AvgBsld
		out.DeltaUtil = out.Utilization - rep.Baseline.Utilization
		rep.Ranking[i] = out
	}
	order := make([]int, len(rep.Ranking))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		oa, ob := &rep.Ranking[order[a]], &rep.Ranking[order[b]]
		if oa.AvgWait != ob.AvgWait {
			return oa.AvgWait < ob.AvgWait
		}
		if oa.AvgBsld != ob.AvgBsld {
			return oa.AvgBsld < ob.AvgBsld
		}
		if oa.Utilization != ob.Utilization {
			return oa.Utilization > ob.Utilization
		}
		return order[a] < order[b] // deterministic tie-break: request order
	})
	ranked := make([]Outcome, len(order))
	for rank, idx := range order {
		ranked[rank] = rep.Ranking[idx]
		ranked[rank].Rank = rank + 1
	}
	rep.Ranking = ranked
	return rep, nil
}

// candidateOptions translates a wire candidate into simulator options.
func (s *Session) candidateOptions(c Candidate, seed uint64) (sim.Options, error) {
	opt := s.baseOptions()
	var err error
	if c.Policy != "" {
		if opt.Policy, err = ParsePolicy(c.Policy); err != nil {
			return opt, err
		}
	}
	if c.Backfill != "" {
		if opt.Backfill, err = ParseBackfill(c.Backfill); err != nil {
			return opt, err
		}
	}
	if c.RelaxFactor != 0 {
		if c.RelaxFactor < 0 {
			return opt, fmt.Errorf("negative relax factor %v", c.RelaxFactor)
		}
		opt.RelaxFactor = c.RelaxFactor
	}
	if c.Faults != "" {
		fc, err := fault.ParseSpec(c.Faults)
		if err != nil {
			return opt, err
		}
		if fc.Seed == 0 {
			fc.Seed = seed
		}
		if err := fc.Validate(s.cfg.Partitions); err != nil {
			return opt, err
		}
		opt.Faults = fc
	}
	return opt, nil
}

// warmCheckpoint returns the session's paused simulation for one candidate
// configuration, caught up to the query snapshot — created on first use,
// then extended with the log suffix and advanced to the clock. It returns
// nil when the candidate must replay cold: the table is at capacity, a
// checkpoint operation failed (the entry is dropped so the next query
// rebuilds it), or a concurrent query with a longer log already pushed the
// checkpoint past this snapshot (forking it would cover jobs the snapshot
// does not).
//
// The Extend precondition — suffix jobs arrive at or after the pause time —
// holds by construction: the pause time is always some earlier session
// clock, the clock is monotone, and Submit clamps every appended job to at
// least the clock at append time.
func (s *Session) warmCheckpoint(opt sim.Options, tr *trace.Trace, now float64) *sim.Checkpoint {
	key := fmt.Sprintf("%s|%s|%g", opt.Policy, opt.Backfill, opt.RelaxFactor)
	s.warmMu.Lock()
	defer s.warmMu.Unlock()
	ck := s.warm[key]
	if ck == nil {
		if len(s.warm) >= s.limits.MaxCandidates {
			return nil // table full: replay cold, keep the hot keys warm
		}
		ck, err := sim.RunToCheckpoint(tr, opt, now)
		if err != nil {
			return nil
		}
		if s.warm == nil {
			s.warm = make(map[string]*sim.Checkpoint)
		}
		s.warm[key] = ck
		return ck
	}
	if ck.Len() > len(tr.Jobs) || ck.PausedAt() > now {
		return nil
	}
	if n := ck.Len(); n < len(tr.Jobs) {
		if err := ck.Extend(tr.Jobs[n:]); err != nil {
			delete(s.warm, key)
			return nil
		}
	}
	if err := ck.AdvanceTo(now); err != nil {
		delete(s.warm, key)
		return nil
	}
	return ck
}

// score aggregates one replay over the pending set.
func score(c Candidate, res *sim.Result, pending []bool, nPending int) Outcome {
	const tau = 10 // sim's default BsldTau
	var waitSum, bsldSum float64
	for i := range pending {
		if !pending[i] {
			continue
		}
		j := &res.Jobs[i]
		waitSum += j.Wait
		r := j.Run
		if r < tau {
			r = tau
		}
		bsld := (j.Wait + j.Run) / r
		if bsld < 1 {
			bsld = 1
		}
		bsldSum += bsld
	}
	return Outcome{
		Candidate:   c,
		AvgWait:     waitSum / float64(nPending),
		AvgBsld:     bsldSum / float64(nPending),
		Utilization: res.Utilization,
		Makespan:    res.Makespan,
		Violations:  res.Violations,
		Backfilled:  res.Backfilled,
		Interrupted: res.Interrupted,
		FaultFailed: res.FaultFailed,
	}
}
