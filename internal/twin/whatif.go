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

// WhatIf forks the twin and runs the submission log to completion under
// every candidate concurrently (internal/par), returning the ranked
// outcomes. Each fault-free candidate forks a checkpoint held at the
// session clock, and the baseline outcome comes from a fork of the live
// baseline; fault-injected candidates, and every run of a ColdWhatIf
// session, replay the log from t=0. A fork reproduces the cold replay
// exactly, so both paths give the same report. Jobs already dispatched in
// the baseline keep their starts only in the baseline's fork — a candidate
// re-schedules them too — so scoring is restricted to the still-pending
// jobs and committed work does not drown the signal.
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

	// Snapshot session state; the log is append-only, so the snapshot's
	// prefix stays valid under concurrent submissions. pending marks the
	// jobs not started before the clock in the baseline — the jobs whose
	// start events are not published yet — with start = Submit+wait as a
	// finished run computes it.
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, ErrClosed
	}
	now := s.now
	tr := s.trace(s.base.Jobs())
	waits := s.base.Waits()
	s.mu.Unlock()
	if len(tr.Jobs) == 0 {
		return nil, fmt.Errorf("%w: session has no jobs", ErrEmpty)
	}
	pending := make([]bool, len(tr.Jobs))
	nPending := 0
	for i, w := range waits {
		if w < 0 || tr.Jobs[i].Submit+w >= now {
			pending[i] = true
			nPending++
		}
	}
	if nPending == 0 {
		return nil, fmt.Errorf("%w: every job has already started at t=%v", ErrEmpty, now)
	}

	// Resolve candidates up front so a bad spec fails before the fan-out.
	// Run 0 is the baseline, run i+1 candidate i.
	cands := make([]Candidate, len(req.Candidates)+1)
	cands[0] = Candidate{Policy: s.cfg.Policy.String(), Backfill: s.cfg.Backfill.String(), RelaxFactor: s.cfg.RelaxFactor}
	copy(cands[1:], req.Candidates)
	opts := make([]sim.Options, len(cands))
	opts[0] = s.baseOptions()
	for i, c := range req.Candidates {
		opt, err := s.candidateOptions(c, seed)
		if err != nil {
			return nil, fmt.Errorf("twin: candidate %d: %w", i, err)
		}
		opts[i+1] = opt
	}

	// Warm starts: each fault-free run forks a checkpoint already advanced
	// to the clock — the baseline's is its table entry. A nil entry (fault
	// injection, cold mode, table full, or a checkpoint raced past this
	// snapshot) replays cold; the checkpoint contract makes both paths
	// byte-identical, so mixing them per run is invisible in the report.
	cks := make([]*sim.Checkpoint, len(opts))
	for i := range opts {
		if !s.cfg.ColdWhatIf && !opts[i].Faults.Enabled() {
			cks[i] = s.warmCheckpoint(opts[i], tr, now)
		}
	}

	// Each run is scored as it finishes, so no more full Results are live
	// at once than there are workers.
	outs := make([]Outcome, len(opts))
	err := par.ForEach(ctx, len(opts), func(ctx context.Context, i int) error {
		res, err := runFork(ctx, cks[i], tr, opts[i])
		if err != nil {
			if i == 0 {
				return fmt.Errorf("twin: baseline: %w", err)
			}
			return fmt.Errorf("twin: candidate %d: %w", i-1, err)
		}
		outs[i] = score(cands[i], res, pending, nPending)
		return nil
	})
	if err != nil {
		return nil, err
	}

	return newReport(s.ID, now, seed, nPending, outs), nil
}

// newReport assembles a what-if reply from the baseline's outcome, outs[0],
// and the candidates' in request order: candidate deltas are taken against
// the baseline, and the ranking orders by wait, then bounded slowdown,
// then utilization, ties keeping request order.
func newReport(id string, now float64, seed uint64, nPending int, outs []Outcome) *Report {
	base := outs[0]
	ranked := append([]Outcome(nil), outs[1:]...)
	for i := range ranked {
		out := &ranked[i]
		out.DeltaWait = out.AvgWait - base.AvgWait
		out.DeltaBsld = out.AvgBsld - base.AvgBsld
		out.DeltaUtil = out.Utilization - base.Utilization
	}
	sort.SliceStable(ranked, func(a, b int) bool {
		oa, ob := &ranked[a], &ranked[b]
		if oa.AvgWait != ob.AvgWait {
			return oa.AvgWait < ob.AvgWait
		}
		if oa.AvgBsld != ob.AvgBsld {
			return oa.AvgBsld < ob.AvgBsld
		}
		return oa.Utilization > ob.Utilization
	})
	for i := range ranked {
		ranked[i].Rank = i + 1
	}
	return &Report{
		Session:     id,
		Now:         now,
		Seed:        seed,
		PendingJobs: nPending,
		Baseline:    base,
		Ranking:     ranked,
	}
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

// runFork returns the result of running tr to completion under opt: a fork
// of ck when ck is set and still holds exactly tr's jobs, else a cold
// replay. A concurrent submission (the baseline) or a query over a longer
// log (any other entry) may extend ck between the snapshot and the fork;
// its result would then cover jobs the snapshot does not.
func runFork(ctx context.Context, ck *sim.Checkpoint, tr *trace.Trace, opt sim.Options) (*sim.Result, error) {
	if ck != nil {
		res, err := ck.WhatIf(ctx)
		if err != nil || len(res.Jobs) == len(tr.Jobs) {
			return res, err
		}
	}
	return sim.RunContext(ctx, tr, opt)
}

// warmKey names a fault-free configuration in the warm table.
func warmKey(opt sim.Options) string {
	return fmt.Sprintf("%s|%s|%g", opt.Policy, opt.Backfill, opt.RelaxFactor)
}

// warmCheckpoint returns the session's paused simulation for one candidate
// configuration, caught up to the query snapshot — created on first use,
// then extended with the log suffix and advanced to the clock. It returns
// nil when the candidate must replay cold: the table is at capacity, a
// checkpoint operation failed (the entry is dropped so the next query
// rebuilds it), or a concurrent query with a longer log already extended
// the checkpoint past this snapshot (forking it would cover jobs the
// snapshot does not) or advanced it past the clock (the suffix would
// arrive before its pause time). A checkpoint that already holds exactly
// the snapshot's log is forked wherever it is paused: a fork's result does
// not depend on the pause time.
//
// The Extend precondition — suffix jobs arrive at or after the pause time —
// holds by construction: the pause time is always some earlier session
// clock, the clock is monotone, and Submit clamps every appended job to at
// least the clock at append time. The baseline's entry is never moved
// here: at the snapshot it held exactly the snapshot's log at its clock,
// and it only grows from there, so it is forked as is or not at all.
func (s *Session) warmCheckpoint(opt sim.Options, tr *trace.Trace, now float64) *sim.Checkpoint {
	key := warmKey(opt)
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
	n := ck.Len()
	if n > len(tr.Jobs) || n < len(tr.Jobs) && ck.PausedAt() > now {
		return nil
	}
	if n < len(tr.Jobs) {
		if err := ck.ExtendShared(tr.Jobs); err != nil {
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
	var waitSum, bsldSum float64
	for i := range pending {
		if !pending[i] {
			continue
		}
		j := &res.Jobs[i]
		waitSum += j.Wait
		bsldSum += sim.BoundedSlowdown(j.Wait, j.Run, sim.DefaultBsldTau)
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
