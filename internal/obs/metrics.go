package obs

import (
	"encoding/json"
	"io"
)

// Metrics are the per-run counters and timers the simulator maintains.
// They are always cheap integer increments inside the run (no locking, no
// allocation); pass a *Metrics in sim.Options.Metrics to receive a copy
// when the run finishes (including a canceled run, so partial progress is
// visible).
type Metrics struct {
	// Events counts event-loop iterations (distinct clock advances).
	Events int64 `json:"events"`
	// Arrivals and Completions count the two event classes processed.
	Arrivals    int64 `json:"arrivals"`
	Completions int64 `json:"completions"`
	// SchedulePasses counts per-partition scheduling passes.
	SchedulePasses int64 `json:"schedule_passes"`
	// ScoreSorts and ScoreCacheHits split dynamic-policy queue orderings
	// into recomputed sorts and passes served from the per-(partition,
	// time, fair-version) score cache. Both stay zero for static policies,
	// whose order is fixed at arrival.
	ScoreSorts     int64 `json:"score_sorts"`
	ScoreCacheHits int64 `json:"score_cache_hits"`
	// JobsStarted, Backfilled, and Violations mirror the result metrics.
	JobsStarted int64 `json:"jobs_started"`
	Backfilled  int64 `json:"backfilled"`
	Violations  int64 `json:"violations"`
	// Conservative-backfilling plan maintenance (zero unless the run uses
	// Conservative): ConsPasses counts planning passes, ConsKeptJobs sums
	// the reservations carried over from the previous pass by the
	// incremental plan, and ConsPlannedJobs sums the reservations planned
	// fresh. Kept/(Kept+Planned) is the replan work avoided.
	ConsPasses      int64 `json:"cons_passes,omitempty"`
	ConsKeptJobs    int64 `json:"cons_kept_jobs,omitempty"`
	ConsPlannedJobs int64 `json:"cons_planned_jobs,omitempty"`
	// Fault-injection counters (all zero when the fault layer is off):
	// capacity events applied, attempts interrupted, jobs requeued, and
	// jobs terminally failed by faults.
	CapacityFaults int64 `json:"capacity_faults,omitempty"`
	Interrupts     int64 `json:"interrupts,omitempty"`
	Requeues       int64 `json:"requeues,omitempty"`
	FaultFailed    int64 `json:"fault_failed,omitempty"`
	// Streaming-intake gauges (zero — and omitted — on materialized runs):
	// MaxWindowJobs is the peak number of jobs resident in the sliding
	// window (admitted but not yet retired), the quantity that must stay
	// O(active + lookahead) regardless of trace length; JobsRetired counts
	// rows flushed to the sink.
	MaxWindowJobs int64 `json:"max_window_jobs,omitempty"`
	JobsRetired   int64 `json:"jobs_retired,omitempty"`
	// WallSeconds is the run's wall-clock duration.
	WallSeconds float64 `json:"wall_seconds"`
	// Canceled reports whether the run was cut short by its context.
	Canceled bool `json:"canceled"`
}

// WriteJSON writes the metrics as indented JSON.
func (m *Metrics) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(m)
}
