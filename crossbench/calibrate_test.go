package main

import (
	"fmt"
	"strconv"
	"testing"

	"crosssched/internal/synth"
)

// Every workload scales each segment of its input to one mean queue (see
// segmented). That target is not chosen: it is the median, over
// a fixed panel of seeds, of the same queue on one segment at the
// profile's calibrated load, to three significant figures, so a run sees
// the profile's typical traffic. TestLoadTargetsAreCalibrated keeps the
// targets equal to the panel's medians and logs the panel.

// calibration is where a workload's target comes from: the profile and
// segment size its inputs are built from.
type calibration struct {
	workload string
	profile  func(days float64) *synth.Profile
	jobs     int // jobs per segment
	target   queueTarget
}

// calibrationPanel is the number of seeds, 1 up, the targets are the
// median over.
const calibrationPanel = 15

func calibrations(sz sizes) []calibration {
	return []calibration{
		{"stream-philly", synth.Philly, sz.phillyJobs / sz.phillySegs, streamQueue},
		{"backfill-grid", synth.BlueWaters, sz.gridJobs / sz.gridSegs, gridQueue},
		{"twin-deep", synth.Theta, sz.deepJobs / sz.deepSegs, deepQueue},
	}
}

// panel measures the target's mean queue on one segment for every seed of
// the panel, at the profile's calibrated load.
func (c calibration) panel() ([]float64, error) {
	var qs []float64
	for s := uint64(1); s <= calibrationPanel; s++ {
		tr, _, err := firstJobs(c.profile, c.jobs, s)
		if err != nil {
			return nil, err
		}
		q, err := meanQueue(tr, c.target.backfill)
		if err != nil {
			return nil, fmt.Errorf("%s seed %d: %w", c.workload, s, err)
		}
		qs = append(qs, q)
	}
	return qs, nil
}

// TestLoadTargetsAreCalibrated recomputes every workload's load target
// from the calibration panel: each must be the panel median to three
// significant figures. With -v it logs the panel.
func TestLoadTargetsAreCalibrated(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates the whole calibration panel")
	}
	for _, c := range calibrations(fullSizes) {
		qs, err := c.panel()
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("%s: %s, %d-job segments, mean FCFS+%v queue over seeds 1-%d: min %.3g median %.4g max %.3g, target %g",
			c.workload, c.profile(1).Sys.Name, c.jobs, c.target.backfill, calibrationPanel, quantile(qs, 0), median(qs), quantile(qs, 1), c.target.jobs)
		if got, _ := strconv.ParseFloat(strconv.FormatFloat(median(qs), 'g', 3, 64), 64); got != c.target.jobs {
			t.Errorf("%s: panel median %v rounds to %v, the workload's target is %v", c.workload, median(qs), got, c.target.jobs)
		}
	}
}
