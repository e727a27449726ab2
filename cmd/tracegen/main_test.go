package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"crosssched/internal/synth"
	"crosssched/internal/trace"
)

func TestRunGeneratesSWF(t *testing.T) {
	out := filepath.Join(t.TempDir(), "x.swf")
	if err := run("Helios", 0.5, 1, "swf", out, "", 0); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(out)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	tr, err := trace.ReadSWF(f)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() < 100 || tr.System.Name != "Helios" {
		t.Fatalf("bad generated trace: %d jobs, system %q", tr.Len(), tr.System.Name)
	}
}

func TestRunGeneratesCSV(t *testing.T) {
	out := filepath.Join(t.TempDir(), "x.csv")
	if err := run("Theta", 0.5, 1, "csv", out, "", 0); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(out)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	tr, err := trace.ReadCSV(f, trace.System{Name: "Theta"})
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() == 0 {
		t.Fatal("empty CSV trace")
	}
}

func TestRunRejectsBadInputs(t *testing.T) {
	if err := run("Nope", 1, 1, "swf", "", "", 0); err == nil {
		t.Fatal("unknown system accepted")
	}
	if err := run("Theta", 1, 1, "xml", filepath.Join(t.TempDir(), "x"), "", 0); err == nil {
		t.Fatal("unknown format accepted")
	}
	if err := run("Theta", 1, 1, "swf", "", "", -3); err == nil {
		t.Fatal("negative partition count accepted")
	}
	if err := run("Theta", 1, 1, "swf", "", "", 1<<30); err == nil {
		t.Fatal("partition count beyond the core count accepted")
	}
	if err := run("", 1, 1, "swf", "", "/does/not/exist.swf", 0); err == nil {
		t.Fatal("missing fit input accepted")
	}
}

func TestRunFitRoundTrip(t *testing.T) {
	dir := t.TempDir()
	src := filepath.Join(dir, "src.swf")
	if err := run("Philly", 2, 1, "swf", src, "", 0); err != nil {
		t.Fatal(err)
	}
	dst := filepath.Join(dir, "fit.swf")
	if err := run("", 0, 2, "swf", dst, src, 0); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(dst)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	tr, err := trace.ReadSWF(f)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() < 1000 {
		t.Fatalf("fitted regeneration too small: %d jobs", tr.Len())
	}
}

// TestRunStreamIdenticalBytes: tracegen streams the generator into the
// writer, and the bytes must equal writing the materialized trace, for
// both formats.
func TestRunStreamIdenticalBytes(t *testing.T) {
	p, err := synth.ByName("Theta", 0.5)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := p.Generate(9)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	for _, format := range []string{"swf", "csv"} {
		var want bytes.Buffer
		if format == "swf" {
			err = trace.WriteSWF(&want, tr)
		} else {
			err = trace.WriteCSV(&want, tr)
		}
		if err != nil {
			t.Fatal(err)
		}
		out := filepath.Join(dir, "out."+format)
		if err := run("Theta", 0.5, 9, format, out, "", 0); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		if want.Len() == 0 || !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("%s: streamed output differs from the materialized trace (%d vs %d bytes)", format, len(got), want.Len())
		}
	}
}

// TestRunPartitionOverride: -partitions reshapes the generated system and
// assigns jobs across the requested virtual clusters.
func TestRunPartitionOverride(t *testing.T) {
	out := filepath.Join(t.TempDir(), "p.swf")
	if err := run("Theta", 0.5, 1, "swf", out, "", 4); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(out)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	tr, err := trace.ReadSWF(f)
	if err != nil {
		t.Fatal(err)
	}
	if tr.System.VirtualClusters != 4 {
		t.Fatalf("got %d virtual clusters, want 4", tr.System.VirtualClusters)
	}
	for _, j := range tr.Jobs {
		if j.VC < 0 || j.VC >= 4 {
			t.Fatalf("job %d assigned to VC %d, want [0, 4)", j.ID, j.VC)
		}
	}
}
