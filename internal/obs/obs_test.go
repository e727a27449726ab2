package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

func sampleEvents() []Event {
	return []Event{
		{Kind: JobSubmit, Time: 0, Job: 0, Part: 0, Procs: 2, Detail: 100},
		{Kind: JobStart, Time: 0, Job: 0, Part: 0, Procs: 2, Detail: 0},
		{Kind: ReservationMade, Time: 5.5, Job: 1, Part: 0, Procs: 4, Detail: 100.25},
		{Kind: Backfill, Time: 5.5, Job: 2, Part: 1, Procs: 1, Detail: 1},
		{Kind: JobComplete, Time: 100, Job: 0, Part: 0, Procs: 2, Detail: 100},
		{Kind: PromiseViolation, Time: 110.125, Job: 1, Part: 0, Procs: 4, Detail: 9.875},
		{Kind: ReservationRelaxed, Time: 110.125, Job: 1, Part: 0, Procs: 4, Detail: 120},
	}
}

func TestKindNamesRoundTrip(t *testing.T) {
	for k := Kind(0); k < numKinds; k++ {
		name := k.String()
		if strings.HasPrefix(name, "Kind(") {
			t.Fatalf("kind %d has no wire name", k)
		}
		back, err := ParseKind(name)
		if err != nil || back != k {
			t.Fatalf("ParseKind(%q) = %v, %v; want %v", name, back, err, k)
		}
	}
	if _, err := ParseKind("bogus"); err == nil {
		t.Fatal("ParseKind accepted an unknown name")
	}
	if got := Kind(200).String(); got != "Kind(200)" {
		t.Fatalf("out-of-range kind name %q", got)
	}
}

func TestRecorderAndCounter(t *testing.T) {
	var rec Recorder
	var cnt Counter
	o := Tee(&rec, nil, &cnt)
	for _, e := range sampleEvents() {
		o.Observe(e)
	}
	if len(rec.Events) != len(sampleEvents()) {
		t.Fatalf("recorded %d events, want %d", len(rec.Events), len(sampleEvents()))
	}
	if rec.Events[2] != sampleEvents()[2] {
		t.Fatalf("event mangled in flight: %+v", rec.Events[2])
	}
	if cnt.Count(JobSubmit) != 1 || cnt.Count(JobStart) != 1 || cnt.Total() != int64(len(sampleEvents())) {
		t.Fatalf("counter tallies wrong: %+v", cnt)
	}
}

func TestTeeCollapses(t *testing.T) {
	if Tee() != nil || Tee(nil, nil) != nil {
		t.Fatal("empty Tee should be nil so the simulator keeps its fast path")
	}
	var rec Recorder
	if Tee(nil, &rec) != Observer(&rec) {
		t.Fatal("single-observer Tee should return the observer itself")
	}
}

// TestJSONLRoundTrip pins the wire format: every written event decodes
// back to the exact same value, including floats.
func TestJSONLRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewJSONLWriter(&buf)
	events := sampleEvents()
	for _, e := range events {
		w.Observe(e)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	// Every line must be standalone valid JSON.
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		var m map[string]interface{}
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Fatalf("line %q: %v", line, err)
		}
	}
	got, err := ReadJSONL(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(events) {
		t.Fatalf("decoded %d events, want %d", len(got), len(events))
	}
	for i := range got {
		if got[i] != events[i] {
			t.Fatalf("event %d: %+v != %+v", i, got[i], events[i])
		}
	}
}

func TestReadJSONLRejectsGarbage(t *testing.T) {
	if _, err := ReadJSONL(strings.NewReader("not json\n")); err == nil {
		t.Fatal("garbage line accepted")
	}
	if _, err := ReadJSONL(strings.NewReader(`{"kind":"bogus","t":0}` + "\n")); err == nil {
		t.Fatal("unknown kind accepted")
	}
}

func TestSyncedObserverConcurrent(t *testing.T) {
	var cnt Counter
	o := Synced(&cnt)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				o.Observe(Event{Kind: JobStart})
			}
		}()
	}
	wg.Wait()
	if cnt.Count(JobStart) != 8000 {
		t.Fatalf("lost events: %d", cnt.Count(JobStart))
	}
	if Synced(nil) != nil {
		t.Fatal("Synced(nil) must stay nil")
	}
}

func TestMetricsJSON(t *testing.T) {
	m := &Metrics{Events: 10, Arrivals: 5, Completions: 5, JobsStarted: 5, WallSeconds: 0.25}
	var buf bytes.Buffer
	if err := m.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back Metrics
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	if back != *m {
		t.Fatalf("metrics JSON round trip: %+v != %+v", back, *m)
	}
}

func TestProgressEmitsLines(t *testing.T) {
	var buf bytes.Buffer
	p := NewProgress(&buf, time.Nanosecond) // every event qualifies
	for _, e := range sampleEvents() {
		p.Observe(e)
		time.Sleep(time.Microsecond)
	}
	p.Finish()
	outStr := buf.String()
	if !strings.Contains(outStr, "progress: t=") || !strings.Contains(outStr, "started=") {
		t.Fatalf("unexpected progress output: %q", outStr)
	}
}
