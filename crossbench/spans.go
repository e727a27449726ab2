package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call at a layer boundary. An aggregate span folds
// Count calls of one fine-grained boundary (a stream's Next, a sink row)
// into one record: Start and End bracket the first and last call and Busy
// is their summed duration. Spans of one twin operation share Op.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Op     int64  `json:"op,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Count  int64  `json:"count,omitempty"`
	Busy   int64  `json:"busy_ns,omitempty"`
}

func (s *span) dur() int64 {
	if s.Count > 0 {
		return s.Busy
	}
	return s.End - s.Start
}

// tracer keeps a traced run's spans in memory until the run ends. A nil
// *tracer, and the nil *spanLog it hands out, record nothing.
type tracer struct {
	t0   time.Time
	ops  atomic.Int64
	mu   sync.Mutex
	logs []*spanLog
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// spanLog is one goroutine's span buffer, so recording takes no lock.
type spanLog struct {
	tr    *tracer
	n     int64 // log number: the high half of span IDs
	spans []span
}

// log returns a new buffer for one goroutine.
func (t *tracer) log() *spanLog {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	l := &spanLog{tr: t, n: int64(len(t.logs) + 1)}
	t.logs = append(t.logs, l)
	return l
}

// newOp returns a fresh operation ID.
func (t *tracer) newOp() int64 {
	if t == nil {
		return 0
	}
	return t.ops.Add(1)
}

// begin opens a span and returns its ID; end closes it.
func (l *spanLog) begin(name string, parent, op int64) int64 {
	if l == nil {
		return 0
	}
	now := int64(time.Since(l.tr.t0))
	l.spans = append(l.spans, span{ID: l.n<<32 | int64(len(l.spans)+1), Parent: parent, Op: op, Name: name, Start: now, End: now})
	return l.spans[len(l.spans)-1].ID
}

func (l *spanLog) end(id int64) {
	if l == nil {
		return
	}
	l.spans[id&(1<<32-1)-1].End = int64(time.Since(l.tr.t0))
}

// aggregate records count calls totalling busy between start and end.
func (l *spanLog) aggregate(name string, parent int64, start, end time.Time, count int64, busy time.Duration) {
	if l == nil || count == 0 {
		return
	}
	l.spans = append(l.spans, span{
		ID: l.n<<32 | int64(len(l.spans)+1), Parent: parent, Name: name,
		Start: int64(start.Sub(l.tr.t0)), End: int64(end.Sub(l.tr.t0)),
		Count: count, Busy: int64(busy),
	})
}

// all returns every recorded span.
func (t *tracer) all() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, l := range t.logs {
		out = append(out, l.spans...)
	}
	return out
}

// layerTime sums, per span name, the spans' durations and their self
// times: a span's duration minus the part of its interval its children
// cover (the union of the children's intervals, so children running in
// parallel count once; aggregate children count their busy time).
type layerTime struct {
	total, self time.Duration
	count       int64
}

func layerTimes(spans []span) map[string]*layerTime {
	children := map[int64][]*span{}
	for i := range spans {
		if p := spans[i].Parent; p != 0 {
			children[p] = append(children[p], &spans[i])
		}
	}
	out := map[string]*layerTime{}
	for i := range spans {
		s := &spans[i]
		lt := out[s.Name]
		if lt == nil {
			lt = &layerTime{}
			out[s.Name] = lt
		}
		d := s.dur()
		self := d - covered(s, children[s.ID])
		lt.total += time.Duration(d)
		lt.self += time.Duration(max(self, 0))
		lt.count += max(s.Count, 1)
	}
	return out
}

// covered is the time within parent's interval its children account for.
func covered(parent *span, kids []*span) int64 {
	var busy int64
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, k := range kids {
		if k.Count > 0 {
			busy += k.Busy
			continue
		}
		a, b := max(k.Start, parent.Start), min(k.End, parent.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var end int64 = -1 << 62
	for _, v := range ivs {
		if v.a > end {
			busy += v.b - v.a
			end = v.b
		} else if v.b > end {
			busy += v.b - end
			end = v.b
		}
	}
	return busy
}

// write stores the host record and every span as JSON lines.
func (t *tracer) write(path string, host hostInfo) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	if err := enc.Encode(map[string]hostInfo{"host": host}); err != nil {
		f.Close()
		return err
	}
	for _, s := range t.all() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
