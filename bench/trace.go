package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call across a layer boundary, recorded by the
// harness around the layer's public functions. Spans of one record
// batch or one query share ID; Parent is the Span number of the span
// that caused this one (0 for a root).
type span struct {
	Span   int64  `json:"span"`
	Parent int64  `json:"parent"`
	ID     string `json:"id"`
	Name   string `json:"name"`
	Layer  string `json:"layer"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, which is how the untraced pass runs the same code.
type tracer struct {
	t0   time.Time
	next atomic.Int64
	mu   sync.Mutex
	done []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// openSpan is a started span; end records it.
type openSpan struct {
	tr *tracer
	s  span
}

func (t *tracer) begin(parent *openSpan, layer, name, id string) *openSpan {
	if t == nil {
		return nil
	}
	o := &openSpan{tr: t, s: span{Span: t.next.Add(1), ID: id, Name: name, Layer: layer}}
	if parent != nil {
		o.s.Parent = parent.s.Span
	}
	o.s.Start = int64(time.Since(t.t0))
	return o
}

func (o *openSpan) end() {
	if o == nil {
		return
	}
	o.s.End = int64(time.Since(o.tr.t0))
	o.tr.mu.Lock()
	o.tr.done = append(o.tr.done, o.s)
	o.tr.mu.Unlock()
}

// spans returns the recorded spans in start order.
func (t *tracer) spans() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	out := append([]span(nil), t.done...)
	t.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

func writeSpans(path string, spans []span) error {
	buf, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, buf, 0o644)
}

// selfTimes returns each span's duration minus the part of it that its
// children cover (overlapping children are merged first), keyed by Span.
func selfTimes(spans []span) map[int64]time.Duration {
	kids := make(map[int64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	self := make(map[int64]time.Duration, len(spans))
	for _, s := range spans {
		cs := kids[s.Span]
		sort.Slice(cs, func(i, j int) bool { return cs[i].Start < cs[j].Start })
		covered, hi := int64(0), s.Start
		for _, c := range cs {
			lo, end := max(c.Start, hi), min(c.End, s.End)
			if end > lo {
				covered += end - lo
				hi = end
			}
		}
		self[s.Span] = time.Duration(s.End - s.Start - covered)
	}
	return self
}

// selfByName sums self time and counts spans per "layer/name".
func selfByName(spans []span) (map[string]time.Duration, map[string]int) {
	self := selfTimes(spans)
	sum, n := make(map[string]time.Duration), make(map[string]int)
	for _, s := range spans {
		k := s.Layer + "/" + s.Name
		sum[k] += self[s.Span]
		n[k]++
	}
	return sum, n
}
