package telemetry

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func TestCounterAndHistogram(t *testing.T) {
	r := NewRegistry()
	r.Counter("a").Add(3)
	r.Counter("a").Add(2)
	r.Histogram("h").Observe(2 * time.Millisecond)
	r.Histogram("h").Observe(40 * time.Millisecond)

	s := r.Snapshot()
	if s.Counters["a"] != 5 {
		t.Fatalf("counter a = %d, want 5", s.Counters["a"])
	}
	h := s.Histograms["h"]
	if h.Count != 2 {
		t.Fatalf("hist count = %d, want 2", h.Count)
	}
	if h.MaxMS < 39 || h.MaxMS > 41 {
		t.Fatalf("hist max = %v, want ~40", h.MaxMS)
	}
	if h.Buckets["le_2500us"] != 1 || h.Buckets["le_50ms"] != 1 {
		t.Fatalf("unexpected buckets: %v", h.Buckets)
	}
}

// TestHistogramQuantile checks the bucket estimate `dlactl top` shows
// for fsync p50/p99, on the µs-scale ladder the fsync histogram uses.
func TestHistogramQuantile(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram(HistWALFsync)
	h.Observe(30 * time.Microsecond)  // le_50us
	h.Observe(700 * time.Microsecond) // le_1ms
	h.Observe(800 * time.Millisecond) // le_1000ms, the ladder's top finite bound
	h.Observe(2 * time.Second)        // +Inf
	s := r.Snapshot()
	// The p50 sample sits in the 1ms bucket; the p99 sample lies past
	// every finite bound and reports the last non-empty one.
	if q := s.Histograms[HistWALFsync].Quantile(0.5); q != 1 {
		t.Errorf("p50 = %v ms, want 1", q)
	}
	if q := s.Histograms[HistWALFsync].Quantile(0.99); q != 1000 {
		t.Errorf("p99 = %v ms, want last finite bound 1000", q)
	}
	if q := s.Histograms["no.such.histogram"].Quantile(0.5); !math.IsNaN(q) {
		t.Errorf("quantile of absent histogram = %v, want NaN", q)
	}
}

func TestDisabledRecordingIsNoop(t *testing.T) {
	r := NewRegistry()
	SetEnabled(false)
	defer SetEnabled(true)
	r.Counter("x").Add(1)
	r.Histogram("y").Observe(time.Millisecond)
	sp, _ := NewTracer().StartSpan(context.Background(), "s", "n", "op")
	if sp != nil {
		t.Fatal("StartSpan returned a live span while disabled")
	}
	sp.SetPeer("p").AddBytes(4).End(nil) // nil receiver must not panic
	s := r.Snapshot()
	if s.Counters["x"] != 0 || s.Histograms["y"].Count != 0 {
		t.Fatalf("disabled registry recorded: %+v", s)
	}
}

func TestSpanTreeAndSnapshot(t *testing.T) {
	tr := NewTracer()
	ctx := context.Background()
	root, ctx := tr.StartSpan(ctx, "q/u/1", "P0", "audit.query")
	child, cctx := tr.StartSpan(ctx, "q/u/1", "P0", "audit.parse_plan")
	child.End(nil)
	grand, _ := tr.StartSpan(cctx, "q/u/1", "P0", "never-ends")
	_ = grand // left open
	// A sub-session span from another actor files under the same root key.
	other, _ := tr.StartSpan(context.Background(), "q/u/1/sq0", "P1", "intersect.run")
	other.SetPeer("P2").SetChunk(1, 4).AddBytes(2048).SetCount(7)
	other.End(errors.New("boom"))
	root.End(context.DeadlineExceeded)

	v, ok := tr.Snapshot("q/u/1")
	if !ok {
		t.Fatal("no snapshot")
	}
	if v.Sessions != 2 {
		t.Fatalf("merged %d session keys, want 2", v.Sessions)
	}
	if len(v.Spans) != 2 {
		t.Fatalf("got %d roots, want 2", len(v.Spans))
	}
	var q, ir *SpanView
	for i := range v.Spans {
		switch v.Spans[i].Name {
		case "audit.query":
			q = &v.Spans[i]
		case "intersect.run":
			ir = &v.Spans[i]
		}
	}
	if q == nil || ir == nil {
		t.Fatalf("missing roots in %+v", v.Spans)
	}
	if q.Outcome != "timeout" {
		t.Fatalf("root outcome %q, want timeout", q.Outcome)
	}
	if len(q.Children) != 1 || q.Children[0].Name != "audit.parse_plan" {
		t.Fatalf("unexpected children: %+v", q.Children)
	}
	if len(q.Children[0].Children) != 1 || !q.Children[0].Children[0].Open {
		t.Fatalf("open grandchild not reported: %+v", q.Children[0].Children)
	}
	if ir.Peer != "P2" || ir.Seq != 1 || ir.Total != 4 || ir.Bytes != 2048 || ir.Count != 7 {
		t.Fatalf("attrs lost: %+v", ir)
	}
	if ir.Outcome != "error" {
		t.Fatalf("outcome %q, want error (message must not leak)", ir.Outcome)
	}

	// Prefix matching must respect the "/" boundary.
	if _, ok := tr.Snapshot("q/u"); ok {
		t.Fatal("bare prefix q/u should not match q/u/1")
	}
	out := FormatTree(v)
	for _, want := range []string{"audit.query", "intersect.run", "P1→P2", "2/4", "2.0KB", "n=7"} {
		if !strings.Contains(out, want) {
			t.Fatalf("FormatTree output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "boom") {
		t.Fatalf("error message leaked into render:\n%s", out)
	}
}

func TestSessionEviction(t *testing.T) {
	tr := NewTracer()
	for i := 0; i < maxSessions+10; i++ {
		sp, _ := tr.StartSpan(context.Background(), "s/"+itoa(int64(i)), "n", "op")
		sp.End(nil)
	}
	if got := len(tr.Sessions()); got != maxSessions {
		t.Fatalf("stored %d sessions, want %d", got, maxSessions)
	}
	if _, ok := tr.Snapshot("s/0"); ok {
		t.Fatal("oldest session should have been evicted")
	}
	if _, ok := tr.Snapshot("s/" + itoa(maxSessions+9)); !ok {
		t.Fatal("newest session missing")
	}
}

func TestSpanCap(t *testing.T) {
	tr := NewTracer()
	root, ctx := tr.StartSpan(context.Background(), "cap", "n", "root")
	for i := 0; i < maxSpansPerSession+5; i++ {
		sp, _ := tr.StartSpan(ctx, "cap", "n", "child")
		sp.End(nil)
	}
	root.End(nil)
	v, ok := tr.Snapshot("cap")
	if !ok {
		t.Fatal("no snapshot")
	}
	if v.Dropped != 6 { // root + cap-1 children stored; 5 extra + 1 at cap dropped
		t.Fatalf("dropped %d, want 6", v.Dropped)
	}
}

func TestHTTPEndpoints(t *testing.T) {
	M.Counter(CtrSent).Add(1)
	sp, _ := StartSpan(context.Background(), "http/1", "P0", "audit.query")
	sp.End(nil)

	mux := http.NewServeMux()
	Mount(mux)
	srv := httptest.NewServer(mux)
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/debug/dla/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var ms MetricsSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&ms); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close() //nolint:errcheck
	if ms.Counters[CtrSent] < 1 {
		t.Fatalf("metrics endpoint lost counter: %+v", ms.Counters)
	}

	resp, err = http.Get(srv.URL + "/debug/dla/trace/http/1")
	if err != nil {
		t.Fatal(err)
	}
	var tv TraceView
	if err := json.NewDecoder(resp.Body).Decode(&tv); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close() //nolint:errcheck
	if len(tv.Spans) != 1 || tv.Spans[0].Name != "audit.query" {
		t.Fatalf("trace endpoint: %+v", tv)
	}

	resp, err = http.Get(srv.URL + "/debug/dla/trace/definitely-unknown")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close() //nolint:errcheck
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown session status %d, want 404", resp.StatusCode)
	}

	// Every value is served once, as JSON: no text exposition and no
	// second projection of the ledger.
	for _, path := range []string{"/debug/dla/prom", "/debug/dla/conf"} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close() //nolint:errcheck
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("%s status %d, want 404", path, resp.StatusCode)
		}
	}
}
