package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"confaudit/internal/telemetry"
)

// TestTopFrameRestartedNodeShowsNoRate drives topFrame against a node
// whose served record counter is below the previous frame's sample, as
// after a restart between frames: the REC/S column must show "-", not
// a negative rate.
func TestTopFrameRestartedNodeShowsNoRate(t *testing.T) {
	served := telemetry.MetricsSnapshot{Counters: map[string]int64{telemetry.CtrStoreRecords: 10}}
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/dla/metrics", func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(served) //nolint:errcheck
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()
	addr := strings.TrimPrefix(srv.URL, "http://")

	prev := map[string]topSample{addr: {
		snap: telemetry.MetricsSnapshot{Counters: map[string]int64{telemetry.CtrStoreRecords: 5000}},
		at:   time.Now().Add(-time.Second),
	}}
	var out strings.Builder
	if _, err := topFrame(&out, []string{addr}, prev); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("want a header and one row:\n%s", out.String())
	}
	row := strings.Fields(lines[1])
	if row[0] != addr {
		t.Fatalf("row is not for %s:\n%s", addr, out.String())
	}
	if rate := row[1]; rate != "-" {
		t.Errorf("REC/S after a counter reset = %q, want -:\n%s", rate, out.String())
	}
}
