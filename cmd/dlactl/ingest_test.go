package main

import (
	"context"
	"crypto/rand"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"confaudit/internal/chaos"
	"confaudit/internal/cluster"
	"confaudit/internal/ticket"
	"confaudit/internal/workload"
)

// TestIngestStatus drives the `dlactl ingest status` path end to end:
// a cluster with admission bounds takes a few writes, a debug server
// exposes one node's AdmissionStatus the way dlad does, and the fetch
// and render code must report the configured bounds and a non-zero
// admitted count — plus the disabled rendering for a node without
// bounds.
func TestIngestStatus(t *testing.T) {
	cc, err := chaos.New(rand.Reader, chaos.Options{
		Nodes: 3,
		Seed:  1,
		Admission: cluster.AdmissionConfig{
			RecordsPerSec:    10_000,
			MaxInflightBytes: 1 << 20,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := cc.StartAll(); err != nil {
		t.Fatal(err)
	}
	defer cc.StopAll()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	cl, err := cc.NewClient(ctx, "ing-u", "T-ing", ticket.OpWrite)
	if err != nil {
		t.Fatal(err)
	}
	events := workload.New(1).Transactions(cc.Schema, 8, 4)
	if _, err := cl.LogBatch(ctx, events); err != nil {
		t.Fatal(err)
	}

	node := cc.Node(cc.Boot.Roster[0])
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/dla/ingest", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(node.AdmissionStatus()) //nolint:errcheck
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()

	// A second "node" with no admission bounds configured.
	off := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(cluster.AdmissionStatus{}) //nolint:errcheck
	}))
	defer off.Close()

	var out strings.Builder
	targets := []string{
		strings.TrimPrefix(srv.URL, "http://"),
		strings.TrimPrefix(off.URL, "http://"),
	}
	if err := fetchIngestStatus(&out, targets, false); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	t.Logf("ingest status:\n%s", got)
	for _, want := range []string{"admitted=1", "rate: 10000 records/sec", "inflight: 0/1048576 bytes", "admission disabled"} {
		if !strings.Contains(got, want) {
			t.Fatalf("ingest status output missing %q:\n%s", want, got)
		}
	}

	var js strings.Builder
	if err := fetchIngestStatus(&js, targets[:1], true); err != nil {
		t.Fatal(err)
	}
	var st cluster.AdmissionStatus
	if err := json.Unmarshal([]byte(js.String()), &st); err != nil {
		t.Fatalf("-json output is not an AdmissionStatus: %v\n%s", err, js.String())
	}
	if !st.Enabled || st.Admitted < 1 {
		t.Fatalf("unexpected status over JSON: %+v", st)
	}
}
