package main

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"confaudit/internal/logmodel"
	"confaudit/internal/telemetry"
	"confaudit/pkg/dla"
)

// Sentinel record content for the redaction sweep: nothing the ingest
// observability surface may legitimately emit contains a space or a
// '#', so any leak fails the substring checks below.
const (
	obsSecretUser  = "zzsecret ingest#1"
	obsSecretProto = "zzsecret ingest#2"
)

// TestObsIngestSmoke is the `make obs-ingest-smoke` gate: a 3-node
// durable cluster takes a streaming appender burst, then the whole
// ingest observability loop is asserted — non-zero stage histograms
// for every pipeline stage, ordered watermarks, a flight event
// retrievable over /debug/dla/flight and rendered by `dlactl flight`,
// and a `dlactl top` frame with one row per node — with a redaction
// sweep over everything an operator would read.
func TestObsIngestSmoke(t *testing.T) {
	telemetry.M.Reset()
	telemetry.F.Reset()
	t.Cleanup(telemetry.F.Reset)

	schema, err := logmodel.NewSchema([]logmodel.Attr{"user", "proto", "ratio"})
	if err != nil {
		t.Fatal(err)
	}
	part, err := logmodel.NewPartition(schema, []string{"N0", "N1", "N2"}, map[string][]logmodel.Attr{
		"N0": {"user"}, "N1": {"proto"}, "N2": {"ratio"},
	})
	if err != nil {
		t.Fatal(err)
	}
	// DataDir makes the nodes journal to the segment store, so the fsync
	// and encode/stage phase histograms record real work.
	cl, err := dla.Deploy(dla.ClusterOptions{Partition: part, DataDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close() //nolint:errcheck
	ctx, cancel := context.WithTimeout(context.Background(), 90*time.Second)
	defer cancel()
	s, err := dla.Connect(ctx, cl, dla.SessionConfig{ID: "obs-u", TicketID: "T-obs"})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close() //nolint:errcheck
	// Followers ask the leader once at start-up, possibly after Connect
	// returns; count from once every ask has landed.
	syncs := telemetry.M.Counter(telemetry.CtrSyncRequests)
	for deadline := time.Now().Add(5 * time.Second); syncs.Value() < int64(len(part.Nodes())-1); {
		if time.Now().After(deadline) {
			t.Fatalf("only %d start-up syncs counted", syncs.Value())
		}
		time.Sleep(time.Millisecond)
	}
	syncBase := syncs.Value()

	// A burst through the streaming path: small batches so several seal
	// / reserve / store rounds run, with sentinel content throughout.
	ap, err := s.Appender(ctx, dla.AppendOptions{MaxBatchRecords: 8, Linger: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	var acks []*dla.Ack
	for i := 0; i < 48; i++ {
		ack, err := ap.Append(ctx, map[dla.Attr]dla.Value{
			"user":  dla.String(obsSecretUser),
			"proto": dla.String(obsSecretProto),
			"ratio": dla.Float(float64(i)),
		})
		if err != nil {
			t.Fatal(err)
		}
		acks = append(acks, ack)
	}
	if err := ap.Close(ctx); err != nil {
		t.Fatal(err)
	}
	for i, ack := range acks {
		if _, err := ack.Wait(ctx); err != nil {
			t.Fatalf("append %d not acked: %v", i, err)
		}
	}

	// A fresh, healthy cluster never sends a follower to the leader for
	// missed grants, however far a pipelined burst runs ahead of its
	// commits.
	if n := telemetry.M.Counter(telemetry.CtrSyncRequests).Value() - syncBase; n != 0 {
		t.Errorf("%d catch-up syncs during a healthy appender burst", n)
	}

	// Every pipeline stage must have recorded observations: client-side
	// seal wait, glsn-range reservation, and per-round store RTT; node-
	// side fan-out decode and ack turnaround; journal encode/stage/fsync.
	snap := telemetry.M.Snapshot()
	for _, h := range []string{
		telemetry.HistIngestSealWait,
		telemetry.HistIngestReserve,
		telemetry.HistIngestStoreRTT,
		telemetry.HistIngestDecode,
		telemetry.HistIngestAckTurn,
		telemetry.HistWALEncode,
		telemetry.HistWALStage,
		telemetry.HistWALFsync,
	} {
		if hs, ok := snap.Histograms[h]; !ok || hs.Count < 1 {
			t.Errorf("stage histogram %s recorded nothing for the appender burst", h)
		}
	}
	// Watermarks must be ordered: a glsn is reserved before it is
	// durable, durable before the client counts it acked.
	reserved := snap.Gauges[telemetry.GaugeGLSNReserved]
	durable := snap.Gauges[telemetry.GaugeGLSNDurable]
	acked := snap.Gauges[telemetry.GaugeGLSNAcked]
	if !(reserved >= durable && durable >= acked && acked > 0) {
		t.Errorf("watermarks out of order: reserved=%d durable=%d acked=%d", reserved, durable, acked)
	}

	// A synthetic anomaly lands in the flight recorder the way a real
	// recording site would write it — schema fields only.
	telemetry.F.Record(telemetry.FlightEvent{
		Kind: telemetry.FlightFsyncStall, Node: "N1", DurMS: 142.5, Outcome: "ok",
	})

	// Three debug servers stand in for the three dlad -pprof ports (the
	// in-process deployment shares one registry, as documented on F/M).
	mux := http.NewServeMux()
	telemetry.Mount(mux)
	var targets []string
	for i := 0; i < 3; i++ {
		srv := httptest.NewServer(mux)
		defer srv.Close()
		targets = append(targets, strings.TrimPrefix(srv.URL, "http://"))
	}

	// The event is reachable over the raw endpoint...
	var flightBody json.RawMessage
	if err := getJSON("http://"+targets[0]+"/debug/dla/flight", &flightBody); err != nil {
		t.Fatal(err)
	}
	var fsnap telemetry.FlightSnapshot
	if err := json.Unmarshal(flightBody, &fsnap); err != nil {
		t.Fatalf("/debug/dla/flight is not a FlightSnapshot: %v", err)
	}
	if len(fsnap.Events) < 1 {
		t.Fatal("/debug/dla/flight returned no events")
	}

	// ...and through the `dlactl flight -addrs` fan-out and renderer.
	var flightOut strings.Builder
	if err := fetchClusterFlight(&flightOut, targets, time.Time{}, false); err != nil {
		t.Fatal(err)
	}
	flightText := flightOut.String()
	t.Logf("dlactl flight:\n%s", flightText)
	if !strings.Contains(flightText, telemetry.FlightFsyncStall) {
		t.Errorf("flight output missing the recorded %s event:\n%s", telemetry.FlightFsyncStall, flightText)
	}
	if !strings.Contains(flightText, "142.50") {
		t.Errorf("flight output missing the event duration:\n%s", flightText)
	}

	// `dlactl top`: one row per polled node, and a second frame so the
	// rate column exercises the counter delta path.
	var topOut strings.Builder
	prev, err := topFrame(&topOut, targets, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := topFrame(&topOut, targets, prev); err != nil {
		t.Fatal(err)
	}
	topText := topOut.String()
	t.Logf("dlactl top (two frames):\n%s", topText)
	for _, a := range targets {
		if got := strings.Count(topText, a); got != 2 {
			t.Errorf("top frames mention node %s %d times, want one row per frame:\n%s", a, got, topText)
		}
	}
	if strings.Count(topText, "NODE") != 2 {
		t.Errorf("expected two table headers:\n%s", topText)
	}

	// Redaction sweep: nothing an operator reads — the flight JSON, the
	// rendered flight timeline, the top table, the served metrics
	// snapshot top reads — may carry record content.
	var metricsBody json.RawMessage
	if err := getJSON("http://"+targets[0]+"/debug/dla/metrics", &metricsBody); err != nil {
		t.Fatal(err)
	}
	for i, surface := range []string{string(flightBody), flightText, topText, string(metricsBody)} {
		for _, leak := range []string{obsSecretUser, obsSecretProto, "zzsecret", "ingest#"} {
			if strings.Contains(surface, leak) {
				t.Errorf("ingest observability surface %d leaks %q:\n%.2000s", i, leak, surface)
			}
		}
	}
}
