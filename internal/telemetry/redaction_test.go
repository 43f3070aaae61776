package telemetry_test

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"
	"time"

	"confaudit/internal/logmodel"
	"confaudit/internal/telemetry"
	"confaudit/pkg/dla"
)

// Sentinel attribute values. Deliberately outside the character set the
// telemetry schema can legitimately emit, so a leak anywhere in the
// observability surface fails both the substring and the whitelist
// check below.
const (
	secretUser  = "zzsecret alpha#7"
	secretProto = "zzsecret beta!"
	secretRatio = 987654.25
)

// safeString is everything telemetry may legitimately emit: metric
// names, span names, node/session IDs, outcome classes, histogram
// bucket labels, RFC3339 timestamps. No spaces, no NULs, nothing long
// enough to be a ciphertext block.
var safeString = regexp.MustCompile(`^[0-9A-Za-z._/:+-]{0,64}$`)

// TestRedactionFullQuery drives a full 3-node conjunction query —
// write path, plan/dispatch, ring-relay intersection — then scans every
// emitted counter label, histogram label, span field, and rendered
// trace line for the attribute values involved, their canonical index
// keys, and ciphertext-sized blobs. Definition 1 permits secondary
// information (sizes, counts, timings, peers); everything else must be
// absent.
func TestRedactionFullQuery(t *testing.T) {
	telemetry.M.Reset()
	telemetry.T.Reset()
	telemetry.L.Reset()

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
	cl, err := dla.Deploy(dla.ClusterOptions{Partition: part})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close() //nolint:errcheck
	ctx, cancel := context.WithTimeout(context.Background(), 90*time.Second)
	defer cancel()
	s, err := dla.Connect(ctx, cl, dla.SessionConfig{ID: "redact-u", TicketID: "T-redact"})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close() //nolint:errcheck

	records := []map[dla.Attr]dla.Value{
		{"user": dla.String(secretUser), "proto": dla.String(secretProto), "ratio": dla.Float(secretRatio)},
		{"user": dla.String(secretUser), "proto": dla.String("plain"), "ratio": dla.Float(1)},
		{"user": dla.String("other"), "proto": dla.String(secretProto), "ratio": dla.Float(2)},
	}
	if _, err := s.LogBatch(ctx, records); err != nil {
		t.Fatal(err)
	}
	matches, err := s.Query(ctx, fmt.Sprintf("user = %q AND proto = %q", secretUser, secretProto))
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) != 1 {
		t.Fatalf("conjunction matched %d records, want 1", len(matches))
	}

	// Touch the worker-pool gauge so its name is on the surface even on
	// machines where the shared pool never spawns a worker (GOMAXPROCS
	// 1: callers run their batches inline).
	telemetry.M.Gauge(telemetry.GaugeWorkpoolBusy).Set(0)
	// The overlap-stall counter records only when the relay outpaces the
	// encryption stream, which is timing dependent; pin its name to the
	// surface regardless.
	telemetry.M.Counter(telemetry.CtrOverlapStalls).Add(0)
	// Same for the storage-engine counters: this deployment is
	// in-memory, so put their names on the surface explicitly and let
	// the sweep below prove the names themselves leak nothing.
	for _, ctr := range []string{
		telemetry.CtrStorageFsync,
		telemetry.CtrStorageRotations,
		telemetry.CtrStorageCheckpoints,
		telemetry.CtrStorageQuarantined,
	} {
		telemetry.M.Counter(ctr).Add(0)
	}
	// The streaming-ingest and admission metrics fire only on the
	// Appender path and only under configured admission bounds; pin every
	// name onto the surface so the sweep proves none of them can carry
	// record content.
	for _, ctr := range []string{
		telemetry.CtrIngestAppends,
		telemetry.CtrIngestAcks,
		telemetry.CtrIngestBatches,
		telemetry.CtrIngestFlushSize,
		telemetry.CtrIngestFlushBytes,
		telemetry.CtrIngestFlushLinger,
		telemetry.CtrIngestFlushDrain,
		telemetry.CtrIngestRetries,
		telemetry.CtrIngestDropped,
		telemetry.CtrAdmissionAdmitted,
		telemetry.CtrAdmissionRejected,
	} {
		telemetry.M.Counter(ctr).Add(0)
	}
	for _, g := range []string{
		telemetry.GaugeIngestStaged,
		telemetry.GaugeIngestInflight,
		telemetry.GaugeAdmissionBytes,
		telemetry.GaugeAdmissionTokens,
	} {
		telemetry.M.Gauge(g).Set(0)
	}
	// Binary ingest-plane counters: the fan-out and WAL-record counters
	// fire only on durable nodes with big batches, so pin their names
	// onto the surface here.
	telemetry.M.Counter(telemetry.CtrIngestFanout).Add(0)
	telemetry.M.Counter(telemetry.CtrWALBinaryRecords).Add(0)
	// Stage histograms and watermark gauges (PR 10). The WAL-phase and
	// appender-side stages fire only on durable deployments and the
	// streaming path; pin every name so the sweep proves the whole stage
	// vocabulary — including per-peer store_rtt series — carries nothing
	// but bucket labels and numbers.
	for _, h := range []string{
		telemetry.HistIngestSealWait,
		telemetry.HistIngestReserve,
		telemetry.HistIngestStoreRTT,
		telemetry.HistIngestStoreRTT + ".N0",
		telemetry.HistIngestDecode,
		telemetry.HistIngestAckTurn,
		telemetry.HistWALEncode,
		telemetry.HistWALStage,
		telemetry.HistWALFsync,
	} {
		telemetry.M.Histogram(h).Observe(0)
	}
	for _, g := range []string{
		telemetry.GaugeGLSNReserved,
		telemetry.GaugeGLSNDurable,
		telemetry.GaugeGLSNAcked,
	} {
		// Max, not Set: the write path above already ratcheted these and
		// the assertions below want the real watermarks.
		telemetry.M.Gauge(g).Max(0)
	}
	telemetry.M.Counter(telemetry.CtrStoreRecords).Add(0)
	// Catch-up counters fire only when a follower missed a commit, which
	// this healthy deployment never does; pin their names.
	telemetry.M.Counter(telemetry.CtrSyncRequests).Add(0)
	telemetry.M.Counter(telemetry.CtrSyncRanges).Add(0)
	// One synthetic flight event per schema field, outcome reduced with
	// ErrClass exactly as recording sites must; the /debug/dla/flight
	// body joins the sweep below.
	telemetry.F.Reset()
	defer telemetry.F.Reset()
	telemetry.F.Record(telemetry.FlightEvent{
		Kind: telemetry.FlightFsyncStall, Node: "N0", Peer: "N1",
		GLSN: 0x139aef78, Count: 3, DurMS: 123.5,
		Outcome: telemetry.ErrClass(context.DeadlineExceeded),
	})
	// A catch-up event as syncFromLeader records it: counts and glsns.
	telemetry.F.Record(telemetry.FlightEvent{
		Kind: telemetry.FlightSeqSync, Node: "N2", Peer: "N0",
		GLSN: 0x139aef79, Count: 2, Outcome: telemetry.ErrClass(nil),
	})

	// Gather the complete observability surface: the metrics snapshot,
	// every stored trace as JSON, and every rendered tree.
	var surface []string
	snap := telemetry.M.Snapshot()
	mj, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	surface = append(surface, string(mj))

	// The wire-codec volume counters must have recorded the relayed
	// ciphertext traffic — sizes only; the redaction checks below verify
	// nothing beyond the metric names and numbers reached the surface.
	if snap.Counters[telemetry.CtrCodecBytesSent] == 0 {
		t.Error("codec_bytes_sent recorded nothing for a ring-relay query")
	}
	if _, ok := snap.Gauges[telemetry.GaugeWorkpoolBusy]; !ok {
		t.Error("workpool busy gauge missing from the snapshot")
	}
	for _, ctr := range []string{
		telemetry.CtrStorageFsync,
		telemetry.CtrStorageRotations,
		telemetry.CtrStorageCheckpoints,
		telemetry.CtrStorageQuarantined,
	} {
		if _, ok := snap.Counters[ctr]; !ok {
			t.Errorf("storage counter %s missing from the snapshot", ctr)
		}
	}
	for _, ctr := range []string{
		telemetry.CtrIngestAppends,
		telemetry.CtrIngestDropped,
		telemetry.CtrAdmissionRejected,
	} {
		if _, ok := snap.Counters[ctr]; !ok {
			t.Errorf("ingest counter %s missing from the snapshot", ctr)
		}
	}
	// The crypto hot path must have recorded its work: table-served
	// first-hop blocks and misses behind the ring relay, and witness
	// installs behind the batch write.
	if snap.Counters[telemetry.CtrFixedBaseHits] == 0 {
		t.Error("fixedbase_hits recorded nothing for a ring-relay query")
	}
	if _, ok := snap.Counters[telemetry.CtrFixedBaseMisses]; !ok {
		t.Error("fixedbase_misses counter missing from the snapshot")
	}
	if snap.Counters[telemetry.CtrWitnessUpdates] == 0 {
		t.Error("witness_updates recorded nothing for a batch write")
	}
	if _, ok := snap.Counters[telemetry.CtrOverlapStalls]; !ok {
		t.Error("overlap_stalls counter missing from the snapshot")
	}
	for _, ctr := range []string{telemetry.CtrIngestFanout, telemetry.CtrWALBinaryRecords, telemetry.CtrSyncRequests, telemetry.CtrSyncRanges} {
		if _, ok := snap.Counters[ctr]; !ok {
			t.Errorf("ingest-plane counter %s missing from the snapshot", ctr)
		}
	}
	// The node-side stages fire on every store round, so this in-memory
	// deployment must have recorded real observations, not just the
	// pinned names.
	for _, h := range []string{telemetry.HistIngestDecode, telemetry.HistIngestAckTurn} {
		if hs, ok := snap.Histograms[h]; !ok || hs.Count < 1 {
			t.Errorf("stage histogram %s recorded nothing for a batched write", h)
		}
	}
	for _, g := range []string{telemetry.GaugeGLSNReserved, telemetry.GaugeGLSNDurable} {
		if snap.Gauges[g] == 0 {
			t.Errorf("watermark gauge %s still zero after a batched write", g)
		}
	}
	sessions := telemetry.T.Sessions()
	if len(sessions) == 0 {
		t.Fatal("no trace sessions recorded")
	}
	for _, sess := range sessions {
		view, ok := telemetry.Snapshot(sess)
		if !ok {
			t.Fatalf("session %q disappeared", sess)
		}
		tj, err := json.Marshal(view)
		if err != nil {
			t.Fatal(err)
		}
		surface = append(surface, string(tj), telemetry.FormatTree(view))
		// The cluster-wide merge consumes and produces the same SpanView
		// schema; sweep its output too (JSON and rendered).
		merged := telemetry.MergeViews(sess, []telemetry.TraceView{view})
		mjj, err := json.Marshal(merged)
		if err != nil {
			t.Fatal(err)
		}
		surface = append(surface, string(mjj), telemetry.FormatTree(merged))
	}

	// The leak ledger must have scored the query and recorded the
	// disclosed secondary information; its surfaces join the sweep.
	ledger := telemetry.L.Snapshot()
	if ledger.Queries == 0 {
		t.Error("leak ledger recorded no queries for an audited session")
	}
	surface = append(surface, telemetry.FormatLedger(ledger))

	// Sweep the debug HTTP endpoints exactly as an operator reads them.
	// Each value is served once, as JSON, so every body must be valid
	// JSON and fall under the structural whitelist below.
	mux := http.NewServeMux()
	telemetry.Mount(mux)
	srv := httptest.NewServer(mux)
	defer srv.Close()
	for _, path := range []string{"/debug/dla/leaks", "/debug/dla/metrics", "/debug/dla/flight"} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close() //nolint:errcheck
		if err != nil {
			t.Fatal(err)
		}
		if !json.Valid(body) {
			t.Errorf("%s served a body that is not JSON:\n%.2000s", path, body)
		}
		want := map[string][]string{
			"/debug/dla/metrics": {telemetry.CtrSyncRequests, telemetry.CtrSyncRanges},
			"/debug/dla/flight":  {telemetry.FlightSeqSync},
		}[path]
		for _, w := range want {
			if !strings.Contains(string(body), w) {
				t.Errorf("%s does not show %s", path, w)
			}
		}
		surface = append(surface, string(body))
	}

	leaks := []string{
		secretUser,
		secretProto,
		// Canonical index keys (cluster/index.go): class tag + NUL + value.
		"s\x00" + secretUser,
		"n\x00",
		"\x00",
		"\\u0000",
		"987654", // the numeric sentinel in any decimal rendering
	}
	for i, blob := range surface {
		for _, leak := range leaks {
			if strings.Contains(blob, leak) {
				t.Errorf("surface[%d] leaks %q:\n%.2000s", i, leak, blob)
			}
		}
	}

	// Structural whitelist: every string value in the JSON surface must
	// look like schema vocabulary — never free-form data, never a
	// ciphertext-sized blob.
	for _, blob := range surface {
		if !strings.HasPrefix(blob, "{") {
			continue // rendered trees use spaces/arrows; substring checks cover them
		}
		var v any
		if err := json.Unmarshal([]byte(blob), &v); err != nil {
			t.Fatal(err)
		}
		for _, str := range collectStrings(v, nil) {
			if !safeString.MatchString(str) {
				t.Errorf("non-schema string on the telemetry surface: %q", str)
			}
		}
	}
}

// collectStrings walks decoded JSON and returns every string value and
// every map key.
func collectStrings(v any, out []string) []string {
	switch x := v.(type) {
	case string:
		out = append(out, x)
	case []any:
		for _, e := range x {
			out = collectStrings(e, out)
		}
	case map[string]any:
		for k, e := range x {
			out = append(out, k)
			out = collectStrings(e, out)
		}
	}
	return out
}
