// Package telemetry is the DLA system's zero-plaintext observability
// layer: counters, latency histograms, and span-style protocol-round
// traces keyed by session ID.
//
// Confidentiality contract. A distributed-trust deployment is only
// trustworthy if operators can observe its behavior WITHOUT seeing the
// data it protects. Everything this package records is drawn from the
// "secondary information" the paper's relaxed confidentiality model
// (Definition 1) already concedes — set sizes, message counts, round
// boundaries, timings, peer identities — and nothing else:
//
//   - span and metric names are compile-time protocol constants;
//   - span attributes are restricted to a fixed schema (peer node ID,
//     chunk Seq/Total, byte counts, element counts, an outcome flag);
//   - attribute values, canonical index keys, criteria strings, and
//     ciphertext bytes have no field to land in, and errors are reduced
//     to a coarse class (see ErrClass) before recording.
//
// The redaction test in redaction_test.go drives a full multi-node
// conjunction query and asserts no plaintext appears anywhere in the
// emitted snapshot.
//
// Cost contract. Instrumentation sits on hot paths (per relay chunk,
// per journal commit), so every record is a few atomic operations or one
// short mutex hold; when telemetry is disabled (SetEnabled(false)) the
// fast path is a single atomic load and span methods are no-ops on a
// nil receiver.
package telemetry

import (
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// enabled gates all recording. Default on: overhead is negligible next
// to the big-integer crypto on every instrumented path.
var enabled atomic.Bool

func init() { enabled.Store(true) }

// SetEnabled turns recording on or off process-wide. Disabling does not
// clear already-recorded data.
func SetEnabled(on bool) { enabled.Store(on) }

// Enabled reports whether recording is on.
func Enabled() bool { return enabled.Load() }

// defaultBounds are the default histogram upper bounds in milliseconds,
// roughly exponential from sub-millisecond protocol rounds to the
// multi-second quorum timeouts. The last bucket is +Inf.
var defaultBounds = []float64{0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000, 10000}

// microBounds serve the write-pipeline stage histograms: fsync, seal
// wait, and per-phase group-commit timings land in single-digit
// microseconds on fast hardware, where the default ms-tuned bounds
// would collapse everything into the bottom bucket. 5µs up to 1s.
var microBounds = []float64{0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 25, 50, 100, 250, 500, 1000}

// Counter is a monotonically increasing count.
type Counter struct {
	n atomic.Int64
}

// Add increments the counter by delta.
func (c *Counter) Add(delta int64) {
	if c == nil || !enabled.Load() {
		return
	}
	c.n.Add(delta)
}

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.n.Load()
}

// Gauge is an instantaneous level (pool occupancy, queue depth). Unlike
// Counter it can move both ways; Set is the usual write, Add adjusts.
type Gauge struct {
	v atomic.Int64
}

// Set records the current level.
func (g *Gauge) Set(v int64) {
	if g == nil || !enabled.Load() {
		return
	}
	g.v.Store(v)
}

// Add adjusts the level by delta.
func (g *Gauge) Add(delta int64) {
	if g == nil || !enabled.Load() {
		return
	}
	g.v.Add(delta)
}

// Value returns the current level.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Max ratchets the gauge up to v, never down — the watermark write.
// Concurrent batches complete out of glsn order, so a plain Set would
// let a straggler drag the high-water mark backwards.
func (g *Gauge) Max(v int64) {
	if g == nil || !enabled.Load() {
		return
	}
	for {
		cur := g.v.Load()
		if v <= cur || g.v.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Histogram is a latency distribution with exponential buckets. Bounds
// are fixed at construction: defaultBounds unless the name is claimed
// by a µs-scale stage histogram (see boundsFor).
type Histogram struct {
	count   atomic.Int64
	sumUS   atomic.Int64 // microseconds, to keep Add integral
	maxUS   atomic.Int64
	bounds  []float64 // upper bounds in ms, ascending
	buckets []atomic.Int64
}

func newHistogram(bounds []float64) *Histogram {
	return &Histogram{bounds: bounds, buckets: make([]atomic.Int64, len(bounds)+1)}
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	if h == nil || !enabled.Load() {
		return
	}
	us := d.Microseconds()
	h.count.Add(1)
	h.sumUS.Add(us)
	for {
		cur := h.maxUS.Load()
		if us <= cur || h.maxUS.CompareAndSwap(cur, us) {
			break
		}
	}
	ms := float64(us) / 1000
	for i, bound := range h.bounds {
		if ms <= bound {
			h.buckets[i].Add(1)
			return
		}
	}
	h.buckets[len(h.bounds)].Add(1)
}

// Since observes the elapsed time from start; the usual defer pattern:
//
//	defer telemetry.M.Histogram(telemetry.HistAuditQuery).Since(time.Now())
func (h *Histogram) Since(start time.Time) { h.Observe(time.Since(start)) }

// HistogramSnapshot is one histogram's exported state.
type HistogramSnapshot struct {
	Count   int64            `json:"count"`
	SumMS   float64          `json:"sum_ms"`
	MeanMS  float64          `json:"mean_ms"`
	MaxMS   float64          `json:"max_ms"`
	Buckets map[string]int64 `json:"buckets,omitempty"`
}

func (h *Histogram) snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Count: h.count.Load(),
		SumMS: float64(h.sumUS.Load()) / 1000,
		MaxMS: float64(h.maxUS.Load()) / 1000,
	}
	if s.Count > 0 {
		s.MeanMS = s.SumMS / float64(s.Count)
	}
	s.Buckets = make(map[string]int64, len(h.bounds)+1)
	for i, bound := range h.bounds {
		if n := h.buckets[i].Load(); n > 0 {
			s.Buckets["le_"+formatBound(bound)] = n
		}
	}
	if n := h.buckets[len(h.bounds)].Load(); n > 0 {
		s.Buckets["le_inf"] = n
	}
	return s
}

func formatBound(b float64) string {
	if b == float64(int64(b)) {
		return itoa(int64(b)) + "ms"
	}
	// Sub-millisecond bounds render in microseconds (0.25 -> 250us).
	return itoa(int64(b*1000)) + "us"
}

// parseBound is formatBound's inverse: it reads a bucket key
// ("le_250us", "le_5ms", "le_inf") back into its upper bound in ms.
func parseBound(key string) float64 {
	s := strings.TrimPrefix(key, "le_")
	switch {
	case s == "inf":
		return math.Inf(1)
	case strings.HasSuffix(s, "us"):
		n, _ := strconv.ParseFloat(strings.TrimSuffix(s, "us"), 64)
		return n / 1000
	default:
		n, _ := strconv.ParseFloat(strings.TrimSuffix(s, "ms"), 64)
		return n
	}
}

// Quantile estimates the q-quantile (0 < q ≤ 1) in milliseconds as the
// upper bound of the bucket the quantile falls in — the usual coarse
// bucket estimate. A quantile landing in the +Inf bucket returns the
// last non-empty finite bound (the tail exceeded the range); an empty
// histogram returns NaN.
func (s HistogramSnapshot) Quantile(q float64) float64 {
	type bucket struct {
		le float64
		n  int64
	}
	buckets := make([]bucket, 0, len(s.Buckets))
	var total int64
	for k, n := range s.Buckets {
		buckets = append(buckets, bucket{parseBound(k), n})
		total += n
	}
	if total == 0 {
		return math.NaN()
	}
	sort.Slice(buckets, func(i, j int) bool { return buckets[i].le < buckets[j].le })
	rank := q * float64(total)
	lastFinite, cum := math.NaN(), int64(0)
	for _, b := range buckets {
		cum += b.n
		if math.IsInf(b.le, 1) {
			break // only the +Inf bucket is left: report the tail's floor
		}
		lastFinite = b.le
		if float64(cum) >= rank {
			return b.le
		}
	}
	return lastFinite
}

func itoa(n int64) string {
	if n == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

// Registry holds named counters and histograms. Metric names must be
// compile-time constants (enforced by convention and the redaction
// test): a name is the only free-form string a metric carries.
type Registry struct {
	mu     sync.RWMutex
	ctrs   map[string]*Counter
	hists  map[string]*Histogram
	gauges map[string]*Gauge
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		ctrs:   make(map[string]*Counter),
		hists:  make(map[string]*Histogram),
		gauges: make(map[string]*Gauge),
	}
}

// M is the process-wide default registry. One DLA node per process
// (dlad) reads as per-node metrics; multi-node test deployments share
// it, which the cluster-wide counters are defined to tolerate.
var M = NewRegistry()

// Counter returns (creating if needed) the named counter.
func (r *Registry) Counter(name string) *Counter {
	r.mu.RLock()
	c, ok := r.ctrs[name]
	r.mu.RUnlock()
	if ok {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok = r.ctrs[name]; ok {
		return c
	}
	c = &Counter{}
	r.ctrs[name] = c
	return c
}

// microHists names the histograms that get µs-scale bounds. The
// per-peer store-round histograms derive from HistIngestStoreRTT by
// suffixing the peer node ID, so boundsFor also matches that prefix.
var microHists = map[string]bool{
	HistWALEncode:      true,
	HistWALStage:       true,
	HistWALFsync:       true,
	HistGrantWait:      true,
	HistIngestSealWait: true,
	HistIngestReserve:  true,
	HistIngestStoreRTT: true,
	HistIngestDecode:   true,
	HistIngestAckTurn:  true,
}

// boundsFor picks the bucket bounds for a histogram name at creation.
func boundsFor(name string) []float64 {
	if microHists[name] || strings.HasPrefix(name, HistIngestStoreRTT+".") {
		return microBounds
	}
	return defaultBounds
}

// Histogram returns (creating if needed) the named histogram.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.RLock()
	h, ok := r.hists[name]
	r.mu.RUnlock()
	if ok {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok = r.hists[name]; ok {
		return h
	}
	h = newHistogram(boundsFor(name))
	r.hists[name] = h
	return h
}

// Gauge returns (creating if needed) the named gauge.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.RLock()
	g, ok := r.gauges[name]
	r.mu.RUnlock()
	if ok {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g, ok = r.gauges[name]; ok {
		return g
	}
	g = &Gauge{}
	r.gauges[name] = g
	return g
}

// MetricsSnapshot is the registry's exported state.
type MetricsSnapshot struct {
	Counters   map[string]int64             `json:"counters"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
	Gauges     map[string]int64             `json:"gauges,omitempty"`
}

// Snapshot exports every metric.
func (r *Registry) Snapshot() MetricsSnapshot {
	r.mu.RLock()
	defer r.mu.RUnlock()
	s := MetricsSnapshot{
		Counters:   make(map[string]int64, len(r.ctrs)),
		Histograms: make(map[string]HistogramSnapshot, len(r.hists)),
		Gauges:     make(map[string]int64, len(r.gauges)),
	}
	for name, c := range r.ctrs {
		s.Counters[name] = c.Value()
	}
	for name, h := range r.hists {
		s.Histograms[name] = h.snapshot()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Value()
	}
	return s
}

// Reset drops every metric (tests).
func (r *Registry) Reset() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.ctrs = make(map[string]*Counter)
	r.hists = make(map[string]*Histogram)
	r.gauges = make(map[string]*Gauge)
}

// Metric names. Keeping them in one block makes the zero-plaintext
// review trivial: these constants, plus the per-message-type transport
// names derived from protocol constants, are the only metric names the
// system emits.
const (
	// Write path.
	HistClientLogBatch = "cluster.client.log_batch"  // client LogBatch round trip
	HistClientGLSN     = "cluster.client.glsn_round" // sequencer agreement round trip
	HistQuorumRound    = "cluster.node.quorum_round" // leader propose→commit
	HistGrantWait      = "cluster.node.grant_wait"   // store waiting on its grant
	CtrRecordsLogged   = "cluster.client.records"    // records written via Log/LogBatch
	CtrStoreBatches    = "cluster.node.store_batches"

	// Sequencer catch-up. A follower that missed a commit asks the
	// leader for the grants past its state: sync_requests counts those
	// asks (follower side), sync_ranges the grant ranges the leader
	// shipped back. Past a restarted follower's one start-up ask, a
	// healthy cluster keeps both at zero.
	CtrSyncRequests = "cluster.sync_requests"
	CtrSyncRanges   = "cluster.sync_ranges"

	// Audit path.
	HistAuditQuery    = "audit.query"      // coordinator: whole query
	HistAuditPlan     = "audit.parse_plan" // coordinator: parse+normalize+classify
	HistAuditDispatch = "audit.dispatch"   // coordinator: plan fan-out
	HistAuditExec     = "audit.exec"       // executor: all local roles
	HistRelayChunk    = "smc.relay_chunk"  // one ring-relay chunk re-encrypt+forward
	HistIntersectRun  = "smc.intersect.run"
	HistUnionRun      = "smc.union.run"
	CtrSubqueries     = "audit.subqueries"
	CtrRelayBytes     = "smc.relay_bytes"

	// Resilience.
	CtrRetries       = "resilience.retries"        // send re-attempts after a failure
	CtrBreakerTrips  = "resilience.breaker_trips"  // closed/half-open → open transitions
	CtrBreakerDenied = "resilience.breaker_denied" // fast-fails while open
	CtrOutboxSpooled = "cluster.outbox.spooled"
	CtrOutboxReplay  = "cluster.outbox.replayed"

	// Transport (aggregate; per-type counters derive from protocol
	// message-type constants via SentTo/Received).
	CtrSent      = "transport.sent"
	CtrSentBytes = "transport.sent_bytes"
	CtrRecv      = "transport.recv"
	CtrRecvBytes = "transport.recv_bytes"

	// Wire codec. codec_bytes_sent counts bytes framed by the binary
	// encodings (envelopes on TCP, packed relay blocks on any
	// transport) — sizes only, Definition 1 secondary information.
	CtrCodecBytesSent = "transport.codec_bytes_sent"

	// Binary ingest plane. ingest_fanout_batches counts durable
	// node-side store batches whose journal encode fanned over the shared
	// worker pool; binary_records counts binary journal records encoded
	// for the segment store. Sizes and counts only —
	// Definition 1 secondary information.
	CtrIngestFanout     = "cluster.ingest_fanout_batches"
	CtrWALBinaryRecords = "wal.binary_records"

	// Worker pool: gauge of workers currently executing a crypto batch.
	GaugeWorkpoolBusy = "workpool.busy"

	// Tracer bookkeeping. spans_dropped counts spans refused by the
	// per-session cap; sessions_evicted counts completed sessions pushed
	// out by the FIFO bound. Both were previously internal-only; an
	// operator watching a busy node needs them to know when a trace is
	// partial.
	CtrSpansDropped    = "trace.spans_dropped"
	CtrSessionsEvicted = "trace.sessions_evicted"

	// Leak ledger: alarms tripped by a querier exceeding its configured
	// leak budget (see ledger.go).
	CtrLeakAlarms = "leak.alarms"

	// Durable storage engine. Counts only; no record contents, kinds, or
	// glsn values ever reach a metric name or value.
	CtrStorageFsync       = "storage.fsync"                // fsyncs issued by the segment store
	CtrStorageRotations   = "storage.segment_rotations"    // active-segment seals
	CtrStorageCheckpoints = "storage.checkpoints"          // accumulator checkpoints written
	CtrStorageQuarantined = "storage.quarantined_segments" // segments refused by recovery

	// Streaming ingestion front end. Client side: appends staged into the
	// Appender, acks resolved (OK or error), batches dispatched, and the
	// reason each staged batch sealed (count bound, byte bound, linger
	// timer, explicit Flush/Close). Node side: batches admitted by or
	// refused at the admission boundary. Queue-depth gauges expose the
	// staged/inflight levels. Counts and sizes only — Definition 1
	// secondary information; record contents never reach a metric.
	// Write-pipeline stage histograms (µs-scale bounds, see microHists).
	// Each names one stage of a record's journey from Append to ack:
	// seal wait (staging open → batch sealed), glsn-range reservation
	// round, store-round RTT (aggregate plus per-peer via the
	// ".<node>" suffix — node IDs are Definition 1 peer identities),
	// node-side fan-out decode of a binary store-batch frame, node ack
	// turnaround (frame receipt → ack sent), and the journal group-commit
	// phases: record encode, in-order stage, and the fsync itself.
	HistIngestSealWait = "ingest.seal_wait"
	HistIngestReserve  = "ingest.reserve_range"
	HistIngestStoreRTT = "ingest.store_rtt"
	HistIngestDecode   = "ingest.fanout_decode"
	HistIngestAckTurn  = "ingest.ack_turnaround"
	HistWALEncode      = "wal.encode"
	HistWALStage       = "wal.stage"
	HistWALFsync       = "wal.fsync"

	// Ingest watermarks: highest glsn reserved by the sequencer grant
	// path, highest glsn journaled durable, highest glsn acked back to
	// an appender. reserved ≥ durable ≥ acked at every instant; the
	// reserved−durable gap is the pipeline's in-flight lag. Ratcheted
	// with Gauge.Max, values are glsn positions — counts only.
	GaugeGLSNReserved = "ingest.glsn_reserved"
	GaugeGLSNDurable  = "ingest.glsn_durable"
	GaugeGLSNAcked    = "ingest.glsn_acked"

	// Node-side stored-record count (store_batches counts frames; this
	// counts the records inside them, the numerator for ingest rate).
	CtrStoreRecords = "cluster.node.store_records"

	// Flight recorder (flight.go): anomaly events recorded and events
	// evicted from the bounded ring before being read.
	CtrFlightEvents  = "flight.events"
	CtrFlightDropped = "flight.dropped"

	CtrIngestAppends     = "ingest.appends"
	CtrIngestAcks        = "ingest.acks"
	CtrIngestBatches     = "ingest.batches"
	CtrIngestFlushSize   = "ingest.flush_reason_size"
	CtrIngestFlushBytes  = "ingest.flush_reason_bytes"
	CtrIngestFlushLinger = "ingest.flush_reason_linger"
	CtrIngestFlushDrain  = "ingest.flush_reason_drain"
	CtrIngestRetries     = "ingest.overload_retries"
	CtrIngestDropped     = "ingest.dropped"
	GaugeIngestStaged    = "ingest.staged_records"
	GaugeIngestInflight  = "ingest.inflight_batches"
	CtrAdmissionAdmitted = "ingest.admitted"
	CtrAdmissionRejected = "ingest.overload_rejections"
	GaugeAdmissionBytes  = "ingest.inflight_bytes"
	GaugeAdmissionTokens = "ingest.admission_tokens"

	// Fixed-base tables and overlapped relay. fixedbase_hits and
	// fixedbase_misses count first-hop blocks served from a table and
	// blocks that fell back to big.Int.Exp, so the hit rate is
	// hits/(hits+misses); overlap_stalls counts relay sends that had to
	// wait on the crypto producer (crypto time not hidden by network
	// time); witness_updates counts store items installed with their
	// digest exponent, from which circulation and provenance derive the
	// record digest, on the fragment write path (the name predates items
	// dropping the witness exponent).
	// All are counts only — Definition 1 secondary information.
	CtrFixedBaseHits   = "crypto.fixedbase_hits"
	CtrFixedBaseMisses = "crypto.fixedbase_misses"
	CtrOverlapStalls   = "smc.overlap_stalls"
	CtrWitnessUpdates  = "integrity.witness_updates"
)

// SentTo records one outbound message of the given protocol type and
// payload size on the default registry.
func SentTo(msgType string, payloadBytes int) {
	if !enabled.Load() {
		return
	}
	M.Counter(CtrSent).Add(1)
	M.Counter(CtrSentBytes).Add(int64(payloadBytes))
	M.Counter(CtrSent + "." + msgType).Add(1)
}

// Received records one inbound message of the given protocol type and
// payload size on the default registry.
func Received(msgType string, payloadBytes int) {
	if !enabled.Load() {
		return
	}
	M.Counter(CtrRecv).Add(1)
	M.Counter(CtrRecvBytes).Add(int64(payloadBytes))
	M.Counter(CtrRecv + "." + msgType).Add(1)
}
