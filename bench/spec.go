package main

import "time"

// runSeconds is the total measured time, over a run's repetitions, that
// the frozen operation counts are sized for on a 2-vCPU box; it equals
// BENCHMARK.json's run_seconds. -seconds rescales the window's counts
// (and the paced duration) proportionally, so the default run executes
// exactly the counts below.
const runSeconds = 15

// Appender options are the dlaload defaults.
const (
	appendBatch    = 128
	appendInflight = 4
	appendLinger   = 2 * time.Millisecond
)

// workloadSpec freezes the operation schedule of one repetition of a
// workload at scale 1; a run executes it Reps times, each on a fresh
// deployment, and set-up, window and verification are all per
// repetition. Every count is a
// fixed amount of work generated from -seed; only the paced workload has
// a fixed duration, because its schedule is a clock.
type workloadSpec struct {
	Name string
	Why  string
	Reps int

	TCP     bool // loopback TCP instead of memnet
	Durable bool // ClusterOptions.DataDir set
	Recover bool // after Close, redeploy over the DataDir and sweep for lost acks
	Base    int  // records preloaded before the window (ids A1..A200)
	Warm    int  // stream records appended during warm-up
	// WarmRounds suite rounds run during warm-up; on the mixed workload
	// they double as the writer-free reference for write_interference_x.
	WarmRounds int

	Stream    int // stream records (ids U1..U64) written inside the window
	Producers int // closed-loop producer sessions (0 = no closed-loop writer)
	PacedRPS  int // open-loop writer rate; Stream = PacedRPS × seconds paced
	Suite     string
	Rounds    int // closed-loop suite rounds (0 with PacedRPS: run beside the writer)
}

var workloads = []workloadSpec{
	{
		Name: "ingest-mem",
		Why: "memnet+memory, 8 repetitions of base 5000 then closed loop: 2 producers push 25000 stream records through Appenders; " +
			"no journal or TCP, so a journal or transport change must not move it",
		Reps: 8, Base: 5000, Warm: 1000, Stream: 25000, Producers: 2,
	},
	{
		Name: "ingest-durable",
		Why: "the same 8 x 25000-record closed-loop stream with DataDir, each then Close, redeploy and lost-ack sweep; " +
			"its distance from ingest-mem is the journal (encode, stage, fsync) and recovery",
		Durable: true, Recover: true,
		Reps: 8, Base: 5000, Warm: 1000, Stream: 25000, Producers: 2,
	},
	{
		Name: "audit-cross",
		Why: "memnet+memory, 4 repetitions of quiescent base 800, closed loop: 1 auditor runs 15 rounds of the nine-shape forensic suite; " +
			"commutative encryption and ring relay dominate, writes are absent",
		Reps: 4, Base: 800, WarmRounds: 2, Suite: "forensic", Rounds: 15,
	},
	{
		Name: "mixed-tcp-durable",
		Why: "loopback TCP+DataDir, 4 repetitions of base 10000: open-loop writer paced at 2000 rec/s for 4 s beside 1 closed-loop " +
			"auditor on the 4-shape monitor suite; reads contend with writes, sockets, a journal",
		TCP: true, Durable: true,
		Reps: 4, Base: 10000, Warm: 2000, WarmRounds: 5, PacedRPS: 2000, Stream: 2000 * 4, Suite: "monitor",
	},
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the gated metrics. The driver's contract wants every
// gated metric on every workload and never zero, so each is defined on
// all four; "op" is a record on the ingest workloads and a query on the
// audit and mixed workloads (README.md maps the issue's per-workload
// names onto them). The bounds are what a 2-vCPU shared box supports:
// two sets of ten runs of the same binary spread by 4-10 % on the time
// metrics and their medians drift by up to 9 % (NOISE.md), so a tighter
// gate would reject unchanged code.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower", 0.25},
	{"throughput_ops_s", "1/s", "higher", 0.25},
	{"latency_ms", "ms", "lower", 0.25},
	{"cpu_us_per_op", "us", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.15},
}

var forensicShapes = []string{"local", "conj2", "conj3", "union", "not", "crosseq", "crosscmp", "aggsum", "certified"}
var monitorShapes = []string{"eq", "conj-small", "union-small", "aggcount"}

// perLayer are informational: never gated, zero on a workload that
// does not exercise the layer (which is the "no move expected there"
// prediction made visible).
var perLayer = buildPerLayer()

func buildPerLayer() []metricSpec {
	m := []metricSpec{
		// driver: what the harness itself observes around facade calls.
		{Name: "driver.append_call_us", Unit: "us", Better: "lower"},
		{Name: "driver.ack_wait_p50_ms", Unit: "ms", Better: "lower"},
		{Name: "driver.ack_p99_ms", Unit: "ms", Better: "lower"},
		{Name: "driver.ingest_rps", Unit: "rec/s", Better: "higher"},
		{Name: "driver.round_p50_ms", Unit: "ms", Better: "lower"},
		{Name: "driver.round_p90_ms", Unit: "ms", Better: "lower"},
		{Name: "driver.pacer_late_p99_ms", Unit: "ms", Better: "lower"},
		{Name: "driver.ingest_decile_first_rps", Unit: "rec/s", Better: "higher"},
		{Name: "driver.ingest_decile_last_rps", Unit: "rec/s", Better: "higher"},
		{Name: "driver.monitor_quiet_round_ms", Unit: "ms", Better: "lower"},
		{Name: "driver.write_interference_x", Unit: "x", Better: "lower"},
		{Name: "driver.calib_modexp_ms", Unit: "ms", Better: "lower"},
		{Name: "driver.calib_memcpy_ms", Unit: "ms", Better: "lower"},
		{Name: "driver.trace_overhead_frac", Unit: "frac", Better: "lower"},
		{Name: "driver.unattributed_frac.ingest", Unit: "frac", Better: "lower"},
		{Name: "driver.unattributed_frac.audit", Unit: "frac", Better: "lower"},
		// pkg/dla: facade calls.
		{Name: "dla.deploy_s", Unit: "s", Better: "lower"},
		{Name: "dla.connect_ms", Unit: "ms", Better: "lower"},
		{Name: "dla.preload_s", Unit: "s", Better: "lower"},
		{Name: "dla.warmup_s", Unit: "s", Better: "lower"},
		{Name: "dla.close_s", Unit: "s", Better: "lower"},
		{Name: "dla.verify_result_us", Unit: "us", Better: "lower"},
		{Name: "dla.read_us", Unit: "us", Better: "lower"},
	}
	for _, s := range append(append([]string(nil), forensicShapes...), monitorShapes...) {
		m = append(m, metricSpec{Name: "dla.query_p50_ms." + s, Unit: "ms", Better: "lower"})
	}
	return append(m,
		// client-side cost of a record.
		metricSpec{Name: "logmodel.split_us_per_record", Unit: "us", Better: "lower"},
		metricSpec{Name: "logmodel.canonical_us_per_record", Unit: "us", Better: "lower"},
		metricSpec{Name: "ticket.issue_verify_us", Unit: "us", Better: "lower"},
		metricSpec{Name: "accumulator.digest_exp_us_per_record", Unit: "us", Better: "lower"},
		metricSpec{Name: "accumulator.powx0_us", Unit: "us", Better: "lower"},
		// cluster: snapshot-diff of the public telemetry.M registry.
		metricSpec{Name: "cluster.records_per_batch_mean", Unit: "count", Better: "higher"},
		metricSpec{Name: "cluster.batches_per_krecord", Unit: "count", Better: "lower"},
		metricSpec{Name: "cluster.seal_wait_mean_ms", Unit: "ms", Better: "lower"},
		metricSpec{Name: "cluster.reserve_range_mean_ms", Unit: "ms", Better: "lower"},
		metricSpec{Name: "cluster.store_rtt_mean_ms", Unit: "ms", Better: "lower"},
		metricSpec{Name: "cluster.fanout_decode_mean_ms", Unit: "ms", Better: "lower"},
		metricSpec{Name: "cluster.ack_turnaround_mean_ms", Unit: "ms", Better: "lower"},
		metricSpec{Name: "cluster.resends", Unit: "count", Better: "lower"},
		metricSpec{Name: "cluster.overloads", Unit: "count", Better: "lower"},
		// cluster journal: same registry plus file sizes.
		metricSpec{Name: "journal.encode_mean_ms", Unit: "ms", Better: "lower"},
		metricSpec{Name: "journal.stage_mean_ms", Unit: "ms", Better: "lower"},
		metricSpec{Name: "journal.fsync_mean_ms", Unit: "ms", Better: "lower"},
		metricSpec{Name: "journal.fsyncs_per_krecord", Unit: "count", Better: "lower"},
		metricSpec{Name: "journal.bytes_per_record", Unit: "B", Better: "lower"},
		metricSpec{Name: "journal.recovery_s", Unit: "s", Better: "lower"},
		metricSpec{Name: "journal.replay_us_per_record", Unit: "us", Better: "lower"},
		// storage: the other journal, probed directly.
		metricSpec{Name: "storage.append_us_per_record", Unit: "us", Better: "lower"},
		metricSpec{Name: "storage.sync_ms", Unit: "ms", Better: "lower"},
		metricSpec{Name: "storage.replay_us_per_record", Unit: "us", Better: "lower"},
		metricSpec{Name: "storage.bytes_per_record", Unit: "B", Better: "lower"},
		// transport: mailbox ping-pong probes and the sent counters.
		metricSpec{Name: "transport.memnet_rtt_us.1k", Unit: "us", Better: "lower"},
		metricSpec{Name: "transport.memnet_rtt_us.64k", Unit: "us", Better: "lower"},
		metricSpec{Name: "transport.tcp_rtt_us.1k", Unit: "us", Better: "lower"},
		metricSpec{Name: "transport.tcp_rtt_us.64k", Unit: "us", Better: "lower"},
		metricSpec{Name: "transport.msgs_per_record", Unit: "count", Better: "lower"},
		metricSpec{Name: "transport.bytes_per_record", Unit: "B", Better: "lower"},
		metricSpec{Name: "transport.msgs_per_query", Unit: "count", Better: "lower"},
		metricSpec{Name: "transport.bytes_per_query", Unit: "B", Better: "lower"},
		// query / audit.
		metricSpec{Name: "query.parse_normalize_us", Unit: "us", Better: "lower"},
		metricSpec{Name: "query.classify_us", Unit: "us", Better: "lower"},
		metricSpec{Name: "audit.centralized_round_ms", Unit: "ms", Better: "lower"},
		metricSpec{Name: "audit.overhead_x", Unit: "x", Better: "lower"},
		metricSpec{Name: "audit.mismatches", Unit: "count", Better: "lower"},
		metricSpec{Name: "audit.degraded", Unit: "count", Better: "lower"},
		// smc / crypto.commutative / mathx.
		metricSpec{Name: "smc.intersect2_ms", Unit: "ms", Better: "lower"},
		metricSpec{Name: "smc.intersect3_ms", Unit: "ms", Better: "lower"},
		metricSpec{Name: "smc.union2_ms", Unit: "ms", Better: "lower"},
		metricSpec{Name: "smc.compare_batch_ms", Unit: "ms", Better: "lower"},
		metricSpec{Name: "smc.sum_ms", Unit: "ms", Better: "lower"},
		metricSpec{Name: "smc.relay_chunks_per_query", Unit: "count", Better: "lower"},
		metricSpec{Name: "commutative.encrypt_us_per_block", Unit: "us", Better: "lower"},
		metricSpec{Name: "commutative.decrypt_us_per_block", Unit: "us", Better: "lower"},
		metricSpec{Name: "commutative.blocks_per_query", Unit: "count", Better: "lower"},
		metricSpec{Name: "mathx.modexp768_us", Unit: "us", Better: "lower"},
		metricSpec{Name: "mathx.fixedbase768_us", Unit: "us", Better: "lower"},
		// runtime.
		metricSpec{Name: "runtime.mallocs_per_record", Unit: "count", Better: "lower"},
		metricSpec{Name: "runtime.alloc_kb_per_record", Unit: "KB", Better: "lower"},
		metricSpec{Name: "runtime.mallocs_per_query", Unit: "count", Better: "lower"},
		metricSpec{Name: "runtime.alloc_kb_per_query", Unit: "KB", Better: "lower"},
		metricSpec{Name: "runtime.gc_cycles", Unit: "count", Better: "lower"},
		metricSpec{Name: "runtime.gc_pause_total_ms", Unit: "ms", Better: "lower"},
		metricSpec{Name: "runtime.heap_live_mb_end", Unit: "MB", Better: "lower"},
	)
}

func workloadByName(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

// scaled multiplies every count by scale (the smoke test's 0.01) and the
// window's counts by window as well (-seconds over runSeconds), leaving
// the base log and warm-up as they are when only the window stretches.
// Floors keep a tiny run meaningful: whole batches, and enough rounds
// for a median.
func (w workloadSpec) scaled(scale, window float64) workloadSpec {
	sc := func(n int, f float64, floor int) int {
		if n == 0 {
			return 0
		}
		return max(int(float64(n)*f+0.5), floor)
	}
	w.Base = sc(w.Base, scale, 40)
	w.Warm = sc(w.Warm, scale, appendBatch)
	w.WarmRounds = sc(w.WarmRounds, min(scale, 1), 1)
	w.Stream = sc(w.Stream, scale*window, 2*appendBatch)
	w.Rounds = sc(w.Rounds, scale*window, 4)
	return w
}
