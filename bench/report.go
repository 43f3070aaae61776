package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"runtime"
	"sort"

	"confaudit/internal/telemetry"
)

// runRecord describes the box and the build a result came from, so
// artifacts of different PRs can be laid side by side. It describes;
// nothing in it is ever used to rescale a metric.
type runRecord struct {
	Workload   string         `json:"workload"`
	Seed       uint64         `json:"seed"`
	Scale      float64        `json:"scale"`
	Seconds    float64        `json:"seconds"`
	NProc      int            `json:"nproc"`
	GOMAXPROCS int            `json:"gomaxprocs"`
	GoVersion  string         `json:"go_version"`
	Commit     string         `json:"commit"`
	Transport  string         `json:"transport"`
	Journal    string         `json:"journal"`
	Schedule   string         `json:"schedule_sha256"`
	Calib      [2]calibration `json:"calibration_start_end"`
}

func (r *runResult) record(seed uint64, scale, seconds float64) runRecord {
	transport := "memnet"
	if r.w.TCP {
		transport = "tcp-loopback"
	}
	return runRecord{
		Workload: r.w.Name, Seed: seed, Scale: scale, Seconds: seconds,
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Commit: commitID, Transport: transport, Journal: r.reps[0].journal,
		Schedule: r.sched.digest(), Calib: r.calib,
	}
}

// commitID is stamped by run.sh (-ldflags -X) when the checkout is a git
// repository; the driver's checkout is not one.
var commitID = "unknown"

// quietest is the mean of the fastest tenth of xs (at least one).
// The units it is given are repeats of the same work — the rounds of a
// suite, or whole repetitions of an ingest window — and interference on
// a shared box only ever adds time, so the fast tail estimates what the
// work costs when the box is left alone; the mean of a tenth rather than
// the minimum keeps one lucky unit from deciding the run.
func quietest(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return mean(s[:max(len(s)/10, 1)])
}

// pooled concatenates a per-sample series over the repetitions.
func (r *runResult) pooled(of func(*pass) []float64) []float64 {
	var out []float64
	for _, p := range r.reps {
		out = append(out, of(p)...)
	}
	return out
}

// across is the median over the repetitions of a per-repetition figure.
func (r *runResult) across(of func(*pass) float64) float64 { return median(r.perRep(of)) }

// perRep is one figure from every repetition.
func (r *runResult) perRep(of func(*pass) float64) []float64 {
	xs := make([]float64, len(r.reps))
	for i, p := range r.reps {
		xs[i] = of(p)
	}
	return xs
}

// endToEndValues are the gated metrics, from the untraced repetitions
// alone. An "op" is a record on the ingest workloads and a query on the
// audit and mixed workloads. Every time is the quietest tenth of its
// units: whole repetitions for an ingest window (so every garbage
// collection and all log growth is inside the unit); where there is an
// auditor, the queries of one shape pooled over the repetitions, summed
// over the suite's shapes into one pass; and the twenty per-segment
// median ack latencies of each repetition beside the paced writer. The
// run is incorrect if any operation failed, so failed operations need no
// separate treatment here.
func (r *runResult) endToEndValues() map[string]float64 {
	var unitOps, wallMs, cpuUs, latMs float64
	if r.w.Suite == "" {
		unitOps = float64(len(r.sched.Stream))
		wallMs = quietest(r.perRep(func(p *pass) float64 { return ms(p.ing.wall) }))
		cpuUs = quietest(r.perRep(func(p *pass) float64 { return float64(p.d.cpu().Microseconds()) }))
		latMs = quietest(r.perRep(func(p *pass) float64 { return percentile(p.ing.ackMs, 0.5) }))
	} else {
		// One pass of the suite, shape by shape: a single query fits inside
		// a quiet moment of the box far more often than a whole round does.
		unitOps = float64(len(r.sched.Rounds[0]))
		for _, q := range r.sched.Rounds[0] {
			wallMs += quietest(r.pooled(func(p *pass) []float64 { return p.aud.shapeMs[q.Shape] }))
			cpuUs += quietest(r.pooled(func(p *pass) []float64 { return p.aud.shapeCPU[q.Shape] }))
		}
		latMs = wallMs
		if r.w.PacedRPS > 0 {
			latMs = quietest(r.pooled(func(p *pass) []float64 { return p.ing.segAckP50 }))
		}
	}
	return map[string]float64{
		"setup_s":          median(phaseTotals(r.setups)),
		"throughput_ops_s": unitOps / (wallMs / 1e3),
		"latency_ms":       latMs,
		"cpu_us_per_op":    cpuUs / unitOps,
		"peak_rss_mb":      r.peakRSS,
	}
}

// medianPhases is the repetition whose set-up total is the (upper)
// median, so its four phases sum to a total that really occurred.
func medianPhases(ps []phases) phases {
	s := append([]phases(nil), ps...)
	sort.Slice(s, func(i, j int) bool { return s[i].total() < s[j].total() })
	return s[len(s)/2]
}

func phaseTotals(ps []phases) []float64 {
	out := make([]float64, len(ps))
	for i, p := range ps {
		out[i] = p.total().Seconds()
	}
	return out
}

// budgetRow is one attributed line of a per-operation CPU budget.
type budgetRow struct {
	what string
	us   float64
}

// budget explains the CPU one operation cost as probe × multiplicity
// rows plus node-side stage sums from telemetry; what the rows do not
// cover is the unattributed remainder, printed rather than hidden.
type budget struct {
	per   string
	total float64 // measured process CPU µs per operation
	rows  []budgetRow
}

func (b budget) unattributed() float64 {
	left := b.total
	for _, r := range b.rows {
		left -= r.us
	}
	return left
}

func (b budget) unattributedFrac() float64 {
	if b.total <= 0 {
		return 0
	}
	return b.unattributed() / b.total
}

// oneWayUS is the transport probe's cost of moving one small message.
func (r *runResult) oneWayUS() float64 {
	if r.w.TCP {
		return r.probes["transport.tcp_rtt_us.1k"] / 2
	}
	return r.probes["transport.memnet_rtt_us.1k"] / 2
}

// sides sums, over the repetitions, the stretches in which only records
// or only queries moved.
func (r *runResult) sides() (ing, aud sides) {
	for _, p := range r.reps {
		ing, aud = append(ing, p.ingSide), append(aud, p.audSide)
	}
	return ing, aud
}

// sides is one side over every repetition; its figures are per
// operation over all of them.
type sides []side

func (ss sides) ops() float64 {
	n := 0
	for _, s := range ss {
		n += s.ops
	}
	return float64(n)
}

// per sums f over the repetitions and divides by their operations.
func (ss sides) per(f func(delta) float64) float64 {
	n := ss.ops()
	if n == 0 {
		return 0
	}
	t := 0.0
	for _, s := range ss {
		if s.ops > 0 {
			t += f(s.d)
		}
	}
	return t / n
}

func (ss sides) perCounter(name string) float64 {
	return ss.per(func(d delta) float64 { return d.counter(name) })
}

// perHistUS is a stage histogram's total time per operation, µs.
func (ss sides) perHistUS(name string) float64 {
	return ss.per(func(d delta) float64 { return d.histSumMS(name) * 1e3 })
}

func (r *runResult) budgets() (ingest, audit budget) {
	ing, aud := r.sides()
	if ing.ops() > 0 {
		msgs := ing.perCounter(telemetry.CtrSent)
		ingest = budget{per: "record", total: ing.per(func(d delta) float64 { return float64(d.cpu().Microseconds()) }), rows: []budgetRow{
			{"logmodel.split x 1", r.probes["logmodel.split_us_per_record"]},
			{"logmodel.canonical x 1", r.probes["logmodel.canonical_us_per_record"]},
			{"accumulator.digest_exp x 1", r.probes["accumulator.digest_exp_us_per_record"]},
			{fmt.Sprintf("transport one-way x %.3f msgs", msgs), msgs * r.oneWayUS()},
			{"cluster.fanout_decode (all nodes)", ing.perHistUS(telemetry.HistIngestDecode)},
			{"journal.encode (all nodes)", ing.perHistUS(telemetry.HistWALEncode)},
			{"journal.stage (all nodes)", ing.perHistUS(telemetry.HistWALStage)},
		}}
	}
	if aud.ops() > 0 {
		msgs, blocks := aud.perCounter(telemetry.CtrSent), r.blocksPerQuery()
		verifyUs := r.pooled(func(p *pass) []float64 { return p.aud.verifyUs })
		verifies := float64(len(verifyUs)) / total(r.perRep(func(p *pass) float64 { return float64(len(p.aud.outcomes)) }))
		audit = budget{per: "query", total: aud.per(func(d delta) float64 { return float64(d.cpu().Microseconds()) }), rows: []budgetRow{
			{"query.parse_normalize+classify x 1", r.probes["query.parse_normalize_us"] + r.probes["query.classify_us"]},
			{fmt.Sprintf("commutative.encrypt x %.1f blocks", blocks), blocks * r.probes["commutative.encrypt_us_per_block"]},
			{fmt.Sprintf("transport one-way x %.1f msgs", msgs), msgs * r.oneWayUS()},
			{fmt.Sprintf("dla.VerifyResult x %.3f", verifies), verifies * mean(verifyUs)},
		}}
	}
	return ingest, audit
}

// blocksPerQuery is how many cipher blocks one query relayed: every
// relayed block was encrypted once by the hop that forwarded it.
func (r *runResult) blocksPerQuery() float64 {
	_, aud := r.sides()
	const blockBytes = (768 + 7) / 8 // Oakley-768, the deployment default
	return aud.perCounter(telemetry.CtrRelayBytes) / blockBytes
}

// windowMs is what a repetition's window took: start to last ack when
// it writes, else its rounds.
func windowMs(p *pass) float64 {
	if p.ing != nil {
		return ms(p.ing.wall)
	}
	return total(p.aud.roundMs)
}

// traceOverhead compares the traced repetition's window with the median
// untraced one. Beside the paced writer the window is a clock, so the
// auditor's rounds are compared instead.
func (r *runResult) traceOverhead() float64 {
	of := windowMs
	if r.w.PacedRPS > 0 {
		of = func(p *pass) float64 { return percentile(p.aud.roundMs, 0.5) }
	}
	if base := r.across(of); base > 0 {
		return of(r.traced)/base - 1
	}
	return 0
}

// perLayerValues are the informational metrics: the untraced
// repetitions' driver, facade, telemetry and runtime numbers, the
// probes, and the two figures only the traced repetition yields.
// Latency percentiles pool the repetitions' samples; per-operation
// counts divide sums over all repetitions; one-per-repetition figures
// are the median repetition's.
func (r *runResult) perLayerValues() map[string]float64 {
	m := make(map[string]float64, len(perLayer))
	for k, v := range r.probes {
		m[k] = v
	}
	m["driver.calib_modexp_ms"] = (r.calib[0].ModexpMS + r.calib[1].ModexpMS) / 2
	m["driver.calib_memcpy_ms"] = (r.calib[0].MemcpyMS + r.calib[1].MemcpyMS) / 2
	m["driver.trace_overhead_frac"] = r.traceOverhead()
	ib, ab := r.budgets()
	m["driver.unattributed_frac.ingest"] = ib.unattributedFrac()
	m["driver.unattributed_frac.audit"] = ab.unattributedFrac()

	setup := medianPhases(r.setups)
	m["dla.deploy_s"] = setup.deploy.Seconds()
	m["dla.connect_ms"] = ms(setup.connect)
	m["dla.preload_s"] = setup.preload.Seconds()
	m["dla.warmup_s"] = setup.warmup.Seconds()
	m["dla.close_s"] = r.across(func(p *pass) float64 { return p.closeS })
	m["dla.read_us"] = r.across(func(p *pass) float64 { return p.readUs })

	if r.reps[0].ing != nil {
		ing := func(of func(*ingestResult) []float64) []float64 {
			return r.pooled(func(p *pass) []float64 { return of(p.ing) })
		}
		m["driver.append_call_us"] = r.across(func(p *pass) float64 { return p.ing.appendUs })
		m["driver.ack_wait_p50_ms"] = percentile(ing(func(g *ingestResult) []float64 { return g.waitMs }), 0.5)
		m["driver.ack_p99_ms"] = percentile(ing(func(g *ingestResult) []float64 { return g.ackMs }), 0.99)
		m["driver.pacer_late_p99_ms"] = percentile(ing(func(g *ingestResult) []float64 { return g.lateMs }), 0.99)
		m["driver.ingest_rps"] = r.across(func(p *pass) float64 { return float64(len(p.ing.acked)) / p.ing.wall.Seconds() })
		perTenth, tenth := float64(len(r.sched.Stream))/10, segments/10
		m["driver.ingest_decile_first_rps"] = r.across(func(p *pass) float64 { return perTenth / (total(p.ing.segMs[:tenth]) / 1e3) })
		m["driver.ingest_decile_last_rps"] = r.across(func(p *pass) float64 { return perTenth / (total(p.ing.segMs[segments-tenth:]) / 1e3) })
	}
	if r.reps[0].aud != nil {
		rounds := r.pooled(func(p *pass) []float64 { return p.aud.roundMs })
		m["driver.round_p50_ms"] = percentile(rounds, 0.5)
		m["driver.round_p90_ms"] = percentile(rounds, 0.9)
		m["dla.verify_result_us"] = mean(r.pooled(func(p *pass) []float64 { return p.aud.verifyUs }))
		for _, shape := range append(append([]string(nil), forensicShapes...), monitorShapes...) {
			m["dla.query_p50_ms."+shape] = percentile(r.pooled(func(p *pass) []float64 { return p.aud.shapeMs[shape] }), 0.5)
		}
		if c := r.probes["audit.centralized_round_ms"]; c > 0 {
			m["audit.overhead_x"] = m["driver.round_p50_ms"] / c
		}
		if r.w.Suite == "monitor" {
			m["driver.monitor_quiet_round_ms"] = percentile(r.pooled(func(p *pass) []float64 { return p.quietRoundMs }), 0.5)
			m["driver.write_interference_x"] = m["driver.round_p50_ms"] / m["driver.monitor_quiet_round_ms"]
		}
	}
	for _, p := range r.reps {
		m["audit.mismatches"] += float64(p.window.mismatched + p.quiet.mismatched)
		m["audit.degraded"] += float64(p.window.degraded + p.quiet.degraded)
	}

	ing, aud := r.sides()
	if ing.ops() > 0 {
		m["transport.msgs_per_record"] = ing.perCounter(telemetry.CtrSent)
		m["transport.bytes_per_record"] = ing.perCounter(telemetry.CtrSentBytes)
		m["runtime.mallocs_per_record"] = ing.per(delta.mallocs)
		m["runtime.alloc_kb_per_record"] = ing.per(delta.allocKB)
	}
	if aud.ops() > 0 {
		m["transport.msgs_per_query"] = aud.perCounter(telemetry.CtrSent)
		m["transport.bytes_per_query"] = aud.perCounter(telemetry.CtrSentBytes)
		m["runtime.mallocs_per_query"] = aud.per(delta.mallocs)
		m["runtime.alloc_kb_per_query"] = aud.per(delta.allocKB)
		m["smc.relay_chunks_per_query"] = aud.per(func(d delta) float64 { return d.histCount(telemetry.HistRelayChunk) })
		m["commutative.blocks_per_query"] = r.blocksPerQuery()
	}
	// Batch shape, stage means and journal counts are over the windows
	// themselves: that is where linger, group commit and contention show,
	// and these registry entries move with records only.
	var win sides
	for _, p := range r.reps {
		n := 0
		if p.ing != nil {
			n = len(p.ing.acked)
		}
		win = append(win, side{p.d, n})
	}
	histMean := func(name string) float64 {
		n, t := 0.0, 0.0
		for _, s := range win {
			n, t = n+s.d.histCount(name), t+s.d.histSumMS(name)
		}
		if n == 0 {
			return 0
		}
		return t / n
	}
	windows := func(f func(delta) float64) float64 {
		t := 0.0
		for _, s := range win {
			t += f(s.d)
		}
		return t
	}
	if b := windows(func(d delta) float64 { return d.counter(telemetry.CtrIngestBatches) }); b > 0 {
		m["cluster.records_per_batch_mean"] = windows(func(d delta) float64 { return d.counter(telemetry.CtrIngestAppends) }) / b
		m["cluster.batches_per_krecord"] = 1000 * win.perCounter(telemetry.CtrIngestBatches)
		m["journal.fsyncs_per_krecord"] = 1000 * win.per(func(d delta) float64 { return d.histCount(telemetry.HistWALFsync) })
	}
	m["cluster.seal_wait_mean_ms"] = histMean(telemetry.HistIngestSealWait)
	m["cluster.reserve_range_mean_ms"] = histMean(telemetry.HistIngestReserve)
	m["cluster.store_rtt_mean_ms"] = histMean(telemetry.HistIngestStoreRTT)
	m["cluster.fanout_decode_mean_ms"] = histMean(telemetry.HistIngestDecode)
	m["cluster.ack_turnaround_mean_ms"] = histMean(telemetry.HistIngestAckTurn)
	m["cluster.resends"] = windows(func(d delta) float64 { return d.counter(telemetry.CtrRetries) })
	m["cluster.overloads"] = windows(func(d delta) float64 {
		return d.counter(telemetry.CtrIngestRetries) + d.counter(telemetry.CtrAdmissionRejected)
	})
	m["journal.encode_mean_ms"] = histMean(telemetry.HistWALEncode)
	m["journal.stage_mean_ms"] = histMean(telemetry.HistWALStage)
	m["journal.fsync_mean_ms"] = histMean(telemetry.HistWALFsync)
	m["journal.bytes_per_record"] = r.across(func(p *pass) float64 { return float64(p.journalBytes) / float64(max(p.journaled, 1)) })
	m["journal.recovery_s"] = r.across(func(p *pass) float64 { return p.recoveryS })
	m["journal.replay_us_per_record"] = r.across(func(p *pass) float64 { return p.recoveryS * 1e6 / float64(max(p.journaled, 1)) })
	m["runtime.gc_cycles"] = windows(func(d delta) float64 { return float64(d.b.mem.NumGC - d.a.mem.NumGC) })
	m["runtime.gc_pause_total_ms"] = windows(func(d delta) float64 { return float64(d.b.mem.PauseTotalNs-d.a.mem.PauseTotalNs) / 1e6 })
	m["runtime.heap_live_mb_end"] = r.across(func(p *pass) float64 { return float64(p.d.b.mem.HeapAlloc) / (1 << 20) })
	return m
}

// resultLine is the contract's last line of standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// line builds the result line: every end-to-end metric untraced, every
// per-layer metric traced. A layer the workload does not exercise
// reports 0.
func (r *runResult) line(trace bool) (resultLine, error) {
	passes := r.reps
	if trace {
		passes = append(append([]*pass(nil), passes...), r.traced)
	}
	attempted, failed := 0, 0
	for _, p := range passes {
		attempted, failed = attempted+p.attempted, failed+p.failed
	}
	if failed > 0 { // the per-position series are only complete on a clean run
		return resultLine{Attempted: attempted, Failed: failed}, nil
	}
	specs, vals := endToEnd, r.endToEndValues()
	if trace {
		specs, vals = perLayer, r.perLayerValues()
	}
	out := resultLine{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: make(map[string]metricValue, len(specs))}
	for _, s := range specs {
		v := vals[s.Name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return out, fmt.Errorf("metric %s is not finite", s.Name)
		}
		out.Metrics[s.Name] = metricValue{Value: v, Unit: s.Unit}
	}
	return out, nil
}

// print writes the human-readable report that precedes the result line.
func (r *runResult) print(w io.Writer, rec runRecord, line resultLine, trace bool) {
	buf, _ := json.Marshal(rec) //nolint:errcheck // plain struct
	fmt.Fprintf(w, "run %s\n", buf)
	fmt.Fprintf(w, "workload %s: %d repetitions, attempted %d, failed %d\n", r.w.Name, len(r.reps), line.Attempted, line.Failed)
	for _, p := range append(append([]*pass(nil), r.reps...), r.traced) {
		if p != nil && p.firstErr != nil {
			fmt.Fprintf(w, "first failure: %v\n", p.firstErr)
		}
	}
	fmt.Fprintf(w, "per repetition: set-up s / window ms:")
	for i, p := range r.reps {
		fmt.Fprintf(w, " %.3f/%.0f", r.setups[i].total().Seconds(), windowMs(p))
	}
	fmt.Fprintln(w)
	specs := endToEnd
	if trace {
		specs = perLayer
	}
	for _, s := range specs {
		fmt.Fprintf(w, "  %-40s %14.4f %s\n", s.Name, line.Metrics[s.Name].Value, s.Unit)
	}
	if !trace || line.Failed > 0 {
		return
	}
	n := float64(len(r.sched.Stream))
	if r.traced.aud != nil {
		n = float64(len(r.traced.aud.outcomes))
	}
	sum, cnt := selfByName(r.spans)
	keys := make([]string, 0, len(sum))
	for k := range sum {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Fprintf(w, "traced repetition: %d spans, %.0f operations; self time by layer/call\n", len(r.spans), n)
	for _, k := range keys {
		fmt.Fprintf(w, "  %-36s %8d spans %12.3f ms self %10.2f us/op\n", k, cnt[k], ms(sum[k]), float64(sum[k])/1e3/n)
	}
	ib, ab := r.budgets()
	for _, b := range []budget{ib, ab} {
		if b.total <= 0 {
			continue
		}
		fmt.Fprintf(w, "CPU budget per %s: %.2f us measured\n", b.per, b.total)
		for _, row := range b.rows {
			fmt.Fprintf(w, "  %-44s %12.2f us %6.1f%%\n", row.what, row.us, 100*row.us/b.total)
		}
		fmt.Fprintf(w, "  %-44s %12.2f us %6.1f%%\n", "unattributed (apply, index, set algebra, GC)", b.unattributed(), 100*b.unattributedFrac())
	}
}
