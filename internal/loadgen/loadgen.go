// Package loadgen is the load-generation engine behind cmd/dlaload: it
// drives a chaos-instrumented DLA cluster with a workload scenario at a
// sweep of offered loads, measures achieved throughput and ack-latency
// percentiles per point, runs the synchronous LogBatch baseline in the
// same process for an honest speedup figure, and — after an optional
// crash/restart cycle — audits every acked glsn against the surviving
// cluster so an acked-but-lost record can never go unnoticed.
package loadgen

import (
	"context"
	"crypto/rand"
	"fmt"
	"sort"
	"sync"
	"time"

	"confaudit/internal/audit"
	"confaudit/internal/chaos"
	"confaudit/internal/cluster"
	"confaudit/internal/logmodel"
	"confaudit/internal/ticket"
	"confaudit/internal/workload"
)

// Config parameterizes one load run.
type Config struct {
	// Scenario shapes the record stream, arrival process, and fault
	// injection (see workload.Scenarios).
	Scenario workload.Scenario
	// Nodes is the roster size (default 4).
	Nodes int
	// Producers is the number of concurrent appender sessions
	// (default 4).
	Producers int
	// Records is the record count per offered-load point (default 2000).
	Records int
	// Rates is the offered-load sweep in records/sec; 0 means unpaced
	// (as fast as backpressure admits). Default: {1000, 4000, 0}.
	Rates []float64
	// Seed makes the run reproducible.
	Seed uint64
	// Admission bounds every node's ingest admission.
	Admission cluster.AdmissionConfig
	// Append tunes the producers' appenders.
	Append cluster.AppendOptions
	// DataRoot enables per-node segment-store durability (required for
	// CrashNode).
	DataRoot string
	// CrashNode, when set, crashes that node once the first point is
	// halfway produced and restarts it after CrashPause — the
	// acked-record-loss audit then runs against the recovered cluster.
	CrashNode  string
	CrashPause time.Duration
	// BaselineBatch is the records-per-LogBatch of the synchronous
	// comparison run. The default (1) models the pre-Appender streaming
	// producer: each event is logged as it arrives and acked before the
	// next is offered — a producer without the Appender's staging buffer
	// cannot batch events that have not arrived yet. Raise it to model a
	// producer draining a pre-existing backlog.
	BaselineBatch int
	// SkipBaseline omits the synchronous comparison run.
	SkipBaseline bool
}

func (c Config) withDefaults() Config {
	if c.Nodes <= 0 {
		c.Nodes = 4
	}
	if c.Producers <= 0 {
		c.Producers = 4
	}
	if c.Records <= 0 {
		c.Records = 2000
	}
	if len(c.Rates) == 0 {
		c.Rates = []float64{1000, 4000, 0}
	}
	if c.CrashPause <= 0 {
		c.CrashPause = 300 * time.Millisecond
	}
	if c.BaselineBatch <= 0 {
		c.BaselineBatch = 1
	}
	return c
}

// Point is one offered-load measurement — a knee-of-curve row.
type Point struct {
	// OfferedRPS is the target arrival rate (0 = unpaced).
	OfferedRPS float64 `json:"offered_rps"`
	// AchievedRPS is acked records divided by wall time.
	AchievedRPS float64 `json:"achieved_rps"`
	// Acked and Failed partition the records by ack outcome.
	Acked  int `json:"acked"`
	Failed int `json:"failed"`
	// Latency percentiles over ack round trips, milliseconds.
	P50Ms float64 `json:"p50_ms"`
	P95Ms float64 `json:"p95_ms"`
	P99Ms float64 `json:"p99_ms"`
	MaxMs float64 `json:"max_ms"`
	// ElapsedMs is the point's wall time.
	ElapsedMs float64 `json:"elapsed_ms"`
}

// Report is a full run: the sweep, the baseline, and the loss audit.
type Report struct {
	Scenario  string  `json:"scenario"`
	Nodes     int     `json:"nodes"`
	Producers int     `json:"producers"`
	Records   int     `json:"records"`
	Points    []Point `json:"points"`
	// Baseline is the pre-appender write path measured in the same run:
	// one session calling LogBatch synchronously (BaselineBatch records
	// per round trip, default one — the log-per-event producer).
	Baseline *Point `json:"baseline,omitempty"`
	// Speedup is the best unpaced AchievedRPS over Baseline.AchievedRPS.
	Speedup float64 `json:"speedup,omitempty"`
	// Crashed names the node taken through a crash/restart cycle.
	Crashed string `json:"crashed,omitempty"`
	// LostAcks counts acked glsns missing a fragment on any node after
	// the run — MUST be zero; anything else is an ack-contract breach.
	LostAcks int `json:"lost_acks"`
	// Queries and QueryP95Ms cover the scenario's query fraction.
	Queries    int     `json:"queries,omitempty"`
	QueryP95Ms float64 `json:"query_p95_ms,omitempty"`
}

// Run executes the scenario sweep against a fresh in-process cluster.
func Run(ctx context.Context, cfg Config) (*Report, error) {
	cfg = cfg.withDefaults()
	cc, err := chaos.New(rand.Reader, chaos.Options{
		Nodes:     cfg.Nodes,
		Seed:      int64(cfg.Seed),
		Jitter:    cfg.Scenario.Jitter,
		DataRoot:  cfg.DataRoot,
		Admission: cfg.Admission,
	})
	if err != nil {
		return nil, err
	}
	if err := cc.StartAll(); err != nil {
		cc.StopAll()
		return nil, err
	}
	defer cc.StopAll()

	rep := &Report{
		Scenario:  cfg.Scenario.Name,
		Nodes:     cfg.Nodes,
		Producers: cfg.Producers,
		Records:   cfg.Records,
	}
	gen := workload.New(cfg.Seed)
	events := gen.ScenarioEvents(cc.Schema, cfg.Scenario, cfg.Records, 64)

	var acked []logmodel.GLSN
	for i, rate := range cfg.Rates {
		crash := cfg.CrashNode != "" && i == 0
		pt, glsns, err := runPoint(ctx, cc, cfg, events, rate, crash)
		if err != nil {
			return nil, fmt.Errorf("loadgen: point %v rps: %w", rate, err)
		}
		rep.Points = append(rep.Points, *pt)
		acked = append(acked, glsns...)
	}
	if cfg.CrashNode != "" {
		rep.Crashed = cfg.CrashNode
	}

	if !cfg.SkipBaseline {
		bl, glsns, err := runBaseline(ctx, cc, cfg, events)
		if err != nil {
			return nil, fmt.Errorf("loadgen: baseline: %w", err)
		}
		rep.Baseline = bl
		acked = append(acked, glsns...)
		best := 0.0
		for _, p := range rep.Points {
			if p.AchievedRPS > best {
				best = p.AchievedRPS
			}
		}
		if bl.AchievedRPS > 0 {
			rep.Speedup = best / bl.AchievedRPS
		}
	}

	if cfg.Scenario.WriteFrac < 1.0 {
		if err := runQueries(ctx, cc, cfg, rep); err != nil {
			return nil, fmt.Errorf("loadgen: queries: %w", err)
		}
	}

	// The loss audit: every acked glsn must hold a fragment on every
	// node — including the one that crashed and recovered.
	rep.LostAcks = countLostAcks(cc, acked)
	return rep, nil
}

// runPoint produces cfg.Records through cfg.Producers appenders at the
// offered rate, returning the measurement and every acked glsn.
func runPoint(ctx context.Context, cc *chaos.Cluster, cfg Config, events []map[logmodel.Attr]logmodel.Value, rate float64, crash bool) (*Point, []logmodel.GLSN, error) {
	type timedAck struct {
		ack *cluster.Ack
		t0  time.Time
	}
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		latency  []float64
		glsns    []logmodel.GLSN
		failed   int
		firstErr error
	)
	perProducer := (len(events) + cfg.Producers - 1) / cfg.Producers
	perRate := rate / float64(cfg.Producers)
	start := time.Now()
	for p := 0; p < cfg.Producers; p++ {
		lo := p * perProducer
		hi := min(lo+perProducer, len(events))
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(p int, recs []map[logmodel.Attr]logmodel.Value) {
			defer wg.Done()
			id := fmt.Sprintf("load-p%d-%d", p, time.Now().UnixNano())
			cl, mb, err := cc.NewClient(ctx, id, "T-"+id, ticket.OpWrite, ticket.OpRead)
			if err != nil {
				mu.Lock()
				if firstErr == nil {
					firstErr = err
				}
				failed += len(recs)
				mu.Unlock()
				return
			}
			defer mb.Close() //nolint:errcheck
			if err := cl.RegisterTicket(ctx); err != nil {
				mu.Lock()
				if firstErr == nil {
					firstErr = err
				}
				failed += len(recs)
				mu.Unlock()
				return
			}
			ap, err := cl.NewAppender(ctx, cfg.Append)
			if err != nil {
				mu.Lock()
				if firstErr == nil {
					firstErr = err
				}
				failed += len(recs)
				mu.Unlock()
				return
			}
			// The consumer resolves acks in append order a bounded
			// window behind the producer, stamping latencies.
			pending := make(chan timedAck, 8192)
			var consumer sync.WaitGroup
			consumer.Add(1)
			go func() {
				defer consumer.Done()
				lat := make([]float64, 0, len(recs))
				var got []logmodel.GLSN
				nfail := 0
				for ta := range pending {
					g, err := ta.ack.GLSN()
					if err != nil {
						nfail++
						continue
					}
					lat = append(lat, float64(time.Since(ta.t0).Microseconds())/1000.0)
					got = append(got, g)
				}
				mu.Lock()
				latency = append(latency, lat...)
				glsns = append(glsns, got...)
				failed += nfail
				mu.Unlock()
			}()
			interval := time.Duration(0)
			if perRate > 0 {
				interval = time.Duration(float64(time.Second) / perRate)
			}
			next := time.Now()
			for i, rec := range recs {
				if interval > 0 {
					// Paced arrivals; bursty scenarios bunch the pacing
					// budget into on/off cycles.
					if cfg.Scenario.BurstLen > 0 {
						if i%cfg.Scenario.BurstLen == 0 && i > 0 {
							idle := time.Duration(float64(cfg.Scenario.BurstLen) * float64(interval) * cfg.Scenario.IdleFrac)
							time.Sleep(idle)
							next = time.Now()
						}
					} else {
						if d := time.Until(next); d > 0 {
							time.Sleep(d)
						}
						next = next.Add(interval)
					}
				}
				t0 := time.Now()
				ack, err := ap.Append(ctx, rec)
				if err != nil {
					mu.Lock()
					failed++
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
					continue
				}
				pending <- timedAck{ack: ack, t0: t0}
			}
			if err := ap.Close(ctx); err != nil {
				mu.Lock()
				if firstErr == nil {
					firstErr = err
				}
				mu.Unlock()
			}
			close(pending)
			consumer.Wait()
		}(p, events[lo:hi])
	}
	if crash {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Take the node down mid-stream and bring it back; producer
			// retries ride out the gap and the journal replays on restart.
			time.Sleep(cfg.CrashPause)
			if err := cc.Crash(cfg.CrashNode); err != nil {
				mu.Lock()
				if firstErr == nil {
					firstErr = err
				}
				mu.Unlock()
				return
			}
			time.Sleep(cfg.CrashPause)
			if err := cc.Restart(cfg.CrashNode); err != nil {
				mu.Lock()
				if firstErr == nil {
					firstErr = err
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	if firstErr != nil && len(glsns) == 0 {
		return nil, nil, firstErr
	}
	pt := &Point{
		OfferedRPS: rate,
		Acked:      len(glsns),
		Failed:     failed,
		ElapsedMs:  float64(elapsed.Microseconds()) / 1000.0,
	}
	if elapsed > 0 {
		pt.AchievedRPS = float64(len(glsns)) / elapsed.Seconds()
	}
	pt.P50Ms, pt.P95Ms, pt.P99Ms, pt.MaxMs = percentiles(latency)
	return pt, glsns, nil
}

// runBaseline measures the synchronous path: one client, LogBatch
// round trips back to back over the same records.
func runBaseline(ctx context.Context, cc *chaos.Cluster, cfg Config, events []map[logmodel.Attr]logmodel.Value) (*Point, []logmodel.GLSN, error) {
	id := fmt.Sprintf("load-base-%d", time.Now().UnixNano())
	cl, mb, err := cc.NewClient(ctx, id, "T-"+id, ticket.OpWrite, ticket.OpRead)
	if err != nil {
		return nil, nil, err
	}
	defer mb.Close() //nolint:errcheck
	if err := cl.RegisterTicket(ctx); err != nil {
		return nil, nil, err
	}
	batch := cfg.BaselineBatch
	var (
		glsns   []logmodel.GLSN
		latency []float64
	)
	start := time.Now()
	for lo := 0; lo < len(events); lo += batch {
		hi := min(lo+batch, len(events))
		t0 := time.Now()
		gs, err := cl.LogBatch(ctx, events[lo:hi])
		if err != nil {
			return nil, nil, err
		}
		lat := float64(time.Since(t0).Microseconds()) / 1000.0
		for range gs {
			latency = append(latency, lat)
		}
		glsns = append(glsns, gs...)
	}
	elapsed := time.Since(start)
	pt := &Point{
		Acked:     len(glsns),
		ElapsedMs: float64(elapsed.Microseconds()) / 1000.0,
	}
	if elapsed > 0 {
		pt.AchievedRPS = float64(len(glsns)) / elapsed.Seconds()
	}
	pt.P50Ms, pt.P95Ms, pt.P99Ms, pt.MaxMs = percentiles(latency)
	return pt, glsns, nil
}

// runQueries drives the scenario's query fraction through an auditor
// session against the freshly written data.
func runQueries(ctx context.Context, cc *chaos.Cluster, cfg Config, rep *Report) error {
	id := fmt.Sprintf("load-q-%d", time.Now().UnixNano())
	cl, mb, err := cc.NewClient(ctx, id, "T-"+id, ticket.OpRead, ticket.OpWrite)
	if err != nil {
		return err
	}
	defer mb.Close() //nolint:errcheck
	if err := cl.RegisterTicket(ctx); err != nil {
		return err
	}
	aud := audit.NewAuditor(mb, cc.Boot.Roster[0], "T-"+id)
	writes := float64(cfg.Records)
	queries := int(writes*(1-cfg.Scenario.WriteFrac)) / 10
	if queries < 1 {
		queries = 1
	}
	mix := workload.QueryMix(2)
	var lat []float64
	for i := 0; i < queries; i++ {
		t0 := time.Now()
		if _, err := aud.Query(ctx, mix[i%len(mix)]); err != nil {
			return err
		}
		lat = append(lat, float64(time.Since(t0).Microseconds())/1000.0)
	}
	rep.Queries = queries
	_, rep.QueryP95Ms, _, _ = percentiles(lat)
	return nil
}

// countLostAcks sweeps every node for every acked glsn; a missing
// fragment anywhere counts as a lost ack.
func countLostAcks(cc *chaos.Cluster, acked []logmodel.GLSN) int {
	lost := 0
	for _, g := range acked {
		for _, id := range cc.Boot.Roster {
			n := cc.Node(id)
			if n == nil {
				lost++
				break
			}
			if _, ok := n.Fragment(g); !ok {
				lost++
				break
			}
		}
	}
	return lost
}

// percentiles returns p50/p95/p99/max over ms samples (zeros if empty).
func percentiles(ms []float64) (p50, p95, p99, max float64) {
	if len(ms) == 0 {
		return 0, 0, 0, 0
	}
	sort.Float64s(ms)
	at := func(q float64) float64 {
		i := int(q * float64(len(ms)-1))
		return ms[i]
	}
	return at(0.50), at(0.95), at(0.99), ms[len(ms)-1]
}
