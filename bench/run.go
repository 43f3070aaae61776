package main

import (
	"context"
	"fmt"
	"os"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"confaudit/pkg/dla"
)

// phases splits set-up by facade call; they sum to setup_s.
type phases struct{ deploy, connect, preload, warmup time.Duration }

func (p phases) total() time.Duration { return p.deploy + p.connect + p.preload + p.warmup }

// env is one set-up deployment, warm and ready for its window.
type env struct {
	dep     *deployment
	dir     string
	writers []session // producer sessions; writers[0] also preloads
	auditor session   // nil when the workload has no suite
	keys    map[string]dla.PublicKey
	oracle  *oracle
	base    []dla.GLSN // base[i] is the glsn of schedule.Base[i]
	acked   []dla.GLSN // everything acked so far (base, warm-up, stream)
	quiet   *suiteResult
	phases  phases
	// Warm-up is the one place the mixed workload writes without
	// reading and reads without writing, so per-record and per-query
	// counts are taken there when the window mixes both.
	warmIngest, warmAudit side
}

// side is a stretch of a run in which only records or only queries
// moved, with the snapshots around it.
type side struct {
	d   delta
	ops int
}

func (s side) per(v float64) float64 {
	if s.ops == 0 {
		return 0
	}
	return v / float64(s.ops)
}

func (e *env) close() error {
	for _, s := range e.writers {
		s.Close() //nolint:errcheck // the deployment's Close below reports what matters
	}
	if e.auditor != nil {
		e.auditor.Close() //nolint:errcheck // as above
	}
	return e.dep.close()
}

// setup deploys, connects, preloads the base log and warms up: fixed-
// base tables, the clause cache and lazy witnesses are built here, not
// in the window.
func setup(ctx context.Context, tr *tracer, parent *openSpan, w workloadSpec, sched *schedule, dir string) (*env, error) {
	e := &env{dir: dir, oracle: newOracle()}
	root := tr.begin(parent, "driver", "setup", "setup")
	defer root.end()

	t0 := time.Now()
	sp := tr.begin(root, "dla", "Deploy", "setup")
	dep, err := deploy(w, dir, nil)
	sp.end()
	if err != nil {
		return nil, fmt.Errorf("deploy: %w", err)
	}
	e.dep, e.keys = dep, dep.core.Bootstrap().PeerKeys
	e.phases.deploy = time.Since(t0)

	t0 = time.Now()
	for p := 0; p < max(w.Producers, 1); p++ {
		sp := tr.begin(root, "dla", "Connect", "setup")
		s, err := dep.connect(ctx, fmt.Sprintf("w%d", p), true)
		sp.end()
		if err != nil {
			e.close() //nolint:errcheck // error path
			return nil, fmt.Errorf("connect: %w", err)
		}
		e.writers = append(e.writers, s)
	}
	if w.Suite != "" {
		sp := tr.begin(root, "dla", "Connect", "setup")
		e.auditor, err = dep.connect(ctx, "a0", true)
		sp.end()
		if err != nil {
			e.close() //nolint:errcheck // error path
			return nil, fmt.Errorf("connect auditor: %w", err)
		}
	}
	e.phases.connect = time.Since(t0)

	t0 = time.Now()
	sp = tr.begin(root, "dla", "preload", "setup")
	pre := runIngest(ctx, nil, nil, e.writers[:1], sched.Base, 0)
	sp.end()
	if pre.failed > 0 {
		e.close() //nolint:errcheck // error path
		return nil, fmt.Errorf("preload: %d of %d records failed: %w", pre.failed, len(sched.Base), pre.firstErr)
	}
	e.base, e.acked = pre.acked, append(e.acked, pre.acked...)
	for i, g := range e.base {
		e.oracle.store(g, sched.Base[i])
	}
	e.phases.preload = time.Since(t0)

	t0 = time.Now()
	sp = tr.begin(root, "driver", "warmup", "setup")
	if len(sched.Warm) > 0 {
		before := takeSnapshot()
		warm := runIngest(ctx, nil, nil, e.writers, sched.Warm, 0)
		if warm.failed > 0 {
			e.close() //nolint:errcheck // error path
			return nil, fmt.Errorf("warm-up: %d records failed: %w", warm.failed, warm.firstErr)
		}
		e.warmIngest = side{delta{before, takeSnapshot()}, len(warm.acked)}
		e.acked = append(e.acked, warm.acked...)
	}
	if len(sched.WarmRounds) > 0 {
		before := takeSnapshot()
		e.quiet = runRounds(ctx, nil, nil, e.auditor, e.keys, sched.WarmRounds, nil)
		e.warmAudit = side{delta{before, takeSnapshot()}, len(e.quiet.outcomes)}
	}
	sp.end()
	e.phases.warmup = time.Since(t0)
	return e, nil
}

// pass is everything one repetition measured.
type pass struct {
	d   delta
	ing *ingestResult // nil without a writer
	aud *suiteResult  // nil without an auditor
	// ingSide and audSide are where per-record and per-query counts come
	// from: the window when it holds only that side, else the warm-up.
	ingSide, audSide side
	quietRoundMs     []float64 // warm-up rounds: the suite with no writer beside it

	attempted, failed int
	firstErr          error
	quiet, window     verdict
	readUs            float64
	closeS            float64
	journalBytes      int64
	journaled         int
	recoveryS         float64
	journal           string
}

func (p *pass) fail(n int, err error) {
	p.failed += n
	if p.firstErr == nil {
		p.firstErr = err
	}
}

// measure runs the workload's window on e, then checks every output,
// closes the deployment and, when asked, recovers it.
func measure(ctx context.Context, tr *tracer, parent *openSpan, e *env, w workloadSpec, sched *schedule) *pass {
	p := &pass{journal: e.dep.journalKind()}
	var pace time.Duration
	if w.PacedRPS > 0 {
		pace = time.Second / time.Duration(w.PacedRPS)
	}

	wsp := tr.begin(parent, "driver", "window", "window")
	before := takeSnapshot()
	var wg sync.WaitGroup
	var writerDone atomic.Bool
	if len(sched.Stream) > 0 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p.ing = runIngest(ctx, tr, wsp, e.writers, sched.Stream, pace)
			writerDone.Store(true)
		}()
	}
	if len(sched.Rounds) > 0 {
		var stop func() bool // beside a writer, the auditor stops when the writer has
		if len(sched.Stream) > 0 {
			stop = writerDone.Load
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			p.aud = runRounds(ctx, tr, wsp, e.auditor, e.keys, sched.Rounds, stop)
		}()
	}
	wg.Wait()
	p.d = delta{before, takeSnapshot()}
	wsp.end()

	if p.ing != nil {
		p.attempted += len(sched.Stream)
		e.acked = append(e.acked, p.ing.acked...)
		if p.ing.failed > 0 {
			p.fail(p.ing.failed, fmt.Errorf("ingest: %w", p.ing.firstErr))
		}
	}
	if p.aud != nil {
		p.window = e.oracle.check(p.aud.outcomes)
		p.attempted += p.window.attempted
		if n := p.window.failed(); n > 0 {
			p.fail(n, p.window.firstErr)
		}
	}
	switch {
	case p.aud == nil:
		p.ingSide = side{p.d, len(p.ing.acked)}
	case p.ing == nil:
		p.audSide = side{p.d, len(p.aud.outcomes)}
	default:
		p.ingSide, p.audSide = e.warmIngest, e.warmAudit
	}
	if e.quiet != nil {
		p.quietRoundMs = e.quiet.roundMs
		p.quiet = e.oracle.check(e.quiet.outcomes)
		if n := p.quiet.failed(); n > 0 {
			p.fail(n, fmt.Errorf("warm-up: %w", p.quiet.firstErr))
		}
	}

	vsp := tr.begin(parent, "driver", "verify", "verify")
	if lost := e.dep.lostAcks(e.acked); lost > 0 {
		p.fail(lost, fmt.Errorf("%d acked glsns are missing a fragment on some node", lost))
	}
	p.readUs = p.readBack(ctx, tr, vsp, "verify", e.writers[0], e.base, sched.Base)
	vsp.end()

	p.journaled = len(e.acked)
	csp := tr.begin(parent, "dla", "Close", "close")
	t0 := time.Now()
	err := e.close()
	p.closeS = time.Since(t0).Seconds()
	csp.end()
	if err != nil {
		p.fail(1, fmt.Errorf("close: %w", err))
	}
	if w.Durable {
		if p.journalBytes, err = dirBytes(e.dir); err != nil {
			p.fail(1, err)
		}
		if w.Recover {
			p.recover(ctx, tr, parent, e, w, sched)
		}
	}
	return p
}

// readBack reads sixteen base records through the session that wrote
// them and compares every value; it returns the mean Read time.
func (p *pass) readBack(ctx context.Context, tr *tracer, parent *openSpan, phase string, sess session, glsns []dla.GLSN, recs []values) float64 {
	const reads = 16
	var total time.Duration
	n := 0
	for i := 0; i < len(glsns); i += max(len(glsns)/reads, 1) {
		sp := tr.begin(parent, "dla", "Read", fmt.Sprintf("%s.read%d", phase, n))
		t0 := time.Now()
		rec, err := sess.Read(ctx, glsns[i])
		total += time.Since(t0)
		sp.end()
		n++
		if err != nil {
			p.fail(1, fmt.Errorf("read %s: %w", glsns[i], err))
			continue
		}
		for a, v := range recs[i] {
			if !rec.Values[a].Equal(v) {
				p.fail(1, fmt.Errorf("read %s: attribute %s came back as %s, logged %s", glsns[i], a, rec.Values[a].Render(), v.Render()))
				break
			}
		}
	}
	return float64(total) / 1e3 / float64(max(n, 1))
}

// recover redeploys over the closed DataDir with the original keys and
// times it until the first successful Read, then repeats the lost-ack
// sweep and the read-back on the recovered nodes.
func (p *pass) recover(ctx context.Context, tr *tracer, parent *openSpan, e *env, w workloadSpec, sched *schedule) {
	rsp := tr.begin(parent, "driver", "recovery", "recovery")
	defer rsp.end()
	t0 := time.Now()
	sp := tr.begin(rsp, "dla", "Deploy", "recovery")
	dep, err := deploy(w, e.dir, e.dep.core.Bootstrap())
	sp.end()
	if err != nil {
		p.fail(len(e.acked), fmt.Errorf("redeploy: %w", err))
		return
	}
	defer dep.close() //nolint:errcheck // read-only from here on
	sp = tr.begin(rsp, "dla", "Connect", "recovery")
	sess, err := dep.connect(ctx, "w0", false)
	sp.end()
	if err != nil {
		p.fail(len(e.acked), fmt.Errorf("reconnect: %w", err))
		return
	}
	defer sess.Close() //nolint:errcheck // read-only session
	sp = tr.begin(rsp, "dla", "Read", "recovery")
	_, err = sess.Read(ctx, e.base[0])
	sp.end()
	p.recoveryS = time.Since(t0).Seconds()
	if err != nil {
		p.fail(1, fmt.Errorf("first read after recovery: %w", err))
	}
	if lost := dep.lostAcks(e.acked); lost > 0 {
		p.fail(lost, fmt.Errorf("%d acked glsns are missing a fragment after recovery", lost))
	}
	p.readBack(ctx, tr, rsp, "recovery", sess, e.base, sched.Base)
}

// runResult is one workload run: reps untraced repetitions, and with
// -trace one more with the span recorder on, then the probes.
type runResult struct {
	w       workloadSpec
	sched   *schedule
	reps    []*pass
	setups  []phases
	traced  *pass
	spans   []span
	probes  map[string]float64
	calib   [2]calibration // at start and end
	peakRSS float64
}

type runOpts struct {
	seed    uint64
	trace   bool
	workdir string
}

func runWorkload(ctx context.Context, w workloadSpec, o runOpts) (*runResult, error) {
	r := &runResult{w: w, sched: generate(w, o.seed)}
	r.calib[0] = calibrate()
	scratch, err := os.MkdirTemp(o.workdir, w.Name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(scratch) //nolint:errcheck // scratch
	repetition := func(tr *tracer, parent *openSpan) (*pass, *env, error) {
		// One repetition's garbage must not be billed to the next, nor
		// decide when the next one's first collection starts.
		debug.FreeOSMemory()
		var dir string
		if w.Durable {
			d, err := os.MkdirTemp(scratch, "data-")
			if err != nil {
				return nil, nil, err
			}
			defer os.RemoveAll(d) //nolint:errcheck // frees the disk before the next repetition
			dir = d
		}
		e, err := setup(ctx, tr, parent, w, r.sched, dir)
		if err != nil {
			return nil, nil, err
		}
		return measure(ctx, tr, parent, e, w, r.sched), e, nil
	}
	for i := 0; i < w.Reps; i++ {
		p, e, err := repetition(nil, nil)
		if err != nil {
			return nil, err
		}
		r.reps, r.setups = append(r.reps, p), append(r.setups, e.phases)
	}
	r.peakRSS = peakRSSMB()

	if o.trace {
		tr := newTracer()
		root := tr.begin(nil, "driver", "traced-pass", w.Name)
		p, e, err := repetition(tr, root)
		root.end()
		if err != nil {
			return nil, err
		}
		r.traced = p
		if r.probes, err = runProbes(ctx, tr, e.dep.core.Bootstrap(), r.sched, scratch); err != nil {
			return nil, fmt.Errorf("probes: %w", err)
		}
		r.spans = tr.spans()
	}
	r.calib[1] = calibrate()
	return r, nil
}
