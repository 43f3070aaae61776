package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"time"

	"confaudit/internal/audit"
	"confaudit/internal/logmodel"
	"confaudit/pkg/dla"
)

// outcome is what one scheduled query returned; it is checked against
// the oracle after the window, so the oracle's scans cost the window
// nothing.
type outcome struct {
	q     querySpec
	glsns []dla.GLSN
	agg   float64
	err   error
}

// suiteResult is one auditor's closed loop over a list of rounds.
type suiteResult struct {
	roundMs  []float64
	shapeMs  map[string][]float64
	shapeCPU map[string][]float64 // process CPU µs while the query ran
	verifyUs []float64            // dla.VerifyResult alone, inside the certified shape
	outcomes []outcome
}

// runRounds runs rounds back to back on one session: the next query is
// sent only when the previous has returned. stop, when non-nil, is
// polled between rounds (after the first).
func runRounds(ctx context.Context, tr *tracer, parent *openSpan, sess session, keys map[string]dla.PublicKey,
	rounds [][]querySpec, stop func() bool) *suiteResult {
	res := &suiteResult{shapeMs: make(map[string][]float64), shapeCPU: make(map[string][]float64)}
	for r, round := range rounds {
		if r > 0 && stop != nil && stop() {
			break
		}
		rsp := tr.begin(parent, "driver", "round", fmt.Sprintf("r%d", r))
		t0 := time.Now()
		for _, q := range round {
			var id string
			if tr != nil {
				id = fmt.Sprintf("r%d.%s", r, q.Shape)
			}
			q0, cpu0 := time.Now(), processCPU()
			o := outcome{q: q}
			switch {
			case q.Agg != "":
				sp := tr.begin(rsp, "dla", "Aggregate", id)
				o.agg, o.err = sess.Aggregate(ctx, q.Criteria, q.Agg, q.Attr)
				sp.end()
			case q.Cert:
				sp := tr.begin(rsp, "dla", "QueryCertified", id)
				var cert *dla.ResultCert
				var bound string
				o.glsns, bound, cert, o.err = sess.QueryCertified(ctx, q.Criteria)
				sp.end()
				if o.err == nil {
					sp := tr.begin(rsp, "dla", "VerifyResult", id)
					v0 := time.Now()
					if err := dla.VerifyResult(keys, bound, o.glsns, cert); err != nil {
						o.err = fmt.Errorf("certificate: %w", err)
					}
					res.verifyUs = append(res.verifyUs, float64(time.Since(v0))/1e3)
					sp.end()
				}
			default:
				sp := tr.begin(rsp, "dla", "Query", id)
				o.glsns, o.err = sess.Query(ctx, q.Criteria)
				sp.end()
			}
			if o.err == nil {
				res.shapeMs[q.Shape] = append(res.shapeMs[q.Shape], ms(time.Since(q0)))
				res.shapeCPU[q.Shape] = append(res.shapeCPU[q.Shape], float64(processCPU()-cpu0)/1e3)
			}
			res.outcomes = append(res.outcomes, o)
		}
		rsp.end()
		res.roundMs = append(res.roundMs, ms(time.Since(t0)))
	}
	return res
}

// oracle is the paper's Figure 1 centralized auditor over the same base
// records; every DLA answer must equal its answer.
type oracle struct {
	c     *audit.Centralized
	cache map[string]outcome
}

func newOracle() *oracle {
	return &oracle{c: audit.NewCentralized(), cache: make(map[string]outcome)}
}

func (o *oracle) store(g dla.GLSN, v values) { o.c.Store(logmodel.Record{GLSN: g, Values: v}) }

func (o *oracle) answer(q querySpec) outcome {
	key := q.String()
	if a, ok := o.cache[key]; ok {
		return a
	}
	a := outcome{q: q}
	if q.Agg != "" {
		a.agg, a.err = o.c.Aggregate(q.Criteria, q.Agg, q.Attr)
	} else {
		a.glsns, a.err = o.c.Query(q.Criteria)
	}
	o.cache[key] = a
	return a
}

// verdict counts, over a list of outcomes, the queries that failed
// outright (error, partial result, bad certificate) and those whose
// answer differs from the oracle's.
type verdict struct {
	attempted, errored, degraded, mismatched int
	firstErr                                 error
}

func (v verdict) failed() int { return v.errored + v.mismatched }

func (o *oracle) check(outs []outcome) verdict {
	v := verdict{attempted: len(outs)}
	for _, got := range outs {
		if got.err != nil {
			v.errored++
			var partial *audit.PartialResultError
			if errors.As(got.err, &partial) {
				v.degraded++
			}
			if v.firstErr == nil {
				v.firstErr = fmt.Errorf("%s %q: %w", got.q.Shape, got.q.Criteria, got.err)
			}
			continue
		}
		want := o.answer(got.q)
		if want.err != nil || !sameAnswer(got, want) {
			v.mismatched++
			if v.firstErr == nil {
				v.firstErr = fmt.Errorf("%s %q: DLA answer differs from the centralized oracle (oracle err: %v)", got.q.Shape, got.q.Criteria, want.err)
			}
		}
	}
	return v
}

func sameAnswer(got, want outcome) bool {
	if got.q.Agg != "" {
		return math.Abs(got.agg-want.agg) <= 1e-9*math.Max(1, math.Abs(want.agg))
	}
	if len(got.glsns) != len(want.glsns) {
		return false
	}
	for i := range got.glsns { // both sides are sorted ascending
		if got.glsns[i] != want.glsns[i] {
			return false
		}
	}
	return true
}
