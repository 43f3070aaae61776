package integrity

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"confaudit/internal/crypto/accumulator"
	"confaudit/internal/logmodel"
	"confaudit/internal/transport"
)

// Remote checking: authorized clients ask a DLA node to run the §4.1
// circulation sweep and return the report, so operators can audit
// integrity without shell access to a node (the dlactl `check` path).

// Message types of the remote-check subprotocol.
const (
	MsgCheckRequest = "integrity.request"
	MsgCheckReport  = "integrity.report"
)

type checkRequestBody struct {
	// GLSNs limits the sweep; empty means every stored record.
	GLSNs []string `json:"glsns,omitempty"`
	// BudgetMS is how long the node may sweep, in milliseconds: a
	// share of the requester's wait for the report (sweepShare). The
	// node stops the sweep when it runs out. Zero means the requester
	// named no deadline, and sweepTimeout applies.
	BudgetMS int64 `json:"budget_ms,omitempty"`
}

// sweepTimeout bounds a remote sweep whose requester named no deadline:
// a dead peer must not hold the sweep's circulations forever.
const sweepTimeout = 2 * time.Minute

// sweepShare is the share of its remaining wait a requester grants the
// node's sweep. The rest is kept for the report's way back, so a sweep
// that runs out of time, as with a dead peer, still reports in time.
const sweepShare = 0.75

// budget is how long the node may spend on the request's sweep.
func (r *checkRequestBody) budget() time.Duration {
	if r.BudgetMS > 0 {
		return time.Duration(r.BudgetMS) * time.Millisecond
	}
	return sweepTimeout
}

type checkReportBody struct {
	Checked   int               `json:"checked"`
	Corrupted []string          `json:"corrupted,omitempty"`
	Errors    map[string]string `json:"errors,omitempty"`
	Error     string            `json:"error,omitempty"`
}

// ServeRequests answers remote check requests on the node. list
// enumerates the node's stored glsns for whole-store sweeps. It returns
// once ctx is cancelled or the mailbox closes and every sweep it
// started has finished.
func ServeRequests(ctx context.Context, mb *transport.Mailbox, ring []string, params *accumulator.Params, store Store, list func() []logmodel.GLSN) error {
	var wg sync.WaitGroup
	defer wg.Wait()
	for {
		msg, err := mb.ExpectType(ctx, MsgCheckRequest)
		if err != nil {
			if errors.Is(err, context.Canceled) || errors.Is(err, transport.ErrClosed) {
				return nil
			}
			return err
		}
		wg.Add(1)
		go func(msg transport.Message) {
			defer wg.Done()
			var req checkRequestBody
			var resp checkReportBody
			if err := transport.Unmarshal(msg.Payload, &req); err != nil {
				resp.Error = err.Error()
			} else {
				sweepCtx, cancel := context.WithTimeout(ctx, req.budget())
				defer cancel()
				glsns, err := parseGLSNs(req.GLSNs)
				if err != nil {
					resp.Error = err.Error()
				} else {
					if len(glsns) == 0 {
						glsns = list()
					}
					rep := CheckAll(sweepCtx, mb, ring, params, store, glsns)
					resp.Checked = rep.Checked
					for _, g := range rep.Corrupted {
						resp.Corrupted = append(resp.Corrupted, g.String())
					}
					if len(rep.Errors) > 0 {
						resp.Errors = make(map[string]string, len(rep.Errors))
						for g, err := range rep.Errors {
							resp.Errors[g.String()] = err.Error()
						}
					}
				}
			}
			mb.SendBody(ctx, msg.From, MsgCheckReport, msg.Session, resp) //nolint:errcheck
		}(msg)
	}
}

func parseGLSNs(in []string) ([]logmodel.GLSN, error) {
	out := make([]logmodel.GLSN, 0, len(in))
	for _, s := range in {
		g, err := logmodel.ParseGLSN(s)
		if err != nil {
			return nil, err
		}
		out = append(out, g)
	}
	return out, nil
}

// RequestCheck asks a node to sweep (all records when glsns is empty)
// and returns its report.
func RequestCheck(ctx context.Context, mb *transport.Mailbox, node, session string, glsns []logmodel.GLSN) (*Report, error) {
	req := checkRequestBody{}
	if deadline, ok := ctx.Deadline(); ok {
		// At least 1 ms: zero would read as no deadline at all.
		budget := time.Duration(float64(time.Until(deadline)) * sweepShare)
		req.BudgetMS = max(budget.Milliseconds(), 1)
	}
	for _, g := range glsns {
		req.GLSNs = append(req.GLSNs, g.String())
	}
	if err := mb.SendBody(ctx, node, MsgCheckRequest, session, req); err != nil {
		return nil, err
	}
	resp, err := mb.Expect(ctx, MsgCheckReport, session)
	if err != nil {
		return nil, fmt.Errorf("integrity: awaiting report: %w", err)
	}
	var body checkReportBody
	if err := transport.Unmarshal(resp.Payload, &body); err != nil {
		return nil, err
	}
	if body.Error != "" {
		return nil, fmt.Errorf("integrity: node refused: %s", body.Error)
	}
	rep := &Report{Checked: body.Checked, Errors: make(map[logmodel.GLSN]error)}
	for _, s := range body.Corrupted {
		g, err := logmodel.ParseGLSN(s)
		if err != nil {
			return nil, err
		}
		rep.Corrupted = append(rep.Corrupted, g)
	}
	for s, msg := range body.Errors {
		g, err := logmodel.ParseGLSN(s)
		if err != nil {
			return nil, err
		}
		rep.Errors[g] = errors.New(msg)
	}
	return rep, nil
}
