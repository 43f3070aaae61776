package audit

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"strconv"
	"strings"
	"sync"
	"testing"

	"confaudit/internal/logmodel"
	"confaudit/internal/transport"
)

// tapAll records every message the rig's network carries until the
// returned function is called; it returns the messages so far.
func tapAll(r *rig) func() []transport.Message {
	var (
		mu   sync.Mutex
		msgs []transport.Message
	)
	r.net.SetDropFn(func(m transport.Message) bool {
		m.Payload = bytes.Clone(m.Payload)
		mu.Lock()
		msgs = append(msgs, m)
		mu.Unlock()
		return false
	})
	return func() []transport.Message {
		mu.Lock()
		defer mu.Unlock()
		out := msgs
		msgs = nil
		return out
	}
}

// crossPlan is the single cross-node plan the rig runs for criteria.
func crossPlan(t *testing.T, r *rig, criteria string) *wirePlan {
	t.Helper()
	plans, _, err := buildPlans(criteria, r.boot.Partition)
	if err != nil {
		t.Fatal(err)
	}
	if len(plans) != 1 || plans[0].TTP == "" || len(plans[0].Nodes) != 2 {
		t.Fatalf("%q: plans %+v, want one cross plan", criteria, plans)
	}
	return &plans[0]
}

// ofRun keeps the messages of one query's subquery runs: those of the
// query session's sub-sessions.
func ofRun(msgs []transport.Message, session string) []transport.Message {
	var out []transport.Message
	for _, m := range msgs {
		if strings.HasPrefix(m.Session, session+"/") {
			out = append(out, m)
		}
	}
	return out
}

// carriesGLSN names the form in which payload carries g, if it does:
// hex text, decimal text or its 8 big-endian bytes.
func carriesGLSN(payload []byte, g logmodel.GLSN) string {
	forms := map[string][]byte{
		"hex":     []byte(g.String()),
		"decimal": []byte(strconv.FormatUint(uint64(g), 10)),
		"binary":  binary.BigEndian.AppendUint64(nil, uint64(g)),
	}
	for form, b := range forms {
		if bytes.Contains(payload, b) {
			return form
		}
	}
	return ""
}

// TestCrossEqualityTTPSeesNoGLSN taps the network while cross-node =
// and != run: no message of the predicate's run that reaches its blind
// TTP carries a glsn, in any form, and the holder that is not
// responsible hears nothing from the TTP.
func TestCrossEqualityTTPSeesNoGLSN(t *testing.T) {
	r := newRig(t)
	ctx := testCtx(t)
	match := r.log(ctx, t, map[logmodel.Attr]logmodel.Value{
		"C1": logmodel.Int(9), "C2": logmodel.Float(9),
		"id": logmodel.String("m"), "C3": logmodel.String("m"),
	})
	all := append(glsnsOf(0, 1, 2, 3, 4), match)
	tap := tapAll(r)
	defer r.net.SetDropFn(nil)
	for _, tc := range []struct {
		crit string
		want []logmodel.GLSN
	}{
		{`C1 = C2`, []logmodel.GLSN{match}},
		{`id != C3`, glsnsOf(0, 1, 2, 3, 4)},
	} {
		plan := crossPlan(t, r, tc.crit)
		other := plan.Nodes[1]
		tap()
		got, session, _, err := r.auditor.QueryCertified(ctx, tc.crit)
		if err != nil {
			t.Fatalf("%q: %v", tc.crit, err)
		}
		assertGLSNs(t, got, tc.want)
		toTTP := 0
		for _, m := range ofRun(tap(), session) {
			if m.From == plan.TTP && m.To == other {
				t.Errorf("%q: TTP %s sent non-responsible holder %s a %s", tc.crit, plan.TTP, other, m.Type)
			}
			if m.To != plan.TTP {
				continue
			}
			toTTP++
			for _, g := range all {
				if form := carriesGLSN(m.Payload, g); form != "" {
					t.Errorf("%q: %s from %s to TTP %s carries glsn %s in %s", tc.crit, m.Type, m.From, plan.TTP, g, form)
				}
			}
		}
		if toTTP == 0 {
			t.Fatalf("%q: tap saw no message to TTP %s", tc.crit, plan.TTP)
		}
	}
}

// TestCrossEqualityBindsGLSN logs two records whose C1 and C2 values
// are swapped, so each value sits on both holders under different
// glsns. Neither record matches C1 = C2, and no tag one holder submits
// equals one the other submits: the TTP sees no match across glsns.
func TestCrossEqualityBindsGLSN(t *testing.T) {
	r := newRig(t)
	ctx := testCtx(t)
	r.log(ctx, t, map[logmodel.Attr]logmodel.Value{"C1": logmodel.Int(5), "C2": logmodel.Float(7)})
	r.log(ctx, t, map[logmodel.Attr]logmodel.Value{"C1": logmodel.Int(7), "C2": logmodel.Float(5)})
	tap := tapAll(r)
	defer r.net.SetDropFn(nil)
	plan := crossPlan(t, r, `C1 = C2`)
	got, session, _, err := r.auditor.QueryCertified(ctx, `C1 = C2`)
	if err != nil {
		t.Fatal(err)
	}
	assertGLSNs(t, got, nil)
	tags := map[string]map[string]bool{}
	for _, m := range ofRun(tap(), session) {
		if m.Type != msgFinalSubmit || m.To != plan.TTP {
			continue
		}
		var sub struct {
			Tags [][]byte `json:"tags"`
		}
		if err := json.Unmarshal(m.Payload, &sub); err != nil {
			t.Fatal(err)
		}
		tags[m.From] = map[string]bool{}
		for _, tag := range sub.Tags {
			tags[m.From][string(tag)] = true
		}
	}
	a, b := tags[plan.Nodes[0]], tags[plan.Nodes[1]]
	if len(a) != 7 || len(b) != 7 {
		t.Fatalf("holders submitted %d and %d tags, want 7 each", len(a), len(b))
	}
	for tag := range a {
		if b[tag] {
			t.Fatal("both holders submitted one tag")
		}
	}
}

// TestCrossComparisonVerdictToResponsibleOnly taps the network while a
// cross-node order predicate runs, with the responsible holder owning
// either operand: the result is right, and the TTP sends the other
// holder nothing.
func TestCrossComparisonVerdictToResponsibleOnly(t *testing.T) {
	r := newRig(t)
	ctx := testCtx(t)
	tap := tapAll(r)
	defer r.net.SetDropFn(nil)
	// C1 (P3) is below C2 (P1) on every Table 1 row.
	for _, crit := range []string{`C1 < C2`, `C2 > C1`} {
		plan := crossPlan(t, r, crit)
		other := plan.Nodes[1]
		tap()
		got, session, _, err := r.auditor.QueryCertified(ctx, crit)
		if err != nil {
			t.Fatalf("%q: %v", crit, err)
		}
		assertGLSNs(t, got, glsnsOf(0, 1, 2, 3, 4))
		for _, m := range ofRun(tap(), session) {
			if m.From == plan.TTP && m.To == other {
				t.Errorf("%q: TTP %s sent non-responsible holder %s a %s", crit, plan.TTP, other, m.Type)
			}
		}
	}
}
