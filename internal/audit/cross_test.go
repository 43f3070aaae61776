package audit

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"math"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"

	"confaudit/internal/logmodel"
	"confaudit/internal/smc/compare"
	"confaudit/internal/transport"
	"confaudit/internal/wire"
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

// tagSubmission is a compare.intersect.submit body as the wire carries
// it: the member count, then every tag, compare.TagSize bytes each, in
// one packed run.
type tagSubmission struct {
	members int
	tags    [][]byte
}

func (s *tagSubmission) AppendBinary(dst []byte) []byte {
	return wire.AppendRun(binary.AppendUvarint(dst, uint64(s.members)), bytes.Join(s.tags, nil))
}

func (s *tagSubmission) DecodeBinary(src []byte) error {
	d := wire.NewDec(src)
	members, err := d.Small()
	if err != nil {
		return err
	}
	run, err := d.Run()
	if err != nil {
		return err
	}
	s.members, s.tags = members, nil
	for ; len(run) >= compare.TagSize; run = run[compare.TagSize:] {
		s.tags = append(s.tags, bytes.Clone(run[:compare.TagSize]))
	}
	return d.Done()
}

// positionList is a compare.intersect.verdict body as the wire carries
// it: ascending positions.
type positionList []int

func (l *positionList) AppendBinary(dst []byte) []byte { return wire.AppendAscending(dst, *l) }

func (l *positionList) DecodeBinary(src []byte) error {
	d := wire.NewDec(src)
	list, err := wire.Ascending[int](&d, math.MaxInt32)
	*l = list
	return err
}

// TestCrossEqualityTTPSeesNoGLSN taps the network while cross-node =
// and != run: no message of the predicate's run that reaches its blind
// TTP carries a glsn, in any form, the holder that is not responsible
// hears nothing from the TTP, and every message of the run is binary.
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
			if !transport.IsBinaryPayload(m.Payload) {
				t.Errorf("%q: %s from %s is not binary", tc.crit, m.Type, m.From)
			}
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
		var sub tagSubmission
		if err := transport.Unmarshal(m.Payload, &sub); err != nil {
			t.Fatal(err)
		}
		tags[m.From] = map[string]bool{}
		for _, tag := range sub.tags {
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

// TestCrossComparisonTTPSeesNoGLSN taps the network while cross-node
// order predicates run, with the responsible holder owning either
// operand: no message of the predicate's run that reaches its blind
// TTP carries a glsn, in any form. The holders submit transformed
// values by position and one digest of their aligned glsn list. Every
// message of the run is binary.
func TestCrossComparisonTTPSeesNoGLSN(t *testing.T) {
	r := newRig(t)
	ctx := testCtx(t)
	all := glsnsOf(0, 1, 2, 3, 4)
	tap := tapAll(r)
	defer r.net.SetDropFn(nil)
	// C1 (P3) is below C2 (P1) on every Table 1 row.
	for _, crit := range []string{`C1 < C2`, `C2 > C1`} {
		plan := crossPlan(t, r, crit)
		tap()
		got, session, _, err := r.auditor.QueryCertified(ctx, crit)
		if err != nil {
			t.Fatalf("%q: %v", crit, err)
		}
		assertGLSNs(t, got, all)
		toTTP := 0
		for _, m := range ofRun(tap(), session) {
			if !transport.IsBinaryPayload(m.Payload) {
				t.Errorf("%q: %s from %s is not binary", crit, m.Type, m.From)
			}
			if m.To != plan.TTP {
				continue
			}
			toTTP++
			for _, g := range all {
				if form := carriesGLSN(m.Payload, g); form != "" {
					t.Errorf("%q: %s from %s to TTP %s carries glsn %s in %s", crit, m.Type, m.From, plan.TTP, g, form)
				}
			}
		}
		if toTTP == 0 {
			t.Fatalf("%q: tap saw no message to TTP %s", crit, plan.TTP)
		}
	}
}

// TestCrossPreBinaryKeysFail stands in for a holder from before the
// binary bodies, which sends its glsn list for the key alignment as
// JSON: the cross query fails with an error rather than return a wrong
// answer, and a later query with both holders current is right again.
func TestCrossPreBinaryKeysFail(t *testing.T) {
	r := newRig(t)
	ctx := testCtx(t)
	for _, crit := range []string{`C1 < C2`, `C1 = C2`} {
		old := crossPlan(t, r, crit).Nodes[1]
		r.net.SetDropFn(func(m transport.Message) bool {
			if m.Type != MsgKeys || m.From != old || !transport.IsBinaryPayload(m.Payload) {
				return false
			}
			var list glsnList
			if err := transport.Unmarshal(m.Payload, &list); err != nil {
				t.Error(err)
			}
			// The JSON list goes from a goroutine of its own, since this
			// call sits inside the binary one's send.
			go r.nodes[old].Mailbox().SendBody(context.Background(), m.To, MsgKeys, m.Session, []logmodel.GLSN(list)) //nolint:errcheck
			return true
		})
		if got, _, _, err := r.auditor.QueryCertified(ctx, crit); err == nil || !strings.Contains(err.Error(), "non-binary payload") {
			t.Fatalf("%q with a JSON key list returned %v, %v", crit, got, err)
		}
		r.net.SetDropFn(nil)
	}
	got, _, _, err := r.auditor.QueryCertified(ctx, `C1 < C2`)
	if err != nil {
		t.Fatal(err)
	}
	assertGLSNs(t, got, glsnsOf(0, 1, 2, 3, 4))
}

// FuzzGLSNListRoundTrip feeds the audit.keys decoder, which a peer
// holder's bytes reach, arbitrary input. It must never panic, every
// list it accepts is strictly ascending, and every accepted body
// re-encodes to exactly the input. The checked-in corpus holds lists
// the encoder writes and ones the decoder refuses: a count past the
// bytes left, a repeated glsn, a descending one, a gap past 2^64.
func FuzzGLSNListRoundTrip(f *testing.F) {
	f.Fuzz(func(t *testing.T, src []byte) {
		var l glsnList
		if err := l.DecodeBinary(src); err != nil {
			if !errors.Is(err, wire.ErrMalformed) {
				t.Fatalf("refusal %v is not wire.ErrMalformed", err)
			}
			return
		}
		if !slices.IsSorted(l) || len(slices.Compact(slices.Clone(l))) != len(l) {
			t.Fatalf("accepted a list not strictly ascending: %v", l)
		}
		if enc := l.AppendBinary(nil); !bytes.Equal(enc, src) {
			t.Fatalf("accepted % x, re-encoded as % x", src, enc)
		}
	})
}
