package audit

import (
	"context"
	"errors"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"confaudit/internal/logmodel"
	"confaudit/internal/telemetry"
	"confaudit/internal/transport"
)

// The messages of a compare.Intersect run through a blind TTP, as the
// rigged final-conjunction TTP below and the cross-node equality tests
// read and write them.
const (
	msgFinalSubmit  = "compare.intersect.submit"
	msgFinalVerdict = "compare.intersect.verdict"
)

// TestConjunctionThroughTTPSkipsRing runs a conjunction over three of
// the rig's four nodes: the fourth is its blind TTP, so it returns the
// right glsns with no ∩s run, no intersect.* message and no ring
// encryption. A conjunction over all four nodes has no TTP left and
// still runs ∩s.
func TestConjunctionThroughTTPSkipsRing(t *testing.T) {
	r := newRig(t)
	ctx := testCtx(t)
	types := tapTypes(r)
	defer r.net.SetDropFn(nil)

	// Tid (P2) AND C1 (P3) AND id (P1): row 0; P0 is the TTP.
	before := ringWork()
	got, err := r.auditor.Query(ctx, `Tid = "T1100265" AND C1 < 30 AND id = "U1"`)
	if err != nil {
		t.Fatal(err)
	}
	assertGLSNs(t, got, glsnsOf(0))
	seen := types()
	if n := prefixed(seen, "intersect."); n != 0 {
		t.Errorf("three-member conjunction sent %d intersect.* messages, want 0", n)
	}
	if n := seen[msgFinalSubmit]; n != 3 {
		t.Errorf("three-member conjunction sent the TTP %d submissions, want 3", n)
	}
	if d := ringWork() - before; d != 0 {
		t.Errorf("three-member conjunction encrypted: ring counters moved by %d, want 0", d)
	}

	// ... AND time (P0): the ring is the whole roster, and row 0 again.
	got, err = r.auditor.Query(ctx, `Tid = "T1100265" AND C1 < 30 AND id = "U1" AND time > "20:00"`)
	if err != nil {
		t.Fatal(err)
	}
	assertGLSNs(t, got, glsnsOf(0))
	seen = types()
	if prefixed(seen, "intersect.") == 0 {
		t.Error("roster-wide conjunction sent no intersect.* message; it must run ∩s")
	}
	if n := seen[msgFinalSubmit]; n != 0 {
		t.Errorf("roster-wide conjunction sent a TTP %d submissions, want 0", n)
	}
}

// TestFinalTTPLedgersOverlap checks the TTP's view in the querier's
// ledger: per conjunction through a TTP, one ttp_overlap entry per
// member with its set size and one under the TTP with the common
// count; none when the conjunction runs ∩s.
func TestFinalTTPLedgersOverlap(t *testing.T) {
	r := newRig(t)
	ctx := testCtx(t)
	// Sessions repeat across rigs, and the ledger is process-wide.
	telemetry.L.Reset()
	overlaps := func(session string) []telemetry.Disclosure {
		var out []telemetry.Disclosure
		for _, q := range telemetry.L.Snapshot().Queriers {
			for _, e := range q.Entries {
				if e.Session != session {
					continue
				}
				for _, d := range e.Disclosures {
					if d.Kind == telemetry.DiscTTPOverlap {
						out = append(out, d)
					}
				}
			}
		}
		slices.SortFunc(out, func(a, b telemetry.Disclosure) int { return strings.Compare(a.Node, b.Node) })
		return out
	}
	// id = "U1" (P1): rows 0, 2. Tid (P2): rows 0, 1, 3. C1 < 30 (P3):
	// rows 0, 3. Common: row 0. P0 is the TTP.
	for range 2 {
		_, session, _, err := r.auditor.QueryCertified(ctx, `Tid = "T1100265" AND C1 < 30 AND id = "U1"`)
		if err != nil {
			t.Fatal(err)
		}
		want := []telemetry.Disclosure{
			{Kind: telemetry.DiscTTPOverlap, Node: "P0", N: 1},
			{Kind: telemetry.DiscTTPOverlap, Node: "P1", N: 2},
			{Kind: telemetry.DiscTTPOverlap, Node: "P2", N: 3},
			{Kind: telemetry.DiscTTPOverlap, Node: "P3", N: 2},
		}
		// The TTP files its view after it sends the verdicts, so the
		// result can reach the auditor first.
		for stop := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
			got := overlaps(session)
			if slices.Equal(got, want) {
				break
			}
			if len(got) > len(want) || time.Now().After(stop) {
				t.Fatalf("TTP overlap disclosures %+v, want %+v", got, want)
			}
		}
	}
	_, session, _, err := r.auditor.QueryCertified(ctx, `Tid = "T1100265" AND C1 < 30 AND id = "U1" AND time > "20:00"`)
	if err != nil {
		t.Fatal(err)
	}
	if got := overlaps(session); len(got) != 0 {
		t.Fatalf("∩s conjunction filed TTP overlap disclosures %+v", got)
	}
}

// rigFinalTTP makes the final conjunction's TTP, P0, dishonest toward
// one member: the verdict meant for target is replaced by forge's
// positions, given the true ones and the number of tags target
// submitted. The forged verdict goes first, so target acts on it.
func rigFinalTTP(t *testing.T, r *rig, target string, forge func(common []int, submitted int) []int) {
	t.Helper()
	ttp := r.nodes["P0"].Mailbox()
	var (
		mu        sync.Mutex
		submitted int
		forged    atomic.Bool
	)
	r.net.SetDropFn(func(m transport.Message) bool {
		switch {
		case m.Type == msgFinalSubmit && m.From == target:
			var sub tagSubmission
			if err := transport.Unmarshal(m.Payload, &sub); err != nil {
				t.Error(err)
			}
			mu.Lock()
			submitted = len(sub.tags)
			mu.Unlock()
		case m.Type == msgFinalVerdict && m.To == target && forged.CompareAndSwap(false, true):
			var v positionList
			if err := transport.Unmarshal(m.Payload, &v); err != nil {
				t.Error(err)
			}
			mu.Lock()
			lie := positionList(forge(v, submitted))
			mu.Unlock()
			// This call sits inside P0's send of the true verdict, so the
			// lie is delivered first from a goroutine of its own.
			done := make(chan error, 1)
			go func() {
				done <- ttp.SendBody(context.Background(), target, msgFinalVerdict, m.Session, &lie)
			}()
			if err := <-done; err != nil {
				t.Error(err)
			}
		}
		return false
	})
	t.Cleanup(func() { r.net.SetDropFn(nil) })
}

// assertCertRejected runs criteria as a certified query, which must
// return want, and requires that VerifyResult refuses it.
func assertCertRejected(t *testing.T, r *rig, criteria string, want []logmodel.GLSN) {
	t.Helper()
	glsns, session, cert, err := r.auditor.QueryCertified(testCtx(t), criteria)
	if err != nil {
		t.Fatal(err)
	}
	assertGLSNs(t, glsns, want)
	if err := VerifyResult(r.boot.PeerKeys, session, glsns, cert); !errors.Is(err, ErrBadResultCert) {
		t.Fatalf("result %v from a rigged TTP verified: err = %v", glsns, err)
	}
}

// TestFinalTTPSplitVerdictRejected rigs the TTP to send one member of
// a two-member conjunction fewer positions than the other: the members
// sign different lists, and the certificate does not verify.
func TestFinalTTPSplitVerdictRejected(t *testing.T) {
	r := newRig(t)
	// protocl = "UDP" (P3) AND id = "U1" (P1): rows 0 and 2; P1 is the
	// receiver, and P3 is told only one of them.
	rigFinalTTP(t, r, "P3", func(common []int, _ int) []int {
		if len(common) != 2 {
			t.Errorf("true verdict %v, want two positions", common)
			return common
		}
		return common[1:]
	})
	assertCertRejected(t, r, `protocl = "UDP" AND id = "U1"`, glsnsOf(0, 2))
}

// TestFinalTTPAddedPositionRejected rigs the TTP to claim, to the
// receiver alone, that a glsn the other member does not hold is
// common. The receiver returns it, but the other member cannot map a
// tag it never submitted, so the certificate does not verify: what a
// certificate covers is always inside every member's set.
func TestFinalTTPAddedPositionRejected(t *testing.T) {
	r := newRig(t)
	// protocl = "UDP" (P3): rows 0, 1, 2. id = "U2" (P1, the receiver):
	// rows 1, 3. Common: row 1; row 3 is P1's alone.
	rigFinalTTP(t, r, "P1", func(common []int, submitted int) []int {
		if len(common) != 1 || submitted != 2 {
			t.Errorf("true verdict %v of %d tags, want one of two", common, submitted)
		}
		return []int{0, 1}
	})
	assertCertRejected(t, r, `protocl = "UDP" AND id = "U2"`, glsnsOf(1, 3))
	// An honest run of the same criterion still certifies.
	r.net.SetDropFn(nil)
	glsns, session, cert, err := r.auditor.QueryCertified(testCtx(t), `protocl = "UDP" AND id = "U2"`)
	if err != nil {
		t.Fatal(err)
	}
	assertGLSNs(t, glsns, glsnsOf(1))
	if err := VerifyResult(r.boot.PeerKeys, session, glsns, cert); err != nil {
		t.Fatal(err)
	}
}
