package integrity

import (
	"context"
	"errors"
	"math/big"
	"sync"
	"testing"

	"confaudit/internal/crypto/accumulator"
	"confaudit/internal/logmodel"
	"confaudit/internal/transport"
)

// witStore layers digest exponents and per-method call counters over
// memStore, so tests can prove which protocol actually ran: a
// circulation folds Fragment and compares Digest, an attest round
// reads Fragment and DigestExp instead.
type witStore struct {
	*memStore
	cmu       sync.Mutex
	exps      map[logmodel.GLSN]*big.Int
	fragCalls int
	digCalls  int
	expCalls  int
}

func newWitStore() *witStore {
	return &witStore{memStore: newMemStore(), exps: make(map[logmodel.GLSN]*big.Int)}
}

func (s *witStore) Fragment(g logmodel.GLSN) (logmodel.Fragment, bool) {
	s.cmu.Lock()
	s.fragCalls++
	s.cmu.Unlock()
	return s.memStore.Fragment(g)
}

func (s *witStore) Digest(g logmodel.GLSN) (*big.Int, bool) {
	s.cmu.Lock()
	s.digCalls++
	s.cmu.Unlock()
	return s.memStore.Digest(g)
}

func (s *witStore) DigestExp(g logmodel.GLSN) (*big.Int, bool) {
	s.cmu.Lock()
	defer s.cmu.Unlock()
	s.expCalls++
	e, ok := s.exps[g]
	return e, ok
}

func (s *witStore) resetCounters() {
	s.cmu.Lock()
	s.fragCalls, s.digCalls, s.expCalls = 0, 0, 0
	s.cmu.Unlock()
}

func (s *witStore) counts() (frag, dig, exp int) {
	s.cmu.Lock()
	defer s.cmu.Unlock()
	return s.fragCalls, s.digCalls, s.expCalls
}

type witRig struct {
	ring   []string
	params *accumulator.Params
	stores map[string]*witStore
	mbs    map[string]*transport.Mailbox
}

func newWitRig(t *testing.T, n int) *witRig {
	t.Helper()
	base := newRig(t, 0) // network + params only; nodes built below
	w := &witRig{
		params: base.params,
		stores: make(map[string]*witStore),
		mbs:    make(map[string]*transport.Mailbox),
	}
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		id := "P" + string(rune('0'+i))
		w.ring = append(w.ring, id)
		ep, err := base.net.Endpoint(id)
		if err != nil {
			t.Fatal(err)
		}
		w.mbs[id] = transport.NewMailbox(ep)
		w.stores[id] = newWitStore()
	}
	for _, id := range w.ring {
		wg.Add(1)
		go func(id string) {
			defer wg.Done()
			Serve(ctx, w.mbs[id], w.ring, w.params, w.stores[id]) //nolint:errcheck
		}(id)
	}
	t.Cleanup(func() {
		cancel()
		for _, mb := range w.mbs {
			mb.Close() //nolint:errcheck
		}
		wg.Wait()
	})
	return w
}

// logWitnessRecord installs fragments, the digest and its exponent on
// every node — the client write path in miniature: the exponent from
// DigestScratch, the group element from PowX0 — and zeroes the call
// counters so a test observes only the check it runs.
func (w *witRig) logWitnessRecord(t *testing.T, ex *logmodel.PaperExample, rec logmodel.Record) {
	t.Helper()
	frags := ex.Partition.Split(rec)
	nodes := ex.Partition.Nodes()
	items := make([][]byte, 0, len(nodes))
	for _, node := range nodes {
		items = append(items, frags[node].Canonical())
	}
	var scratch accumulator.DigestScratch
	dexp := new(big.Int).Set(scratch.Exponent(items))
	digest := w.params.PowX0(dexp)
	for _, node := range nodes {
		s := w.stores[node]
		s.mu.Lock()
		s.frags[rec.GLSN] = frags[node]
		s.digests[rec.GLSN] = digest
		s.mu.Unlock()
		s.cmu.Lock()
		s.exps[rec.GLSN] = dexp
		s.cmu.Unlock()
	}
	for _, s := range w.stores {
		s.resetCounters()
	}
}

// TestCheckWitnessFastPathSkipsCirculation pins the headline property:
// a clean exponent-backed check is one parallel attest round with NO
// ring circulation. Decisively: each responder reads its fragment and
// its digest exponent exactly once (the local attest verify) and never
// the digest element; a circulation fold would read the fragment a
// second time.
func TestCheckWitnessFastPathSkipsCirculation(t *testing.T) {
	ex, err := logmodel.NewPaperExample()
	if err != nil {
		t.Fatal(err)
	}
	w := newWitRig(t, 4)
	ctx := testCtx(t)
	rec := ex.Records[0]
	w.logWitnessRecord(t, ex, rec)

	if err := Check(ctx, w.mbs["P0"], w.ring, w.params, w.stores["P0"], rec.GLSN); err != nil {
		t.Fatalf("clean exponent-backed record flagged: %v", err)
	}
	for _, id := range w.ring[1:] {
		frag, dig, exp := w.stores[id].counts()
		if frag != 1 || dig != 0 || exp != 1 {
			t.Errorf("responder %s: frag=%d dig=%d exp=%d calls, want 1/0/1 (attest only, no circulation)", id, frag, dig, exp)
		}
	}
}

// TestCheckWitnessDetectsTamperedPeer covers cross-node coverage of the
// fast path: a fragment tampered on a NON-initiator node must still be
// flagged when the check runs elsewhere (the peer's own attest fails,
// and the authoritative circulation confirms the corruption).
func TestCheckWitnessDetectsTamperedPeer(t *testing.T) {
	ex, err := logmodel.NewPaperExample()
	if err != nil {
		t.Fatal(err)
	}
	w := newWitRig(t, 4)
	ctx := testCtx(t)
	rec := ex.Records[0]
	w.logWitnessRecord(t, ex, rec)

	s := w.stores["P2"]
	s.mu.Lock()
	frag := s.frags[rec.GLSN]
	frag.Values["Tid"] = logmodel.String("T9999999")
	s.frags[rec.GLSN] = frag
	s.mu.Unlock()

	err = Check(ctx, w.mbs["P0"], w.ring, w.params, w.stores["P0"], rec.GLSN)
	if err == nil {
		t.Fatal("tampered peer fragment not detected through the attest path")
	}
	if errors.Is(err, ErrNoDigest) || errors.Is(err, ErrFragmentMissing) {
		t.Fatalf("wrong failure class: %v", err)
	}
}

// TestCheckWitnessDetectsLocalTamper: the initiator's own corrupted
// fragment fails its local division check before any message is sent,
// and circulation confirms.
func TestCheckWitnessDetectsLocalTamper(t *testing.T) {
	ex, err := logmodel.NewPaperExample()
	if err != nil {
		t.Fatal(err)
	}
	w := newWitRig(t, 4)
	ctx := testCtx(t)
	rec := ex.Records[1]
	w.logWitnessRecord(t, ex, rec)

	s := w.stores["P0"]
	s.mu.Lock()
	frag := s.frags[rec.GLSN]
	frag.Values["Uid"] = logmodel.String("intruder")
	s.frags[rec.GLSN] = frag
	s.mu.Unlock()

	if err := Check(ctx, w.mbs["P0"], w.ring, w.params, w.stores["P0"], rec.GLSN); err == nil {
		t.Fatal("tampered local fragment not detected")
	}
}

// TestCheckWitnessFallsBackWithoutPeerWitness: a record whose digest
// exponent is missing on one peer still verifies — the attest round
// comes back non-unanimous and the check falls back to circulation.
func TestCheckWitnessFallsBackWithoutPeerWitness(t *testing.T) {
	ex, err := logmodel.NewPaperExample()
	if err != nil {
		t.Fatal(err)
	}
	w := newWitRig(t, 4)
	ctx := testCtx(t)
	rec := ex.Records[2]
	w.logWitnessRecord(t, ex, rec)

	s := w.stores["P2"]
	s.cmu.Lock()
	delete(s.exps, rec.GLSN)
	s.cmu.Unlock()

	if err := Check(ctx, w.mbs["P0"], w.ring, w.params, w.stores["P0"], rec.GLSN); err != nil {
		t.Fatalf("clean record failed after losing one peer's digest exponent: %v", err)
	}
	// The fallback circulated: P1 answered an attest (one fragment read)
	// AND folded the circulation (a second).
	if frag, _, _ := w.stores["P1"].counts(); frag != 2 {
		t.Errorf("responder P1 read its fragment %d times, want 2 (attest + circulation fold)", frag)
	}
}

// TestCheckWitnessMissingPeerFragment: a deleted fragment on a peer
// surfaces as ErrFragmentMissing through fast path plus fallback.
func TestCheckWitnessMissingPeerFragment(t *testing.T) {
	ex, err := logmodel.NewPaperExample()
	if err != nil {
		t.Fatal(err)
	}
	w := newWitRig(t, 4)
	ctx := testCtx(t)
	rec := ex.Records[3]
	w.logWitnessRecord(t, ex, rec)

	s := w.stores["P3"]
	s.mu.Lock()
	delete(s.frags, rec.GLSN)
	s.mu.Unlock()

	err = Check(ctx, w.mbs["P0"], w.ring, w.params, w.stores["P0"], rec.GLSN)
	if !errors.Is(err, ErrFragmentMissing) {
		t.Fatalf("err = %v, want ErrFragmentMissing", err)
	}
}

// TestCheckAllWitnessSweepNoCirculation: a whole-history sweep over
// exponent-backed records never circulates — every responder reads each
// fragment exactly once per record.
func TestCheckAllWitnessSweepNoCirculation(t *testing.T) {
	ex, err := logmodel.NewPaperExample()
	if err != nil {
		t.Fatal(err)
	}
	w := newWitRig(t, 4)
	ctx := testCtx(t)
	glsns := make([]logmodel.GLSN, 0, len(ex.Records))
	for _, rec := range ex.Records {
		w.logWitnessRecord(t, ex, rec)
		glsns = append(glsns, rec.GLSN)
	}
	rep := CheckAll(ctx, w.mbs["P0"], w.ring, w.params, w.stores["P0"], glsns)
	if !rep.Clean() {
		t.Fatalf("clean sweep reported corrupted=%v errors=%v", rep.Corrupted, rep.Errors)
	}
	for _, id := range w.ring[1:] {
		if frag, _, _ := w.stores[id].counts(); frag != len(glsns) {
			t.Errorf("responder %s read fragments %d times for %d records, want one each", id, frag, len(glsns))
		}
	}
}

func TestCheckLocal(t *testing.T) {
	ex, err := logmodel.NewPaperExample()
	if err != nil {
		t.Fatal(err)
	}
	w := newWitRig(t, 4)
	rec := ex.Records[0]
	w.logWitnessRecord(t, ex, rec)

	if err := CheckLocal(w.stores["P1"], rec.GLSN); err != nil {
		t.Fatalf("clean local check failed: %v", err)
	}
	// Tampering flips the verdict with no messages involved.
	s := w.stores["P1"]
	s.mu.Lock()
	frag := s.frags[rec.GLSN]
	frag.Values["Tid"] = logmodel.String("T0000000")
	s.frags[rec.GLSN] = frag
	s.mu.Unlock()
	if err := CheckLocal(s, rec.GLSN); err == nil {
		t.Fatal("tampered local fragment passed CheckLocal")
	}
	// Records without an exponent and plain stores report ErrNoExponent.
	if err := CheckLocal(s, rec.GLSN+999); !errors.Is(err, ErrNoExponent) {
		t.Fatalf("err = %v, want ErrNoExponent", err)
	}
	if err := CheckLocal(newMemStore(), rec.GLSN); !errors.Is(err, ErrNoExponent) {
		t.Fatalf("plain store: err = %v, want ErrNoExponent", err)
	}
}

// TestAttestRoundsInParallel has every ring node sweep the whole history
// at once, so each node answers the other initiators' attest requests
// while running its own local checks. Every sweep must come back clean
// without a single circulation: each node reads each fragment once per
// initiator (its own local check, and one attest answer for each peer).
func TestAttestRoundsInParallel(t *testing.T) {
	ex, err := logmodel.NewPaperExample()
	if err != nil {
		t.Fatal(err)
	}
	w := newWitRig(t, 4)
	ctx := testCtx(t)
	glsns := make([]logmodel.GLSN, 0, len(ex.Records))
	for _, rec := range ex.Records {
		w.logWitnessRecord(t, ex, rec)
		glsns = append(glsns, rec.GLSN)
	}
	var wg sync.WaitGroup
	for _, id := range w.ring {
		wg.Add(1)
		go func(id string) {
			defer wg.Done()
			if rep := CheckAll(ctx, w.mbs[id], w.ring, w.params, w.stores[id], glsns); !rep.Clean() {
				t.Errorf("%s: sweep reported corrupted=%v errors=%v", id, rep.Corrupted, rep.Errors)
			}
		}(id)
	}
	wg.Wait()
	for _, id := range w.ring {
		if frag, dig, _ := w.stores[id].counts(); frag != len(w.ring)*len(glsns) || dig != 0 {
			t.Errorf("%s read fragments %d times and digests %d times, want %d and 0 (attest rounds only)", id, frag, dig, len(w.ring)*len(glsns))
		}
	}
}

// TestCheckDetectsWipeBesideEmptyFragment covers the one tampering the
// division alone cannot see. The record populates only P0's and P1's
// attributes, so P2 and P3 hold empty fragments, and the hash of an
// empty fragment of the glsn divides dexp. Wiping P1's values leaves
// P1 an empty fragment whose hash divides dexp too; the local check
// must give no verdict on it, so Check circulates and reports the
// record corrupted from every initiator.
func TestCheckDetectsWipeBesideEmptyFragment(t *testing.T) {
	ex, err := logmodel.NewPaperExample()
	if err != nil {
		t.Fatal(err)
	}
	w := newWitRig(t, 4)
	ctx := testCtx(t)
	rec := logmodel.Record{GLSN: 0x139aef90, Values: map[logmodel.Attr]logmodel.Value{
		"time": logmodel.String("20:18:35/05/12/2002"),
		"id":   logmodel.String("U1"),
	}}
	w.logWitnessRecord(t, ex, rec)

	// Untouched, the record verifies; the empty fragments send the check
	// to circulation rather than to a verdict of their own.
	if err := CheckLocal(w.stores["P2"], rec.GLSN); err == nil {
		t.Fatal("CheckLocal gave a verdict on an empty fragment")
	}
	if err := Check(ctx, w.mbs["P0"], w.ring, w.params, w.stores["P0"], rec.GLSN); err != nil {
		t.Fatalf("clean record with empty fragments flagged: %v", err)
	}

	s := w.stores["P1"]
	s.mu.Lock()
	frag := s.frags[rec.GLSN]
	frag.Values = map[logmodel.Attr]logmodel.Value{}
	s.frags[rec.GLSN] = frag
	s.mu.Unlock()
	if dexp, _ := s.DigestExp(rec.GLSN); !accumulator.Member(dexp, frag.Canonical()) {
		t.Fatal("the wiped fragment no longer divides dexp: the test no longer covers the case")
	}
	for _, id := range w.ring {
		rep := CheckAll(ctx, w.mbs[id], w.ring, w.params, w.stores[id], []logmodel.GLSN{rec.GLSN})
		if len(rep.Corrupted) != 1 {
			t.Errorf("check from %s: corrupted=%v errors=%v, want the wiped record corrupted", id, rep.Corrupted, rep.Errors)
		}
	}
}
