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

// witStore layers witnesses and per-method call counters over memStore,
// so tests can prove which protocol actually ran: a circulation folds
// Fragment on every responder, an attest round reads Witness and Digest
// there instead.
type witStore struct {
	*memStore
	cmu       sync.Mutex
	witnesses map[logmodel.GLSN]*big.Int
	fragCalls int
	digCalls  int
	witCalls  int
}

func newWitStore() *witStore {
	return &witStore{memStore: newMemStore(), witnesses: make(map[logmodel.GLSN]*big.Int)}
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

func (s *witStore) Witness(g logmodel.GLSN) (*big.Int, bool) {
	s.cmu.Lock()
	s.witCalls++
	s.cmu.Unlock()
	s.mu.RLock()
	defer s.mu.RUnlock()
	w, ok := s.witnesses[g]
	return w, ok
}

func (s *witStore) resetCounters() {
	s.cmu.Lock()
	s.fragCalls, s.digCalls, s.witCalls = 0, 0, 0
	s.cmu.Unlock()
}

func (s *witStore) counts() (frag, dig, wit int) {
	s.cmu.Lock()
	defer s.cmu.Unlock()
	return s.fragCalls, s.digCalls, s.witCalls
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

// logWitnessRecord installs fragments, digest, and per-node witnesses —
// the client write path in miniature: exponents from WitnessExponents,
// group elements from PowX0 — and zeroes the call counters so a test
// observes only the check it runs.
func (w *witRig) logWitnessRecord(t *testing.T, ex *logmodel.PaperExample, rec logmodel.Record) {
	t.Helper()
	frags := ex.Partition.Split(rec)
	nodes := ex.Partition.Nodes()
	items := make([][]byte, 0, len(nodes))
	for _, node := range nodes {
		items = append(items, frags[node].Canonical())
	}
	wexps, total := w.params.WitnessExponents(items)
	digest := w.params.PowX0(total)
	for i, node := range nodes {
		s := w.stores[node]
		s.mu.Lock()
		s.frags[rec.GLSN] = frags[node]
		s.digests[rec.GLSN] = digest
		s.mu.Unlock()
		s.cmu.Lock()
		s.witnesses[rec.GLSN] = w.params.PowX0(wexps[i])
		s.cmu.Unlock()
	}
	for _, s := range w.stores {
		s.resetCounters()
	}
}

// TestCheckWitnessFastPathSkipsCirculation pins the headline property:
// a clean witness-backed check is one parallel attest round with NO ring
// circulation. Decisively: each responder reads its fragment exactly
// once (the local attest verify); a circulation fold would read it a
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
		t.Fatalf("clean witness-backed record flagged: %v", err)
	}
	for _, id := range w.ring[1:] {
		frag, dig, wit := w.stores[id].counts()
		if frag != 1 || dig != 1 || wit != 1 {
			t.Errorf("responder %s: frag=%d dig=%d wit=%d calls, want 1/1/1 (attest only, no circulation)", id, frag, dig, wit)
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
		t.Fatal("tampered peer fragment not detected through witness path")
	}
	if errors.Is(err, ErrNoDigest) || errors.Is(err, ErrFragmentMissing) {
		t.Fatalf("wrong failure class: %v", err)
	}
}

// TestCheckWitnessDetectsLocalTamper: the initiator's own corrupted
// fragment fails its local witness verify before any message is sent,
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

// TestCheckWitnessFallsBackWithoutPeerWitness: a record whose witness
// is missing on one peer still verifies — the attest round comes back
// non-unanimous and the check falls back to circulation.
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
	delete(s.witnesses, rec.GLSN)
	s.cmu.Unlock()

	if err := Check(ctx, w.mbs["P0"], w.ring, w.params, w.stores["P0"], rec.GLSN); err != nil {
		t.Fatalf("clean record failed after losing one peer witness: %v", err)
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
// witness-backed records never circulates — every responder reads each
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

	if err := CheckLocal(w.params, w.stores["P1"], rec.GLSN); err != nil {
		t.Fatalf("clean local check failed: %v", err)
	}
	// Tampering flips the verdict with no messages involved.
	s := w.stores["P1"]
	s.mu.Lock()
	frag := s.frags[rec.GLSN]
	frag.Values["Tid"] = logmodel.String("T0000000")
	s.frags[rec.GLSN] = frag
	s.mu.Unlock()
	if err := CheckLocal(w.params, s, rec.GLSN); err == nil {
		t.Fatal("tampered local fragment passed CheckLocal")
	}
	// Witness-less records and plain stores report ErrNoWitness.
	if err := CheckLocal(w.params, s, rec.GLSN+999); !errors.Is(err, ErrNoWitness) {
		t.Fatalf("err = %v, want ErrNoWitness", err)
	}
	if err := CheckLocal(w.params, newMemStore(), rec.GLSN); !errors.Is(err, ErrNoWitness) {
		t.Fatalf("plain store: err = %v, want ErrNoWitness", err)
	}
}
