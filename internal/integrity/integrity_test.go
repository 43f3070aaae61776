package integrity

import (
	"context"
	"crypto/rand"
	"errors"
	"math/big"
	"sync"
	"testing"
	"time"

	"confaudit/internal/crypto/accumulator"
	"confaudit/internal/logmodel"
	"confaudit/internal/transport"
)

// memStore is a minimal Store for tests. Like a cluster node, it keeps
// each record's digest exponent dexp as the writer ships it, and
// derives the digest X0^dexp from it.
type memStore struct {
	params *accumulator.Params
	mu     sync.RWMutex
	frags  map[logmodel.GLSN]logmodel.Fragment
	exps   map[logmodel.GLSN]*big.Int
}

func newMemStore(params *accumulator.Params) *memStore {
	return &memStore{
		params: params,
		frags:  make(map[logmodel.GLSN]logmodel.Fragment),
		exps:   make(map[logmodel.GLSN]*big.Int),
	}
}

func (s *memStore) Fragment(g logmodel.GLSN) (logmodel.Fragment, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	f, ok := s.frags[g]
	return f, ok
}

// DigestExp returns the digest exponent the writer shipped for g.
func (s *memStore) DigestExp(g logmodel.GLSN) (*big.Int, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	e, ok := s.exps[g]
	return e, ok
}

func (s *memStore) Digest(g logmodel.GLSN) (*big.Int, bool) {
	e, ok := s.DigestExp(g)
	if !ok {
		return nil, false
	}
	return s.params.PowX0(e), true
}

type rig struct {
	ring   []string
	params *accumulator.Params
	stores map[string]*memStore
	mbs    map[string]*transport.Mailbox
	net    *transport.MemNetwork
	cancel context.CancelFunc
}

// clientMailbox attaches an external client to the rig's network.
func (r *rig) clientMailbox(t *testing.T) *transport.Mailbox {
	t.Helper()
	ep, err := r.net.Endpoint("client")
	if err != nil {
		t.Fatal(err)
	}
	mb := transport.NewMailbox(ep)
	t.Cleanup(func() { mb.Close() }) //nolint:errcheck
	return mb
}

func newRig(t testing.TB, n int) *rig {
	t.Helper()
	params, err := accumulator.GenerateParams(rand.Reader, 256)
	if err != nil {
		t.Fatal(err)
	}
	net := transport.NewMemNetwork()
	ctx, cancel := context.WithCancel(context.Background())
	r := &rig{
		params: params,
		stores: make(map[string]*memStore),
		mbs:    make(map[string]*transport.Mailbox),
		net:    net,
		cancel: cancel,
	}
	for i := 0; i < n; i++ {
		id := "P" + string(rune('0'+i))
		r.ring = append(r.ring, id)
		ep, err := net.Endpoint(id)
		if err != nil {
			t.Fatal(err)
		}
		r.mbs[id] = transport.NewMailbox(ep)
		r.stores[id] = newMemStore(params)
	}
	var wg sync.WaitGroup
	for _, id := range r.ring {
		wg.Add(1)
		go func(id string) {
			defer wg.Done()
			Serve(ctx, r.mbs[id], r.ring, params, r.stores[id]) //nolint:errcheck
		}(id)
	}
	t.Cleanup(func() {
		cancel()
		for _, mb := range r.mbs {
			mb.Close() //nolint:errcheck
		}
		net.Close() //nolint:errcheck
		wg.Wait()
	})
	return r
}

// logRecord fragments a record across the rig and installs the digest
// exponent everywhere, as a cluster writer does (§4.1): the product of
// every fragment's hash exponent, whose X0 power is the digest.
func (r *rig) logRecord(t testing.TB, ex *logmodel.PaperExample, rec logmodel.Record) {
	t.Helper()
	frags := ex.Partition.Split(rec)
	items := make([][]byte, 0, len(frags))
	for _, node := range ex.Partition.Nodes() {
		items = append(items, frags[node].Canonical())
	}
	var scratch accumulator.DigestScratch
	dexp := new(big.Int).Set(scratch.Exponent(items))
	for node, frag := range frags {
		s := r.stores[node]
		s.mu.Lock()
		s.frags[rec.GLSN] = frag
		s.exps[rec.GLSN] = dexp
		s.mu.Unlock()
	}
}

func testCtx(t *testing.T) context.Context {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	t.Cleanup(cancel)
	return ctx
}

func TestCheckCleanRecord(t *testing.T) {
	ex, err := logmodel.NewPaperExample()
	if err != nil {
		t.Fatal(err)
	}
	r := newRig(t, 4)
	ctx := testCtx(t)
	for _, rec := range ex.Records {
		r.logRecord(t, ex, rec)
	}
	// Any node can initiate the check, for any record.
	for _, initiator := range r.ring {
		for _, rec := range ex.Records {
			if err := Check(ctx, r.mbs[initiator], r.ring, r.params, r.stores[initiator], rec.GLSN); err != nil {
				t.Fatalf("clean record %s flagged from %s: %v", rec.GLSN, initiator, err)
			}
		}
	}
}

func TestCheckDetectsTamperedFragment(t *testing.T) {
	ex, err := logmodel.NewPaperExample()
	if err != nil {
		t.Fatal(err)
	}
	r := newRig(t, 4)
	ctx := testCtx(t)
	rec := ex.Records[0]
	r.logRecord(t, ex, rec)

	// A compromised P2 silently modifies its fragment (changes the
	// transaction ID).
	s := r.stores["P2"]
	s.mu.Lock()
	frag := s.frags[rec.GLSN]
	frag.Values["Tid"] = logmodel.String("T9999999")
	s.frags[rec.GLSN] = frag
	s.mu.Unlock()

	for _, initiator := range r.ring {
		err = Check(ctx, r.mbs[initiator], r.ring, r.params, r.stores[initiator], rec.GLSN)
		if !errors.Is(err, ErrDigestMismatch) {
			t.Fatalf("check from %s: err = %v, want ErrDigestMismatch", initiator, err)
		}
	}
}

func TestCheckDetectsDeletedFragment(t *testing.T) {
	ex, err := logmodel.NewPaperExample()
	if err != nil {
		t.Fatal(err)
	}
	r := newRig(t, 4)
	ctx := testCtx(t)
	rec := ex.Records[1]
	r.logRecord(t, ex, rec)

	s := r.stores["P3"]
	s.mu.Lock()
	delete(s.frags, rec.GLSN)
	s.mu.Unlock()

	err = Check(ctx, r.mbs["P0"], r.ring, r.params, r.stores["P0"], rec.GLSN)
	if !errors.Is(err, ErrFragmentMissing) {
		t.Fatalf("err = %v, want ErrFragmentMissing", err)
	}
}

func TestCheckNoDigest(t *testing.T) {
	ex, err := logmodel.NewPaperExample()
	if err != nil {
		t.Fatal(err)
	}
	r := newRig(t, 4)
	ctx := testCtx(t)
	rec := ex.Records[2]
	// Install fragments but no digests.
	frags := ex.Partition.Split(rec)
	for node, frag := range frags {
		s := r.stores[node]
		s.mu.Lock()
		s.frags[rec.GLSN] = frag
		s.mu.Unlock()
	}
	err = Check(ctx, r.mbs["P1"], r.ring, r.params, r.stores["P1"], rec.GLSN)
	if !errors.Is(err, ErrNoDigest) {
		t.Fatalf("err = %v, want ErrNoDigest", err)
	}
}

func TestCheckAllSweep(t *testing.T) {
	ex, err := logmodel.NewPaperExample()
	if err != nil {
		t.Fatal(err)
	}
	r := newRig(t, 4)
	ctx := testCtx(t)
	glsns := make([]logmodel.GLSN, 0, len(ex.Records))
	for _, rec := range ex.Records {
		r.logRecord(t, ex, rec)
		glsns = append(glsns, rec.GLSN)
	}
	// Tamper with exactly one record on one node.
	s := r.stores["P1"]
	s.mu.Lock()
	frag := s.frags[ex.Records[3].GLSN]
	frag.Values["C2"] = logmodel.Float(0.01)
	s.frags[ex.Records[3].GLSN] = frag
	s.mu.Unlock()

	rep := CheckAll(ctx, r.mbs["P0"], r.ring, r.params, r.stores["P0"], glsns)
	if rep.Checked != 5 {
		t.Fatalf("checked %d, want 5", rep.Checked)
	}
	if len(rep.Corrupted) != 1 || rep.Corrupted[0] != ex.Records[3].GLSN {
		t.Fatalf("corrupted = %v, want [%s]", rep.Corrupted, ex.Records[3].GLSN)
	}
	if len(rep.Errors) != 0 {
		t.Fatalf("unexpected errors: %v", rep.Errors)
	}
	if rep.Clean() {
		t.Fatal("report with corruption claims clean")
	}
}

func TestConcurrentChecksFromAllNodes(t *testing.T) {
	ex, err := logmodel.NewPaperExample()
	if err != nil {
		t.Fatal(err)
	}
	r := newRig(t, 4)
	ctx := testCtx(t)
	for _, rec := range ex.Records {
		r.logRecord(t, ex, rec)
	}
	var wg sync.WaitGroup
	for _, initiator := range r.ring {
		wg.Add(1)
		go func(initiator string) {
			defer wg.Done()
			for _, rec := range ex.Records {
				if err := Check(ctx, r.mbs[initiator], r.ring, r.params, r.stores[initiator], rec.GLSN); err != nil {
					t.Errorf("%s checking %s: %v", initiator, rec.GLSN, err)
				}
			}
		}(initiator)
	}
	wg.Wait()
}

func TestCheckNotInRing(t *testing.T) {
	r := newRig(t, 3)
	ctx := testCtx(t)
	net := transport.NewMemNetwork()
	defer net.Close() //nolint:errcheck
	ep, err := net.Endpoint("outsider")
	if err != nil {
		t.Fatal(err)
	}
	mb := transport.NewMailbox(ep)
	defer mb.Close() //nolint:errcheck
	if err := Check(ctx, mb, r.ring, r.params, newMemStore(r.params), 1); err == nil {
		t.Fatal("outsider check accepted")
	}
}

// TestCheckDetectsWipeBesideEmptyFragment wipes a fragment of a record
// that already has empty fragments. The record populates only P0's and
// P1's attributes, so P2 and P3 hold empty fragments; wiping P1's values
// leaves P1 an empty fragment too, whose hash already divides dexp. The
// circulation folds each node's fragment once, so it reports the record
// corrupted from every initiator.
func TestCheckDetectsWipeBesideEmptyFragment(t *testing.T) {
	ex, err := logmodel.NewPaperExample()
	if err != nil {
		t.Fatal(err)
	}
	r := newRig(t, 4)
	ctx := testCtx(t)
	rec := logmodel.Record{GLSN: 0x139aef90, Values: map[logmodel.Attr]logmodel.Value{
		"time": logmodel.String("20:18:35/05/12/2002"),
		"id":   logmodel.String("U1"),
	}}
	r.logRecord(t, ex, rec)
	if err := Check(ctx, r.mbs["P0"], r.ring, r.params, r.stores["P0"], rec.GLSN); err != nil {
		t.Fatalf("clean record with empty fragments flagged: %v", err)
	}

	s := r.stores["P1"]
	s.mu.Lock()
	frag := s.frags[rec.GLSN]
	frag.Values = map[logmodel.Attr]logmodel.Value{}
	s.frags[rec.GLSN] = frag
	s.mu.Unlock()
	for _, id := range r.ring {
		rep := CheckAll(ctx, r.mbs[id], r.ring, r.params, r.stores[id], []logmodel.GLSN{rec.GLSN})
		if len(rep.Corrupted) != 1 {
			t.Errorf("check from %s: corrupted=%v errors=%v, want the wiped record corrupted", id, rep.Corrupted, rep.Errors)
		}
	}
}

// TestCheckDetectsCopiedFragment replaces P2's fragment of a record
// with P1's. The copy's hash divides the record's digest exponent like
// P1's own, so no node can tell it from its own fragment by division;
// the circulation folds P1's fragment twice and P2's never, and
// reports the record corrupted from every initiator.
func TestCheckDetectsCopiedFragment(t *testing.T) {
	ex, err := logmodel.NewPaperExample()
	if err != nil {
		t.Fatal(err)
	}
	r := newRig(t, 4)
	ctx := testCtx(t)
	rec := ex.Records[0]
	r.logRecord(t, ex, rec)

	copied, _ := r.stores["P1"].Fragment(rec.GLSN)
	s := r.stores["P2"]
	s.mu.Lock()
	s.frags[rec.GLSN] = copied
	s.mu.Unlock()
	for _, id := range r.ring {
		if err := Check(ctx, r.mbs[id], r.ring, r.params, r.stores[id], rec.GLSN); !errors.Is(err, ErrDigestMismatch) {
			t.Errorf("Check from %s: err = %v, want ErrDigestMismatch", id, err)
		}
		rep := CheckAll(ctx, r.mbs[id], r.ring, r.params, r.stores[id], []logmodel.GLSN{rec.GLSN})
		if len(rep.Corrupted) != 1 || len(rep.Errors) != 0 {
			t.Errorf("CheckAll from %s: corrupted=%v errors=%v, want the record corrupted", id, rep.Corrupted, rep.Errors)
		}
	}
}

// TestCheckAllDeadPeerIsNoVerdict closes P2's mailbox and sweeps intact
// records from every other node under a short deadline. No circulation
// completes, so none gives a verdict: every record lands in Errors and
// none in Corrupted.
func TestCheckAllDeadPeerIsNoVerdict(t *testing.T) {
	ex, err := logmodel.NewPaperExample()
	if err != nil {
		t.Fatal(err)
	}
	r := newRig(t, 4)
	glsns := make([]logmodel.GLSN, 0, len(ex.Records))
	for _, rec := range ex.Records {
		r.logRecord(t, ex, rec)
		glsns = append(glsns, rec.GLSN)
	}
	r.mbs["P2"].Close() //nolint:errcheck
	for _, id := range []string{"P0", "P1", "P3"} {
		ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
		rep := CheckAll(ctx, r.mbs[id], r.ring, r.params, r.stores[id], glsns)
		cancel()
		if len(rep.Corrupted) != 0 || len(rep.Errors) != len(glsns) {
			t.Errorf("sweep from %s with P2 down: corrupted=%v errors=%v, want every record in errors", id, rep.Corrupted, rep.Errors)
		}
	}
}

// BenchmarkCheckAllSweep sweeps 1,000 intact records from one node of a
// 4-node memnet ring with a 256-bit accumulator: every record costs one
// circulation, checkAllParallelism of them in flight at once.
func BenchmarkCheckAllSweep(b *testing.B) {
	ex, err := logmodel.NewPaperExample()
	if err != nil {
		b.Fatal(err)
	}
	r := newRig(b, 4)
	glsns := make([]logmodel.GLSN, 1000)
	for i := range glsns {
		rec := ex.Records[i%len(ex.Records)]
		rec.GLSN = logmodel.GLSN(1 + i)
		r.logRecord(b, ex, rec)
		glsns[i] = rec.GLSN
	}
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if rep := CheckAll(ctx, r.mbs["P0"], r.ring, r.params, r.stores["P0"], glsns); !rep.Clean() {
			b.Fatalf("clean sweep reported corrupted=%v errors=%v", rep.Corrupted, rep.Errors)
		}
	}
}
