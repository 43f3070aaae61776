package cluster

import (
	"bytes"
	"fmt"
	"maps"
	"math"
	"math/big"
	"math/rand/v2"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"confaudit/internal/logmodel"
	"confaudit/internal/ticket"
)

// TestCompactionSnapshotDeterministic compacts one unchanged durable
// node three times and requires the snapshot segment to come out byte
// for byte the same each time: the store walks its records in glsn
// order, so a snapshot does not depend on map iteration order.
func TestCompactionSnapshotDeterministic(t *testing.T) {
	dir := t.TempDir()
	node := openDurableNode(t, "P1", dir)
	defer node.Close() //nolint:errcheck
	boot := sharedBootstrap(t)
	tk, err := boot.Issuer.Issue("TDET", "det-u", ticket.OpWrite)
	if err != nil {
		t.Fatal(err)
	}
	if err := node.registerTicket(&ticketRegisterBody{Ticket: ToWire(tk)}); err != nil {
		t.Fatal(err)
	}
	const records = 128
	first := node.nextGLSN
	if err := node.applyGrantRange(first, records, tk.ID); err != nil {
		t.Fatal(err)
	}
	if err := node.storeFragmentBatch(storeBatch(t, boot, tk.ID, "P1", first, records)); err != nil {
		t.Fatal(err)
	}
	// The snapshot is the one segment compaction leaves with records in
	// it; the active segment after it holds only its header.
	snapshot := func() []byte {
		t.Helper()
		if err := node.CompactStorage(); err != nil {
			t.Fatal(err)
		}
		segs, err := filepath.Glob(filepath.Join(dir, "seg-*.log"))
		if err != nil {
			t.Fatal(err)
		}
		var largest []byte
		for _, seg := range segs {
			b, err := os.ReadFile(seg)
			if err != nil {
				t.Fatal(err)
			}
			if len(b) > len(largest) {
				largest = b
			}
		}
		return largest
	}
	want := snapshot()
	if len(want) < records*32 {
		t.Fatalf("snapshot of %d bytes cannot hold %d records", len(want), records)
	}
	for i := 0; i < 2; i++ {
		if got := snapshot(); !bytes.Equal(got, want) {
			t.Fatalf("compaction %d of an unchanged node wrote a different snapshot (%d vs %d bytes)", i+2, len(got), len(want))
		}
	}
}

// refRecord is the reference model's view of one held record.
type refRecord struct {
	ver int64  // its version, the value of its "ver" attribute
	run []byte // the run the store must hold
}

// fragModel is the map-based reference a fragstore is checked against.
type fragModel struct {
	recs  map[logmodel.GLSN]refRecord
	elems map[logmodel.GLSN]*big.Int

	mu       sync.Mutex
	versions map[int64]map[logmodel.Attr]logmodel.Value // every version ever written
}

func (m *fragModel) values(ver int64) map[logmodel.Attr]logmodel.Value {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.versions[ver]
}

func (m *fragModel) glsns() []logmodel.GLSN {
	out := make([]logmodel.GLSN, 0, len(m.recs))
	for g := range m.recs {
		out = append(out, g)
	}
	slices.Sort(out)
	return out
}

// lookup is IndexLookup by its definition: the glsns whose value for
// attr Compare calls equal to c, unless a NaN or a cross-class pair
// anywhere in the comparison makes the scan path answer instead. When
// no held fragment stores attr, the answer is a clean empty one.
func (m *fragModel) lookup(attr logmodel.Attr, c logmodel.Value) ([]logmodel.GLSN, bool) {
	if c.Kind == logmodel.KindFloat && math.IsNaN(c.F) {
		for _, r := range m.recs {
			if _, ok := m.values(r.ver)[attr]; ok {
				return nil, false
			}
		}
		return nil, true
	}
	var out []logmodel.GLSN
	for _, g := range m.glsns() {
		v, ok := m.values(m.recs[g].ver)[attr]
		switch {
		case !ok:
			continue
		case v.Kind == logmodel.KindFloat && math.IsNaN(v.F):
			return nil, false
		case (v.Kind == logmodel.KindString) != (c.Kind == logmodel.KindString):
			return nil, false
		}
		if cmp, err := logmodel.Compare(v, c); err == nil && cmp == 0 {
			out = append(out, g)
		}
	}
	return out, true
}

// sameValues compares two value maps bit for bit (NaN included).
func sameValues(a, b map[logmodel.Attr]logmodel.Value) bool {
	if len(a) != len(b) {
		return false
	}
	for k, x := range a {
		y, ok := b[k]
		if !ok || x.Kind != y.Kind || x.S != y.S || x.I != y.I || math.Float64bits(x.F) != math.Float64bits(y.F) {
			return false
		}
	}
	return true
}

var (
	// fragNumerics are stored and probed numeric values: int/float
	// aliases, ±0, the 2^53 boundary and an infinity.
	fragNumerics = []logmodel.Value{
		logmodel.Int(0), logmodel.Float(math.Copysign(0, -1)), logmodel.Float(0),
		logmodel.Int(3), logmodel.Float(3), logmodel.Float(1.5),
		logmodel.Int(1 << 53), logmodel.Int(1<<53 + 1), logmodel.Float(math.Inf(1)),
	}
	fragStrings = []logmodel.Value{logmodel.String("A"), logmodel.String("B"), logmodel.String("")}
	// fragBases spread glsns far apart, so pages come and go.
	fragBases = []logmodel.GLSN{1, 1 << 20, 1 << 40, 1 << 62}
)

// TestFragstoreAgainstModel drives a node's fragstore with random
// installs, overwrites, deletes, tampering, element caching and
// snapshot replays over glsns far apart, while scanners read it with
// VisitFragments and Fragment, and compares GLSNs, Fragment, the held
// runs, visit order, IndexLookup and the cached elements with a
// map-based model. Values mix ints, floats, strings, NaN, ±0 and 2^53,
// and a few runs are large, so table pages are created and dropped and
// the arena compacts several times.
//
// Each seed runs twice: once with the string keys' real hash, and once
// with every string key hashed alike, so that each string lookup,
// insert and removal goes through a collision chain.
func TestFragstoreAgainstModel(t *testing.T) {
	for seed := uint64(1); seed <= 3; seed++ {
		t.Run(fmt.Sprint(seed), func(t *testing.T) { checkFragstore(t, seed, ^uint64(0)) })
		t.Run(fmt.Sprintf("collide-%d", seed), func(t *testing.T) { checkFragstore(t, seed, 0) })
	}
}

// fragAttrs is the A_i of checkFragstore's node: every attribute its
// model writes, sorted.
var fragAttrs = []logmodel.Attr{"a", "big", "n", "ver", "x"}

func checkFragstore(t *testing.T, seed, hashMask uint64) {
	rng := rand.New(rand.NewPCG(seed, 42))
	newStore := func() *fragstore {
		s := newFragstore(fragAttrs)
		s.hashMask = hashMask
		return s
	}
	n := &Node{id: "P1", attrs: fragAttrs, frags: newStore()}
	m := &fragModel{
		recs:     make(map[logmodel.GLSN]refRecord),
		elems:    make(map[logmodel.GLSN]*big.Int),
		versions: make(map[int64]map[logmodel.Attr]logmodel.Value),
	}
	var ver int64
	newValues := func() map[logmodel.Attr]logmodel.Value {
		ver++
		vals := map[logmodel.Attr]logmodel.Value{
			"ver": logmodel.Int(ver),
			"a":   fragStrings[rng.IntN(len(fragStrings))],
			"n":   fragNumerics[rng.IntN(len(fragNumerics))],
		}
		if rng.IntN(40) == 0 {
			vals["n"] = logmodel.Float(math.NaN())
		}
		if rng.IntN(2) == 0 {
			vals["x"] = logmodel.Int(int64(rng.IntN(4)))
			if rng.IntN(30) == 0 {
				vals["x"] = logmodel.String("x")
			}
		}
		if rng.IntN(20) == 0 {
			vals["big"] = logmodel.String(strings.Repeat("z", chunkSize/8+rng.IntN(4096)))
		}
		m.mu.Lock()
		m.versions[ver] = vals
		m.mu.Unlock()
		return vals
	}
	item := func(g logmodel.GLSN, node string, vals map[logmodel.Attr]logmodel.Value) []byte {
		return appendBatchItem(nil, &batchItem{
			Fragment:  logmodel.Fragment{GLSN: g, Node: node, Values: vals},
			DigestExp: big.NewInt(int64(g%1000) + 2),
		})
	}
	// admitted is an item as the store door passes it to install: walked
	// by viewItem, its keys slotted by the A_node check.
	admitted := func(run []byte) itemView {
		v, _, err := viewItem(run, nil)
		if err == nil {
			err = n.admitItem(&v)
		}
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	randGLSN := func() logmodel.GLSN {
		return fragBases[rng.IntN(len(fragBases))] + logmodel.GLSN(rng.IntN(700))
	}
	heldGLSN := func() (logmodel.GLSN, bool) {
		if len(m.recs) == 0 {
			return 0, false
		}
		gs := m.glsns()
		return gs[rng.IntN(len(gs))], true
	}

	// Scanners read runs outside the lock while the loop below mutates
	// the store: every visit must be one whole written version, in
	// ascending glsn order.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var scans atomic.Int64
	scanErr := make(chan error, 2)
	scan := func(glsns func() []logmodel.GLSN) {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			var prev logmodel.GLSN
			first := true
			err := n.VisitFragments(glsns(), func(g logmodel.GLSN, vals map[logmodel.Attr]logmodel.Value) error {
				if !first && g <= prev {
					return fmt.Errorf("visited %s after %s", g, prev)
				}
				first, prev = false, g
				if want := m.values(vals["ver"].I); !sameValues(vals, want) {
					return fmt.Errorf("%s visited as %v, written as %v", g, vals, want)
				}
				return nil
			})
			if err != nil {
				scanErr <- err
				return
			}
			scans.Add(1)
		}
	}
	wg.Add(2)
	go scan(func() []logmodel.GLSN { return nil })
	go scan(func() []logmodel.GLSN {
		return []logmodel.GLSN{fragBases[3] + 5, 1 << 40, 7, fragBases[1] + 300, 2}
	})

	check := func(step int) {
		t.Helper()
		n.mu.RLock()
		defer n.mu.RUnlock()
		want := m.glsns()
		var got []logmodel.GLSN
		n.frags.each(func(g logmodel.GLSN, run []byte) {
			got = append(got, g)
			if r, ok := m.recs[g]; !ok || !bytes.Equal(run, r.run) {
				t.Fatalf("step %d: %s holds a run the model does not", step, g)
			}
		})
		if !slices.Equal(got, want) || n.frags.len() != len(want) {
			t.Fatalf("step %d: store holds %v (len %d), model %v", step, got, n.frags.len(), want)
		}
		for _, g := range append(want, randGLSN(), 0) {
			r, held := m.recs[g]
			run, ok := n.frags.get(g)
			if ok != held || held && !bytes.Equal(run, r.run) {
				t.Fatalf("step %d: get(%s) = %v, model holds %v", step, g, ok, held)
			}
			if n.frags.elem(g) != m.elems[g] {
				t.Fatalf("step %d: cached element of %s differs from the model", step, g)
			}
		}
		for _, attr := range []logmodel.Attr{"ver", "a", "n", "x", "big", "absent"} {
			for _, c := range append(append(slices.Clone(fragNumerics), fragStrings...), logmodel.Float(math.NaN()), logmodel.Int(ver)) {
				got, ok := n.frags.lookup(attr, c)
				want, wantOK := m.lookup(attr, c)
				if ok != wantOK || ok && !slices.Equal(got, want) {
					t.Fatalf("step %d: lookup(%s, %v) = %v %v, model %v %v", step, attr, c, got, ok, want, wantOK)
				}
			}
		}
	}

	var compactions, pageDrops, maxPages int
	for step := 0; step < 2500; step++ {
		n.mu.Lock()
		used, pages := n.frags.arena.used, len(n.frags.pages)
		switch op := rng.IntN(100); {
		case op < 45: // install or overwrite, sometimes stamping
			g := randGLSN()
			if rng.IntN(2) == 0 {
				if h, ok := heldGLSN(); ok {
					g = h
				}
			}
			vals := newValues()
			shipped := "P1"
			if rng.IntN(8) == 0 {
				shipped = "P9"
			}
			v := admitted(item(g, shipped, vals))
			n.frags.install(&v, n.id)
			m.recs[g] = refRecord{ver: ver, run: item(g, "P1", vals)}
			delete(m.elems, g)
		case op < 65: // delete, held or not
			g := randGLSN()
			if rng.IntN(4) != 0 {
				if h, ok := heldGLSN(); ok {
					g = h
				}
			}
			_, held := m.recs[g]
			if n.frags.remove(g) != held {
				t.Fatalf("step %d: remove(%s) disagrees with the model (held %v)", step, g, held)
			}
			if len(n.frags.pages) < pages {
				pageDrops++
			}
			delete(m.recs, g)
			delete(m.elems, g)
		case op < 75: // tamper: a new run, cached elements kept
			g, ok := heldGLSN()
			if !ok {
				break
			}
			vals := maps.Clone(m.values(m.recs[g].ver))
			ver++
			vals["ver"] = logmodel.Int(ver)
			m.mu.Lock()
			m.versions[ver] = vals
			m.mu.Unlock()
			n.mu.Unlock()
			if !n.TamperFragment(g, "ver", logmodel.Int(ver)) {
				t.Fatalf("step %d: tamper of %s failed", step, g)
			}
			n.mu.Lock()
			m.recs[g] = refRecord{ver: ver, run: item(g, "P1", vals)}
		case op < 90: // cache an element for the run g holds
			g, ok := heldGLSN()
			if !ok {
				break
			}
			run, _ := n.frags.get(g)
			elem := big.NewInt(int64(step))
			n.frags.cacheElem(g, run, elem)
			m.elems[g] = elem
		case op < 99: // a stale element: g was overwritten since its run was read
			g, ok := heldGLSN()
			if !ok {
				break
			}
			stale, _ := n.frags.get(g)
			vals := newValues()
			v := admitted(item(g, "P1", vals))
			n.frags.install(&v, n.id)
			m.recs[g] = refRecord{ver: ver, run: item(g, "P1", vals)}
			delete(m.elems, g)
			n.frags.cacheElem(g, stale, big.NewInt(-1))
		default: // replay a compaction snapshot into a fresh store
			fresh := &Node{id: n.id, attrs: fragAttrs, frags: newStore()}
			var journal [][]byte
			n.frags.each(func(_ logmodel.GLSN, run []byte) {
				rec, err := entryRecord(&walEntry{Kind: "frag", Item: &batchItem{view: itemView{run: run}}})
				if err != nil {
					t.Fatal(err)
				}
				journal = append(journal, rec.Data)
			})
			for _, data := range journal {
				e, _, err := decodeWALEntry(data[2:], nil, new(batchItem))
				if err != nil {
					t.Fatal(err)
				}
				if err := fresh.applyWALEntry(e); err != nil {
					t.Fatal(err)
				}
			}
			for _, data := range journal {
				clear(data) // replayed runs must not alias their journal records
			}
			n.frags = fresh.frags
			clear(m.elems)
		}
		if n.frags.arena.used < used {
			compactions++
		}
		maxPages = max(maxPages, len(n.frags.pages))
		n.mu.Unlock()
		if step%250 == 249 {
			check(step)
		}
	}
	for scans.Load() < 10 {
		select {
		case err := <-scanErr:
			t.Fatal(err)
		default:
		}
	}
	close(stop)
	wg.Wait()
	select {
	case err := <-scanErr:
		t.Fatal(err)
	default:
	}
	check(-1)
	// The random walk must have exercised what the model guards.
	if compactions == 0 || pageDrops == 0 || maxPages < 8 {
		t.Fatalf("walk too tame: %d arena compactions, %d page drops, at most %d pages", compactions, pageDrops, maxPages)
	}
	// Node-level readers agree with the store.
	want := m.glsns()
	if got := n.GLSNs(); !slices.Equal(got, want) {
		t.Fatalf("GLSNs = %v, model %v", got, want)
	}
	var visited []logmodel.GLSN
	if err := n.VisitFragments(nil, func(g logmodel.GLSN, vals map[logmodel.Attr]logmodel.Value) error {
		visited = append(visited, g)
		if !sameValues(vals, m.values(m.recs[g].ver)) {
			return fmt.Errorf("%s visited with other values", g)
		}
		return nil
	}); err != nil || !slices.Equal(visited, want) {
		t.Fatalf("VisitFragments visited %v (%v), model %v", visited, err, want)
	}
	for _, g := range want {
		frag, ok := n.Fragment(g)
		if !ok || frag.GLSN != g || frag.Node != "P1" || !sameValues(frag.Values, m.values(m.recs[g].ver)) {
			t.Fatalf("Fragment(%s) = %v %v, model version %d", g, frag, ok, m.recs[g].ver)
		}
	}
}
