package cluster

import (
	"hash/maphash"
	"slices"

	"confaudit/internal/logmodel"
)

// Attribute value indexes: per attribute of the node's A_i, a map from
// an indexed value key to the sorted run of glsns whose fragment stores
// that value. They are the fragstore's third part. The audit engine
// consults them through IndexLookup to answer equality predicates
// without scanning every fragment.
//
// The index must agree bit-for-bit with logmodel.Compare, which has
// three behaviours a naive value→string key would get wrong:
//
//   - ints and floats compare through float64, so Value{I: 3} equals
//     Value{F: 3.0} — keys for numeric values are the canonical float64
//     bits, not the rendered text;
//   - a stored NaN compares EQUAL to every numeric (neither < nor >
//     holds), which no hash key can model — NaN values poison the
//     attribute's index and force the scan path;
//   - comparing a string to a numeric is an error the query must
//     surface, so a lookup whose constant's class differs from any
//     stored value's class also falls back to the scan path.
//
// An index holds no heap object per value, so the collector has nothing
// per value to scan. Numeric keys key a map of pointer-free runs
// directly. String keys live in the index's byte arena: a map from the
// key's 64-bit hash leads to a chain of pointer-free string keys, each
// confirmed by comparing its bytes. A run of one glsn sits inline in
// its key; only a run of two or more owns a slice.
type attrIndex struct {
	strings  int // fragments storing a string value for the attribute
	numerics int // fragments storing an int or float value
	nans     int // fragments storing a value no key represents (poisons the index)

	nums map[uint64]idxRun // canonical float64 bits → run

	strs   map[uint64]int32 // string hash → the first key of its chain in skeys
	skeys  []strKey         // string keys; a removed key's slot goes on sfree
	sfree  []int32
	sbytes []byte // the string keys' bytes
	sdead  int    // bytes of sbytes no key holds any more

	runs  [][]logmodel.GLSN // runs of two or more glsns, each ascending; a freed slot goes on rfree
	rfree []int32
}

// idxRun is one key's glsn run: its one glsn inline, or a run of two
// or more in attrIndex.runs.
type idxRun struct {
	g     logmodel.GLSN // the run's glsn when multi is 0
	multi int32         // 1 + the run's index in runs; 0 for an inline run
}

// strKey is one string key: its bytes in sbytes and its run.
type strKey struct {
	off  int
	n    uint32
	next int32 // the next key of the hash chain; -1 ends it
	run  idxRun
}

// keyClass is how the index keys a value.
type keyClass uint8

const (
	keyNone keyClass = iota // no key represents it faithfully (NaN, unknown kind)
	keyNum                  // int or float, keyed by its canonical float64 bits
	keyStr                  // string, keyed by its bytes
)

// valueKey is one fragment value as its attribute's index keys it. The
// item walk (viewItem) writes one per value; the A_node check
// (Node.admitItem) resolves its slot; install consumes it.
type valueKey struct {
	attr  []byte // the attribute's name, a slice of the item run
	str   []byte // keyStr: the value, a slice of the item run
	bits  uint64 // keyNum: the canonical float64 bits
	slot  int32  // the attribute's index in the node's sorted A_i; -1 until resolved
	class keyClass
}

// indexKey keys one value of attribute attr.
func indexKey(attr []byte, v rawValue) valueKey {
	k := valueKey{attr: attr, slot: -1}
	if v.kind == logmodel.KindString {
		k.class, k.str = keyStr, v.s
	} else if bits, ok := logmodel.NumericKey(v.kind, v.i, v.f); ok {
		k.class, k.bits = keyNum, bits
	}
	return k
}

// attrSlot returns the slot of attribute a in the sorted attrs, looking
// from slot from on; callers walk a fragment's attributes in their
// sorted order and pass the last slot on. When a is absent, it returns
// the slot a would take and false.
func attrSlot(attrs []logmodel.Attr, a []byte, from int) (int, bool) {
	for j := from; j < len(attrs); j++ {
		if string(attrs[j]) == string(a) {
			return j, true
		}
		if string(attrs[j]) > string(a) {
			return j, false
		}
	}
	return len(attrs), false
}

// strKeySeed seeds every index's string hash.
var strKeySeed = maphash.MakeSeed()

// strHash is a string key's hash, narrowed by the store's hashMask.
// maphash.Bytes and maphash.String agree on equal contents.
func strHash[S []byte | string](s *fragstore, key S) uint64 {
	if b, ok := any(key).([]byte); ok {
		return maphash.Bytes(strKeySeed, b) & s.hashMask
	}
	return maphash.String(strKeySeed, string(key)) & s.hashMask
}

// indexAdd registers g's values, keyed and slotted by the item walk and
// the A_node check.
func (s *fragstore) indexAdd(g logmodel.GLSN, keys []valueKey) {
	for i := range keys {
		k := &keys[i]
		ix := &s.idx[k.slot]
		switch k.class {
		case keyNone:
			ix.nans++
		case keyNum:
			ix.numerics++
			ix.addNum(k.bits, g)
		case keyStr:
			ix.strings++
			ix.addStr(strHash(s, k.str), k.str, g)
		}
	}
}

// indexRemove unregisters the values of g's held run, walking it once.
func (s *fragstore) indexRemove(g logmodel.GLSN, run []byte) {
	slot := 0
	eachValue(run, func(a []byte, val rawValue) {
		var ok bool
		if slot, ok = attrSlot(s.attrs, a, slot); !ok {
			return // the A_node check keeps such a value out of the store
		}
		ix := &s.idx[slot]
		switch k := indexKey(a, val); k.class {
		case keyNone:
			ix.nans--
		case keyNum:
			ix.numerics--
			ix.dropNum(k.bits, g)
		case keyStr:
			ix.strings--
			ix.dropStr(strHash(s, k.str), k.str, g)
		}
		if ix.empty() {
			ix.reset()
		}
	})
}

// empty reports whether no held fragment stores a value in the index.
func (ix *attrIndex) empty() bool { return ix.strings+ix.numerics+ix.nans == 0 }

// reset empties an index that holds no value, keeping its storage for
// the attribute's next values. Its maps are empty already, and every
// slot of runs is nil: each key left with its last glsn.
func (ix *attrIndex) reset() {
	ix.skeys, ix.sfree, ix.sbytes, ix.sdead = ix.skeys[:0], ix.sfree[:0], ix.sbytes[:0], 0
	ix.runs, ix.rfree = ix.runs[:0], ix.rfree[:0]
}

// add puts g into run r and returns the run.
func (ix *attrIndex) add(r idxRun, g logmodel.GLSN) idxRun {
	if r.multi == 0 {
		if r.g == g {
			return r
		}
		gs := []logmodel.GLSN{r.g, g}
		if g < r.g {
			gs[0], gs[1] = g, r.g
		}
		var i int32
		if k := len(ix.rfree); k > 0 {
			i, ix.rfree = ix.rfree[k-1], ix.rfree[:k-1]
			ix.runs[i] = gs
		} else {
			i = int32(len(ix.runs))
			ix.runs = append(ix.runs, gs)
		}
		return idxRun{multi: i + 1}
	}
	gs := ix.runs[r.multi-1]
	// Ascending installs append; any other insert binary-searches.
	if gs[len(gs)-1] < g {
		ix.runs[r.multi-1] = append(gs, g)
	} else if i, found := slices.BinarySearch(gs, g); !found {
		ix.runs[r.multi-1] = slices.Insert(gs, i, g)
	}
	return r
}

// drop takes g out of run r, returning the run and whether it is now
// empty. A run left with one glsn goes back inline.
func (ix *attrIndex) drop(r idxRun, g logmodel.GLSN) (idxRun, bool) {
	if r.multi == 0 {
		return r, r.g == g
	}
	i := r.multi - 1
	gs := ix.runs[i]
	if j, found := slices.BinarySearch(gs, g); found {
		gs = slices.Delete(gs, j, j+1)
	}
	if len(gs) > 1 {
		ix.runs[i] = gs
		return r, false
	}
	ix.runs[i] = nil
	ix.rfree = append(ix.rfree, i)
	return idxRun{g: gs[0]}, false
}

// glsns returns a copy of run r's glsns.
func (ix *attrIndex) glsns(r idxRun) []logmodel.GLSN {
	if r.multi == 0 {
		return []logmodel.GLSN{r.g}
	}
	return slices.Clone(ix.runs[r.multi-1])
}

func (ix *attrIndex) addNum(bits uint64, g logmodel.GLSN) {
	if ix.nums == nil {
		ix.nums = make(map[uint64]idxRun)
	}
	r, ok := ix.nums[bits]
	if !ok {
		ix.nums[bits] = idxRun{g: g}
	} else if r2 := ix.add(r, g); r2 != r {
		ix.nums[bits] = r2
	}
}

func (ix *attrIndex) dropNum(bits uint64, g logmodel.GLSN) {
	r, ok := ix.nums[bits]
	if !ok {
		return
	}
	switch r2, empty := ix.drop(r, g); {
	case empty:
		delete(ix.nums, bits)
	case r2 != r:
		ix.nums[bits] = r2
	}
}

// strKeyOf returns the index in skeys of the string key s hashed to h,
// or -1.
func strKeyOf[S []byte | string](ix *attrIndex, h uint64, s S) int32 {
	i, ok := ix.strs[h]
	if !ok {
		return -1
	}
	for ; i >= 0; i = ix.skeys[i].next {
		if k := &ix.skeys[i]; string(ix.sbytes[k.off:k.off+int(k.n)]) == string(s) {
			return i
		}
	}
	return -1
}

func (ix *attrIndex) addStr(h uint64, s []byte, g logmodel.GLSN) {
	if i := strKeyOf(ix, h, s); i >= 0 {
		k := &ix.skeys[i]
		k.run = ix.add(k.run, g)
		return
	}
	if ix.strs == nil {
		ix.strs = make(map[uint64]int32)
	}
	next, ok := ix.strs[h]
	if !ok {
		next = -1
	}
	k := strKey{off: len(ix.sbytes), n: uint32(len(s)), next: next, run: idxRun{g: g}}
	ix.sbytes = append(ix.sbytes, s...)
	var i int32
	if n := len(ix.sfree); n > 0 {
		i, ix.sfree = ix.sfree[n-1], ix.sfree[:n-1]
		ix.skeys[i] = k
	} else {
		i = int32(len(ix.skeys))
		ix.skeys = append(ix.skeys, k)
	}
	ix.strs[h] = i // the new key heads its chain
}

func (ix *attrIndex) dropStr(h uint64, s []byte, g logmodel.GLSN) {
	i := strKeyOf(ix, h, s)
	if i < 0 {
		return
	}
	k := &ix.skeys[i]
	r, empty := ix.drop(k.run, g)
	if !empty {
		k.run = r
		return
	}
	// Unlink the key from its chain and free its slot.
	if head := ix.strs[h]; head == i {
		if k.next < 0 {
			delete(ix.strs, h)
		} else {
			ix.strs[h] = k.next
		}
	} else {
		p := head
		for ix.skeys[p].next != i {
			p = ix.skeys[p].next
		}
		ix.skeys[p].next = k.next
	}
	ix.sdead += int(k.n)
	*k = strKey{next: -1} // n == 0: compaction copies nothing for it
	ix.sfree = append(ix.sfree, i)
	ix.compactStrings()
}

// compactStrings copies the live string keys into a fresh arena once
// removed keys' bytes outweigh them and fill at least a few KiB, so the
// arena stays within twice its live bytes at amortized O(1) a byte.
func (ix *attrIndex) compactStrings() {
	if ix.sdead < 4<<10 || ix.sdead <= len(ix.sbytes)-ix.sdead {
		return
	}
	fresh := make([]byte, 0, len(ix.sbytes)-ix.sdead)
	for i := range ix.skeys {
		k := &ix.skeys[i]
		off := len(fresh)
		fresh = append(fresh, ix.sbytes[k.off:k.off+int(k.n)]...)
		k.off = off
	}
	ix.sbytes, ix.sdead = fresh, 0
}

// IndexLookup returns the glsns whose fragment stores exactly v for the
// attribute, sorted ascending, in a slice the caller owns. ok is false
// when the index cannot answer faithfully — disabled, NaN anywhere in
// the comparison, or a constant whose class differs from some stored
// value's class (the scan path then reproduces Compare's cross-class
// error semantics).
func (n *Node) IndexLookup(attr logmodel.Attr, v logmodel.Value) ([]logmodel.GLSN, bool) {
	if n.idxOff.Load() {
		return nil, false
	}
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.frags.lookup(attr, v)
}

// lookup answers IndexLookup from the store's index.
func (s *fragstore) lookup(attr logmodel.Attr, v logmodel.Value) ([]logmodel.GLSN, bool) {
	slot, ok := slices.BinarySearch(s.attrs, attr)
	if !ok || s.idx[slot].empty() {
		// No held fragment stores the attribute: a scan would find every
		// fragment missing it, which Pred.Eval treats as a clean false.
		return nil, true
	}
	ix := &s.idx[slot]
	if ix.nans > 0 {
		return nil, false // stored NaN compares equal to every numeric
	}
	var r idxRun
	if v.Kind == logmodel.KindString {
		if ix.numerics > 0 {
			return nil, false // cross-class comparison errors under Compare
		}
		i := strKeyOf(ix, strHash(s, v.S), v.S)
		if i < 0 {
			return nil, true
		}
		r = ix.skeys[i].run
	} else if bits, isNum := logmodel.NumericKey(v.Kind, v.I, v.F); isNum {
		if ix.strings > 0 {
			return nil, false // cross-class comparison errors under Compare
		}
		if r, ok = ix.nums[bits]; !ok {
			return nil, true
		}
	} else {
		return nil, false // NaN constant
	}
	return ix.glsns(r), true
}

// SetIndexDisabled forces IndexLookup to decline, sending every audit
// predicate down the scan path — the hook equivalence tests use to
// compare indexed and scanned query results.
func (n *Node) SetIndexDisabled(off bool) { n.idxOff.Store(off) }
