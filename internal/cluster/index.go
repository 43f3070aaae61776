package cluster

import (
	"encoding/binary"
	"math"
	"slices"

	"confaudit/internal/logmodel"
)

// Attribute value indexes: per attribute, a map from an indexed value
// key to the sorted run of glsns whose fragment stores that value. They
// are the fragstore's third part. The audit engine consults them
// through IndexLookup to answer equality predicates without scanning
// every fragment.
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
type attrIndex struct {
	strings  int // fragments storing a string value for the attribute
	numerics int // fragments storing an int or float value
	nans     int // fragments storing a float NaN (poisons the index)
	// keys maps a value key to its glsn run in runs. A run lives in a
	// slice rather than in the map so that growing it never re-stores
	// (and re-allocates) its key; an emptied run's slot goes on free.
	keys map[string]int32
	runs [][]logmodel.GLSN // each ascending
	free []int32
}

// appendIndexKey appends the class-tagged hash key for a value to dst.
// ok is false for values no key can represent faithfully (NaN).
func appendIndexKey(dst []byte, v rawValue) (key []byte, isString, ok bool) {
	switch v.kind {
	case logmodel.KindString:
		return append(append(dst, 's', 0), v.s...), true, true
	case logmodel.KindInt:
		return appendNumericKey(dst, float64(v.i)), false, true
	case logmodel.KindFloat:
		if math.IsNaN(v.f) {
			return dst, false, false
		}
		return appendNumericKey(dst, v.f), false, true
	default:
		return dst, false, false
	}
}

// appendNumericKey appends a float64's key, its bits, such that two
// numerics get the same key iff logmodel.Compare calls them equal. -0
// normalizes to 0.
func appendNumericKey(dst []byte, f float64) []byte {
	if f == 0 {
		f = 0 // collapse -0.0 and +0.0
	}
	return binary.BigEndian.AppendUint64(append(dst, 'n', 0), math.Float64bits(f))
}

// indexAdd registers the values of g's run. Ascending installs append
// to each run; any other insert binary-searches.
func (s *fragstore) indexAdd(g logmodel.GLSN, run []byte) {
	var buf [32]byte
	eachValue(run, func(attr []byte, val rawValue) {
		ix := s.idx[logmodel.Attr(attr)]
		if ix == nil {
			ix = &attrIndex{keys: make(map[string]int32)}
			s.idx[logmodel.Attr(attr)] = ix
		}
		key, isString, ok := appendIndexKey(buf[:0], val)
		if !ok {
			ix.nans++
			return
		}
		if isString {
			ix.strings++
		} else {
			ix.numerics++
		}
		r, ok := ix.keys[string(key)]
		if !ok {
			if k := len(ix.free); k > 0 {
				r, ix.free = ix.free[k-1], ix.free[:k-1]
			} else {
				r = int32(len(ix.runs))
				ix.runs = append(ix.runs, nil)
			}
			ix.keys[string(key)] = r
		}
		gs := ix.runs[r]
		if n := len(gs); n == 0 || gs[n-1] < g {
			ix.runs[r] = append(gs, g)
		} else if i, found := slices.BinarySearch(gs, g); !found {
			ix.runs[r] = slices.Insert(gs, i, g)
		}
	})
}

// indexRemove unregisters the values of g's run.
func (s *fragstore) indexRemove(g logmodel.GLSN, run []byte) {
	var buf [32]byte
	eachValue(run, func(attr []byte, val rawValue) {
		ix := s.idx[logmodel.Attr(attr)]
		if ix == nil {
			return
		}
		key, isString, ok := appendIndexKey(buf[:0], val)
		switch {
		case !ok:
			ix.nans--
		case isString:
			ix.strings--
		default:
			ix.numerics--
		}
		if ix.strings+ix.numerics+ix.nans == 0 {
			delete(s.idx, logmodel.Attr(attr)) // no held fragment stores attr
			return
		}
		r, found := ix.keys[string(key)]
		if !ok || !found {
			return
		}
		gs := ix.runs[r]
		if i, found := slices.BinarySearch(gs, g); found {
			gs = slices.Delete(gs, i, i+1)
		}
		if len(gs) > 0 {
			ix.runs[r] = gs
			return
		}
		delete(ix.keys, string(key))
		ix.runs[r] = nil
		ix.free = append(ix.free, r)
	})
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
	ix := s.idx[attr]
	if ix == nil {
		// No held fragment stores the attribute: a scan would find every
		// fragment missing it, which Pred.Eval treats as a clean false.
		return nil, true
	}
	if ix.nans > 0 {
		return nil, false // stored NaN compares equal to every numeric
	}
	var buf [64]byte
	key, isString, ok := appendIndexKey(buf[:0], rawValue{kind: v.Kind, s: []byte(v.S), i: v.I, f: v.F})
	if !ok {
		return nil, false // NaN constant
	}
	if isString && ix.numerics > 0 || !isString && ix.strings > 0 {
		return nil, false // cross-class comparison errors under Compare
	}
	r, ok := ix.keys[string(key)]
	if !ok {
		return nil, true
	}
	return slices.Clone(ix.runs[r]), true
}

// SetIndexDisabled forces IndexLookup to decline, sending every audit
// predicate down the scan path — the hook equivalence tests use to
// compare indexed and scanned query results.
func (n *Node) SetIndexDisabled(off bool) { n.idxOff.Store(off) }
