package cluster

import (
	"encoding/binary"
	"math"
	"sort"

	"confaudit/internal/logmodel"
)

// Attribute value indexes: per attribute, a hash map from an indexed
// value key to the set of glsns whose fragment stores that value. The
// audit engine consults them through IndexLookup to answer equality
// predicates without scanning every fragment.
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
	byKey    map[string]map[logmodel.GLSN]struct{}
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

// indexAdd registers a held item's values. Caller holds n.mu.
func (n *Node) indexAdd(v *itemView) {
	var buf [32]byte
	eachValue(v.run, func(attr []byte, val rawValue) {
		ix := n.idx[logmodel.Attr(attr)]
		if ix == nil {
			ix = &attrIndex{byKey: make(map[string]map[logmodel.GLSN]struct{})}
			n.idx[logmodel.Attr(attr)] = ix
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
		set := ix.byKey[string(key)]
		if set == nil {
			set = make(map[logmodel.GLSN]struct{})
			ix.byKey[string(key)] = set
		}
		set[v.glsn] = struct{}{}
	})
}

// indexRemove unregisters a held item's values. Caller holds n.mu.
func (n *Node) indexRemove(v *itemView) {
	var buf [32]byte
	eachValue(v.run, func(attr []byte, val rawValue) {
		ix := n.idx[logmodel.Attr(attr)]
		if ix == nil {
			return
		}
		key, isString, ok := appendIndexKey(buf[:0], val)
		if !ok {
			ix.nans--
			return
		}
		if isString {
			ix.strings--
		} else {
			ix.numerics--
		}
		if set := ix.byKey[string(key)]; set != nil {
			delete(set, v.glsn)
			if len(set) == 0 {
				delete(ix.byKey, string(key))
			}
		}
	})
}

// IndexLookup returns the glsns whose fragment stores exactly v for the
// attribute, sorted ascending. ok is false when the index cannot answer
// faithfully — disabled, NaN anywhere in the comparison, or a constant
// whose class differs from some stored value's class (the scan path
// then reproduces Compare's cross-class error semantics).
func (n *Node) IndexLookup(attr logmodel.Attr, v logmodel.Value) ([]logmodel.GLSN, bool) {
	if n.idxOff.Load() {
		return nil, false
	}
	n.mu.RLock()
	defer n.mu.RUnlock()
	ix := n.idx[attr]
	if ix == nil {
		// No fragment stores the attribute: a scan would find every
		// fragment missing it, which Pred.Eval treats as a clean false.
		return nil, true
	}
	if ix.nans > 0 {
		return nil, false // stored NaN compares equal to every numeric
	}
	key, isString, ok := appendIndexKey(nil, rawValue{kind: v.Kind, s: []byte(v.S), i: v.I, f: v.F})
	if !ok {
		return nil, false // NaN constant
	}
	if isString && ix.numerics > 0 || !isString && ix.strings > 0 {
		return nil, false // cross-class comparison errors under Compare
	}
	set := ix.byKey[string(key)]
	out := make([]logmodel.GLSN, 0, len(set))
	for g := range set {
		out = append(out, g)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out, true
}

// SetIndexDisabled forces IndexLookup to decline, sending every audit
// predicate down the scan path — the hook equivalence tests use to
// compare indexed and scanned query results.
func (n *Node) SetIndexDisabled(off bool) { n.idxOff.Store(off) }
