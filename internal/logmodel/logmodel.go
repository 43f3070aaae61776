// Package logmodel defines the DLA data model of paper §2:
//
//   - audit records Log = {glsn, L=(l0..lm)} (eq. 5) with a global log
//     sequence number and typed attribute values;
//   - attribute schemas I = {i0..im} including the "undefined"
//     attributes C1..Cn that are meaningful only to the application
//     subsystem (§5);
//   - vertical fragmentation of records across DLA nodes (Tables 2-5):
//     each node P_i supports an attribute set A_i with ∪A_i = I and
//     A_i ∩ A_j = ∅, and stores the projection of every record onto
//     A_i (plus glsn);
//   - transactions T = {R_T, E_T, L_T, tsn, ttn} (eq. 1).
package logmodel

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// GLSN is the global log sequence number, "a monotonically increasing
// integer that uniquely defines a log record" (paper eq. 5). The paper
// renders them in hex (139aef78, ...); String follows suit.
type GLSN uint64

// String renders the GLSN the way the paper's tables do.
func (g GLSN) String() string { return strconv.FormatUint(uint64(g), 16) }

// ParseGLSN parses the hex rendering back into a GLSN.
func ParseGLSN(s string) (GLSN, error) {
	v, err := strconv.ParseUint(s, 16, 64)
	if err != nil {
		return 0, fmt.Errorf("logmodel: parsing glsn %q: %w", s, err)
	}
	return GLSN(v), nil
}

// Attr names an audit-trail attribute (time, id, Tid, C1, ...).
type Attr string

// Kind discriminates attribute value types.
type Kind int

// Value kinds. Start at one so the zero Kind is invalid (catching
// uninitialized values early).
const (
	KindString Kind = iota + 1
	KindInt
	KindFloat
)

// Value is a typed attribute value.
type Value struct {
	Kind Kind    `json:"k"`
	S    string  `json:"s,omitempty"`
	I    int64   `json:"i,omitempty"`
	F    float64 `json:"f,omitempty"`
}

// String builds a string value.
func String(s string) Value { return Value{Kind: KindString, S: s} }

// Int builds an integer value.
func Int(i int64) Value { return Value{Kind: KindInt, I: i} }

// Float builds a floating-point value.
func Float(f float64) Value { return Value{Kind: KindFloat, F: f} }

// Errors reported by the package.
var (
	// ErrIncomparable indicates values whose kinds cannot be ordered.
	ErrIncomparable = errors.New("logmodel: incomparable value kinds")
	// ErrBadPartition indicates an attribute partition that is not a
	// disjoint cover of the schema.
	ErrBadPartition = errors.New("logmodel: invalid attribute partition")
	// ErrFragmentMismatch indicates fragments that cannot be reassembled.
	ErrFragmentMismatch = errors.New("logmodel: fragment mismatch")
)

// Render formats the value for table output and canonical encoding.
func (v Value) Render() string {
	if v.Kind == KindString {
		return v.S
	}
	var buf [32]byte
	return string(v.AppendRender(buf[:0]))
}

// AppendRender appends the value's rendering (Render) to dst.
func (v Value) AppendRender(dst []byte) []byte {
	switch v.Kind {
	case KindString:
		return append(dst, v.S...)
	case KindInt:
		return strconv.AppendInt(dst, v.I, 10)
	case KindFloat:
		return strconv.AppendFloat(dst, v.F, 'f', -1, 64)
	default:
		return append(dst, "<invalid>"...)
	}
}

// Equal reports deep equality of two values. Numeric values of
// different kinds are compared numerically, matching predicate
// semantics (18 == 18.0).
func (v Value) Equal(o Value) bool {
	c, err := Compare(v, o)
	return err == nil && c == 0
}

// Compare orders two values: -1, 0, +1. Strings order lexically; ints
// and floats order numerically and interoperate. Comparing a string
// against a number is an ErrIncomparable.
func Compare(a, b Value) (int, error) {
	if a.Kind == KindString || b.Kind == KindString {
		if a.Kind != KindString || b.Kind != KindString {
			return 0, fmt.Errorf("%w: %v vs %v", ErrIncomparable, a.Kind, b.Kind)
		}
		return strings.Compare(a.S, b.S), nil
	}
	af, err := a.asFloat()
	if err != nil {
		return 0, err
	}
	bf, err := b.asFloat()
	if err != nil {
		return 0, err
	}
	switch {
	case af < bf:
		return -1, nil
	case af > bf:
		return 1, nil
	default:
		return 0, nil
	}
}

// NumericKey is an int or float value's canonical float64 bits, such
// that two numerics get the same key iff Compare calls them equal: an
// int converts as Compare converts it, and -0 folds to 0. ok is false
// for NaN, which Compare calls equal to every number, and for a value
// of any other kind.
func NumericKey(kind Kind, i int64, f float64) (bits uint64, ok bool) {
	switch kind {
	case KindInt:
		f = float64(i)
	case KindFloat:
		if math.IsNaN(f) {
			return 0, false
		}
	default:
		return 0, false
	}
	if f == 0 {
		f = 0 // collapse -0.0 and +0.0
	}
	return math.Float64bits(f), true
}

func (v Value) asFloat() (float64, error) {
	switch v.Kind {
	case KindInt:
		return float64(v.I), nil
	case KindFloat:
		return v.F, nil
	default:
		return 0, fmt.Errorf("%w: kind %v is not numeric", ErrIncomparable, v.Kind)
	}
}

// Record is one audit log record (paper eq. 5).
type Record struct {
	GLSN   GLSN           `json:"glsn"`
	Values map[Attr]Value `json:"values"`
}

// Clone deep-copies the record.
func (r Record) Clone() Record {
	vals := make(map[Attr]Value, len(r.Values))
	for k, v := range r.Values {
		vals[k] = v
	}
	return Record{GLSN: r.GLSN, Values: vals}
}

// Attrs returns the record's attribute names in sorted order.
func (r Record) Attrs() []Attr {
	attrs := make([]Attr, 0, len(r.Values))
	for a := range r.Values {
		attrs = append(attrs, a)
	}
	sort.Slice(attrs, func(i, j int) bool { return attrs[i] < attrs[j] })
	return attrs
}

// Canonical returns a deterministic byte encoding of the record:
// glsn|attr=value|... with attributes sorted. This is the input to the
// one-way accumulator, so it must be stable across nodes and runs.
func (r Record) Canonical() []byte {
	return AppendCanonical(nil, r.GLSN, SortedFields(r.Values))
}

// Field is one attribute's value: the unit of the canonical text and
// of a fragment's encoding.
type Field struct {
	Attr  Attr
	Value Value
}

// SortedFields returns the values as fields sorted by attribute.
func SortedFields(vals map[Attr]Value) []Field {
	fields := make([]Field, 0, len(vals))
	for a, v := range vals {
		fields = append(fields, Field{Attr: a, Value: v})
	}
	slices.SortFunc(fields, func(a, b Field) int { return cmp.Compare(a.Attr, b.Attr) })
	return fields
}

// AppendCanonical appends the canonical text of the values under glsn
// g: g in hex, then "|attr=value" for each field, in the order given,
// which must be sorted by attribute. It is the one renderer of the
// accumulator's hash input: Record.Canonical, Fragment.Canonical and
// the cluster writer's encoder all call it.
func AppendCanonical(dst []byte, g GLSN, fields []Field) []byte {
	dst = strconv.AppendUint(dst, uint64(g), 16)
	for _, f := range fields {
		dst = append(dst, '|')
		dst = append(dst, f.Attr...)
		dst = append(dst, '=')
		dst = f.Value.AppendRender(dst)
	}
	return dst
}

// Schema is the full attribute universe I, with the subset of
// "undefined" attributes (C1, C2, ...) that carry only
// application-private meaning (paper §5).
type Schema struct {
	// Attrs lists every attribute in I, in table column order.
	Attrs []Attr
	// Undefined marks the abstract attributes.
	Undefined map[Attr]bool
}

// NewSchema builds a schema; undefined attributes must be a subset of
// attrs.
func NewSchema(attrs []Attr, undefined ...Attr) (*Schema, error) {
	seen := make(map[Attr]struct{}, len(attrs))
	for _, a := range attrs {
		if _, dup := seen[a]; dup {
			return nil, fmt.Errorf("logmodel: duplicate attribute %q in schema", a)
		}
		seen[a] = struct{}{}
	}
	und := make(map[Attr]bool, len(undefined))
	for _, u := range undefined {
		if _, ok := seen[u]; !ok {
			return nil, fmt.Errorf("logmodel: undefined attribute %q not in schema", u)
		}
		und[u] = true
	}
	return &Schema{Attrs: append([]Attr(nil), attrs...), Undefined: und}, nil
}

// Has reports whether the schema contains the attribute.
func (s *Schema) Has(a Attr) bool {
	for _, x := range s.Attrs {
		if x == a {
			return true
		}
	}
	return false
}

// Fragment is the projection of a record onto one DLA node's attribute
// set (paper Tables 2-5). Every fragment carries the glsn key.
type Fragment struct {
	GLSN   GLSN           `json:"glsn"`
	Node   string         `json:"node"`
	Values map[Attr]Value `json:"values"`
}

// Canonical returns the deterministic byte encoding used for integrity
// accumulation of a single fragment.
func (f Fragment) Canonical() []byte {
	return AppendCanonical(nil, f.GLSN, SortedFields(f.Values))
}

// Partition assigns each attribute of a schema to exactly one DLA node:
// the A_i sets of paper §4 with ∪A_i = I and A_i ∩ A_j = ∅.
type Partition struct {
	schema *Schema
	// nodeAttrs maps node ID to its supported attribute set, in order.
	nodeAttrs map[string][]Attr
	// owner maps attribute to the node holding it.
	owner map[Attr]string
	// nodes lists node IDs in declaration order.
	nodes []string
}

// NewPartition validates that nodeAttrs is a disjoint cover of the
// schema and builds the partition. Node order follows the nodes slice.
func NewPartition(schema *Schema, nodes []string, nodeAttrs map[string][]Attr) (*Partition, error) {
	if schema == nil {
		return nil, fmt.Errorf("%w: nil schema", ErrBadPartition)
	}
	owner := make(map[Attr]string, len(schema.Attrs))
	attrsCopy := make(map[string][]Attr, len(nodeAttrs))
	if len(nodes) != len(nodeAttrs) {
		return nil, fmt.Errorf("%w: %d node IDs but %d attribute sets", ErrBadPartition, len(nodes), len(nodeAttrs))
	}
	for _, node := range nodes {
		attrs, ok := nodeAttrs[node]
		if !ok {
			return nil, fmt.Errorf("%w: node %q has no attribute set", ErrBadPartition, node)
		}
		for _, a := range attrs {
			if !schema.Has(a) {
				return nil, fmt.Errorf("%w: node %q claims attribute %q outside the schema", ErrBadPartition, node, a)
			}
			if prev, dup := owner[a]; dup {
				return nil, fmt.Errorf("%w: attribute %q claimed by both %q and %q", ErrBadPartition, a, prev, node)
			}
			owner[a] = node
		}
		attrsCopy[node] = append([]Attr(nil), attrs...)
	}
	for _, a := range schema.Attrs {
		if _, ok := owner[a]; !ok {
			return nil, fmt.Errorf("%w: attribute %q not covered by any node", ErrBadPartition, a)
		}
	}
	return &Partition{
		schema:    schema,
		nodeAttrs: attrsCopy,
		owner:     owner,
		nodes:     append([]string(nil), nodes...),
	}, nil
}

// Schema returns the partitioned schema.
func (p *Partition) Schema() *Schema { return p.schema }

// Nodes returns the node IDs in declaration order. The slice is a copy.
func (p *Partition) Nodes() []string { return append([]string(nil), p.nodes...) }

// NodeAttrs returns the attribute set A_i of the node. The slice is a
// copy; unknown nodes yield nil.
func (p *Partition) NodeAttrs(node string) []Attr {
	return append([]Attr(nil), p.nodeAttrs[node]...)
}

// Owner returns the node holding the attribute, or "" if none.
func (p *Partition) Owner(a Attr) string { return p.owner[a] }

// CoverCount returns the minimum number of DLA nodes whose attribute
// sets cover all attributes present in the record — the u of the
// C_store metric (paper eq. 10). With a disjoint partition this is
// exactly the number of distinct owners of the record's attributes.
func (p *Partition) CoverCount(r Record) int {
	owners := make(map[string]struct{}, len(p.nodes))
	for a := range r.Values {
		if node, ok := p.owner[a]; ok {
			owners[node] = struct{}{}
		}
	}
	return len(owners)
}

// Split projects a record into one fragment per node, keyed by glsn
// (Tables 2-5). Nodes whose attribute set does not intersect the record
// still receive an (empty) fragment so the glsn is globally locatable,
// matching the paper's tables where every node lists every glsn.
func (p *Partition) Split(r Record) map[string]Fragment {
	frags := make(map[string]Fragment, len(p.nodes))
	for _, node := range p.nodes {
		vals := make(map[Attr]Value)
		for _, a := range p.nodeAttrs[node] {
			if v, ok := r.Values[a]; ok {
				vals[a] = v
			}
		}
		frags[node] = Fragment{GLSN: r.GLSN, Node: node, Values: vals}
	}
	return frags
}

// Reassemble merges fragments of one record back into the full record,
// verifying the ∪L_i = L property. All fragments must share the glsn.
func Reassemble(frags []Fragment) (Record, error) {
	if len(frags) == 0 {
		return Record{}, fmt.Errorf("%w: no fragments", ErrFragmentMismatch)
	}
	rec := Record{GLSN: frags[0].GLSN, Values: make(map[Attr]Value)}
	for _, f := range frags {
		if f.GLSN != rec.GLSN {
			return Record{}, fmt.Errorf("%w: glsn %s vs %s", ErrFragmentMismatch, f.GLSN, rec.GLSN)
		}
		for a, v := range f.Values {
			if prev, dup := rec.Values[a]; dup && !prev.Equal(v) {
				return Record{}, fmt.Errorf("%w: attribute %q has conflicting values", ErrFragmentMismatch, a)
			}
			rec.Values[a] = v
		}
	}
	return rec, nil
}

// PartitionSpec is the serializable form of a Partition, for
// provisioning multi-process deployments.
type PartitionSpec struct {
	Attrs     []Attr            `json:"attrs"`
	Undefined []Attr            `json:"undefined"`
	Nodes     []string          `json:"nodes"`
	NodeAttrs map[string][]Attr `json:"node_attrs"`
}

// Spec exports the partition (and its schema) for serialization.
func (p *Partition) Spec() PartitionSpec {
	und := make([]Attr, 0, len(p.schema.Undefined))
	for _, a := range p.schema.Attrs {
		if p.schema.Undefined[a] {
			und = append(und, a)
		}
	}
	nodeAttrs := make(map[string][]Attr, len(p.nodeAttrs))
	for n, attrs := range p.nodeAttrs {
		nodeAttrs[n] = append([]Attr(nil), attrs...)
	}
	return PartitionSpec{
		Attrs:     append([]Attr(nil), p.schema.Attrs...),
		Undefined: und,
		Nodes:     append([]string(nil), p.nodes...),
		NodeAttrs: nodeAttrs,
	}
}

// FromSpec rebuilds a partition (validating it) from a spec.
func FromSpec(spec PartitionSpec) (*Partition, error) {
	schema, err := NewSchema(spec.Attrs, spec.Undefined...)
	if err != nil {
		return nil, err
	}
	return NewPartition(schema, spec.Nodes, spec.NodeAttrs)
}
