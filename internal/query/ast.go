// Package query implements the paper's auditing-criteria language (§2):
// auditing predicates of the form A ⊗ (B|c) — an audit-trail attribute
// compared against another attribute or a constant with one of
// <, >, =, ≠, ≤, ≥ — combined with ∧, ∨, ¬, and the normalization of a
// criterion Q into conjunctive form Q_N = (SQ_1) ∧ ... ∧ (SQ_m) whose
// subqueries can each be processed independently by DLA nodes
// (Figure 3). Predicates contain no quantifiers, as the paper requires.
package query

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"confaudit/internal/logmodel"
)

// Op is a comparison operator.
type Op int

// Comparison operators; start at one so the zero value is invalid.
const (
	OpEQ Op = iota + 1
	OpNE
	OpLT
	OpLE
	OpGT
	OpGE
)

// String renders the operator in query syntax.
func (o Op) String() string {
	switch o {
	case OpEQ:
		return "="
	case OpNE:
		return "!="
	case OpLT:
		return "<"
	case OpLE:
		return "<="
	case OpGT:
		return ">"
	case OpGE:
		return ">="
	default:
		return "?"
	}
}

// Negate returns the complementary operator (¬(a<b) ⇒ a>=b, ...).
func (o Op) Negate() Op {
	switch o {
	case OpEQ:
		return OpNE
	case OpNE:
		return OpEQ
	case OpLT:
		return OpGE
	case OpLE:
		return OpGT
	case OpGT:
		return OpLE
	case OpGE:
		return OpLT
	default:
		return o
	}
}

// Term is one side of a predicate: an attribute reference or a constant.
type Term struct {
	// Attr names an attribute when IsAttr is true.
	Attr logmodel.Attr
	// Const holds the literal when IsAttr is false.
	Const logmodel.Value
	// IsAttr discriminates the two cases.
	IsAttr bool
}

// AttrTerm builds an attribute term.
func AttrTerm(a logmodel.Attr) Term { return Term{Attr: a, IsAttr: true} }

// ConstTerm builds a constant term.
func ConstTerm(v logmodel.Value) Term { return Term{Const: v} }

// String renders the term in query syntax. String literals escape
// backslashes and double quotes so the rendering re-parses to the same
// value (the lexer treats a backslash as "take the next byte
// literally").
func (t Term) String() string {
	if t.IsAttr {
		return string(t.Attr)
	}
	if t.Const.Kind == logmodel.KindString {
		var sb strings.Builder
		sb.Grow(len(t.Const.S) + 2)
		sb.WriteByte('"')
		for i := 0; i < len(t.Const.S); i++ {
			c := t.Const.S[i]
			if c == '\\' || c == '"' {
				sb.WriteByte('\\')
			}
			sb.WriteByte(c)
		}
		sb.WriteByte('"')
		return sb.String()
	}
	return t.Const.Render()
}

// Expr is a boolean criteria expression.
type Expr interface {
	fmt.Stringer
	// Eval evaluates against a full attribute valuation. Missing
	// attributes make the containing predicate false.
	Eval(values map[logmodel.Attr]logmodel.Value) (bool, error)
	// attrs accumulates referenced attributes.
	attrs(into map[logmodel.Attr]struct{})
}

// Pred is the atomic auditing predicate A ⊗ (B|c).
type Pred struct {
	Left  Term
	Op    Op
	Right Term
}

// And, Or, and Not are the logical connectors.
type (
	// And is conjunction.
	And struct{ L, R Expr }
	// Or is disjunction.
	Or struct{ L, R Expr }
	// Not is negation.
	Not struct{ X Expr }
)

// Errors reported by evaluation.
var (
	// ErrEval indicates a predicate that cannot be evaluated.
	ErrEval = errors.New("query: evaluation error")
)

// String renders the predicate.
func (p Pred) String() string {
	return p.Left.String() + " " + p.Op.String() + " " + p.Right.String()
}

// Eval evaluates the predicate against a valuation. A predicate whose
// attribute is absent from the valuation is false (the record does not
// match); type mismatches are errors.
func (p Pred) Eval(values map[logmodel.Attr]logmodel.Value) (bool, error) {
	resolve := func(t Term) (logmodel.Value, bool) {
		if !t.IsAttr {
			return t.Const, true
		}
		v, ok := values[t.Attr]
		return v, ok
	}
	lv, ok := resolve(p.Left)
	if !ok {
		return false, nil
	}
	rv, ok := resolve(p.Right)
	if !ok {
		return false, nil
	}
	c, err := logmodel.Compare(lv, rv)
	if err != nil {
		return false, fmt.Errorf("%w: %s: %v", ErrEval, p, err)
	}
	switch p.Op {
	case OpEQ:
		return c == 0, nil
	case OpNE:
		return c != 0, nil
	case OpLT:
		return c < 0, nil
	case OpLE:
		return c <= 0, nil
	case OpGT:
		return c > 0, nil
	case OpGE:
		return c >= 0, nil
	default:
		return false, fmt.Errorf("%w: invalid operator in %s", ErrEval, p)
	}
}

func (p Pred) attrs(into map[logmodel.Attr]struct{}) {
	if p.Left.IsAttr {
		into[p.Left.Attr] = struct{}{}
	}
	if p.Right.IsAttr {
		into[p.Right.Attr] = struct{}{}
	}
}

// ReferencedAttrs returns the attributes the predicate references,
// sorted.
func (p Pred) ReferencedAttrs() []logmodel.Attr {
	set := make(map[logmodel.Attr]struct{}, 2)
	p.attrs(set)
	out := make([]logmodel.Attr, 0, len(set))
	for a := range set {
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// String renders the conjunction.
func (a And) String() string { return "(" + a.L.String() + " AND " + a.R.String() + ")" }

// Eval evaluates the conjunction.
func (a And) Eval(values map[logmodel.Attr]logmodel.Value) (bool, error) {
	l, err := a.L.Eval(values)
	if err != nil {
		return false, err
	}
	if !l {
		return false, nil
	}
	return a.R.Eval(values)
}

func (a And) attrs(into map[logmodel.Attr]struct{}) {
	a.L.attrs(into)
	a.R.attrs(into)
}

// String renders the disjunction.
func (o Or) String() string { return "(" + o.L.String() + " OR " + o.R.String() + ")" }

// Eval evaluates the disjunction.
func (o Or) Eval(values map[logmodel.Attr]logmodel.Value) (bool, error) {
	l, err := o.L.Eval(values)
	if err != nil {
		return false, err
	}
	if l {
		return true, nil
	}
	return o.R.Eval(values)
}

func (o Or) attrs(into map[logmodel.Attr]struct{}) {
	o.L.attrs(into)
	o.R.attrs(into)
}

// String renders the negation.
func (n Not) String() string { return "(NOT " + n.X.String() + ")" }

// Eval evaluates the negation.
func (n Not) Eval(values map[logmodel.Attr]logmodel.Value) (bool, error) {
	v, err := n.X.Eval(values)
	if err != nil {
		return false, err
	}
	return !v, nil
}

func (n Not) attrs(into map[logmodel.Attr]struct{}) { n.X.attrs(into) }

// Attrs returns the attributes referenced by an expression, sorted.
func Attrs(e Expr) []logmodel.Attr {
	set := make(map[logmodel.Attr]struct{})
	e.attrs(set)
	out := make([]logmodel.Attr, 0, len(set))
	for a := range set {
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
