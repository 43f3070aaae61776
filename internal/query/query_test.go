package query

import (
	"strings"
	"testing"
	"testing/quick"

	"confaudit/internal/logmodel"
)

func mustParse(t *testing.T, src string) Expr {
	t.Helper()
	e, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse(%q): %v", src, err)
	}
	return e
}

func vals(pairs ...any) map[logmodel.Attr]logmodel.Value {
	out := make(map[logmodel.Attr]logmodel.Value, len(pairs)/2)
	for i := 0; i < len(pairs); i += 2 {
		a := logmodel.Attr(pairs[i].(string))
		switch v := pairs[i+1].(type) {
		case string:
			out[a] = logmodel.String(v)
		case int:
			out[a] = logmodel.Int(int64(v))
		case float64:
			out[a] = logmodel.Float(v)
		default:
			panic("unsupported value type")
		}
	}
	return out
}

func TestParseAndEval(t *testing.T) {
	cases := []struct {
		src    string
		values map[logmodel.Attr]logmodel.Value
		want   bool
	}{
		{`id = "U1"`, vals("id", "U1"), true},
		{`id = "U1"`, vals("id", "U2"), false},
		{`C1 > 30`, vals("C1", 45), true},
		{`C1 > 30`, vals("C1", 20), false},
		{`C2 <= 45.02`, vals("C2", 45.02), true},
		{`C1 >= 20 AND C1 <= 40`, vals("C1", 34), true},
		{`C1 >= 20 AND C1 <= 40`, vals("C1", 45), false},
		{`id = "U1" OR id = "U2"`, vals("id", "U2"), true},
		{`NOT (id = "U1")`, vals("id", "U3"), true},
		{`NOT (id = "U1")`, vals("id", "U1"), false},
		{`protocl = "UDP" AND (C1 < 40 OR C2 > 300.0)`, vals("protocl", "UDP", "C1", 20, "C2", 23.45), true},
		{`protocl = "UDP" AND (C1 < 40 OR C2 > 300.0)`, vals("protocl", "TCP", "C1", 20, "C2", 23.45), false},
		{`C1 != 20`, vals("C1", 21), true},
		{`Tid = C3`, vals("Tid", "x", "C3", "x"), true},
		{`Tid = C3`, vals("Tid", "x", "C3", "y"), false},
		// Missing attribute: predicate is false, not an error.
		{`missing = 1`, vals("C1", 1), false},
		{`missing = 1 OR C1 = 1`, vals("C1", 1), true},
		// Alternative operator spellings.
		{`C1 <> 20 && C1 >= 10`, vals("C1", 15), true},
		{`id = 'U1' || id = 'U9'`, vals("id", "U9"), true},
	}
	for _, tc := range cases {
		t.Run(tc.src, func(t *testing.T) {
			e := mustParse(t, tc.src)
			got, err := e.Eval(tc.values)
			if err != nil {
				t.Fatal(err)
			}
			if got != tc.want {
				t.Fatalf("Eval = %v, want %v", got, tc.want)
			}
		})
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		``,
		`id =`,
		`= "U1"`,
		`id = "unterminated`,
		`(id = "U1"`,
		`id = "U1")`,
		`id ~ "U1"`,
		`id = "U1" AND`,
		`1 = 2`, // two constants
		`id & "U1"`,
		`id | "U1"`,
		`id = --5`,
		`id = "a" XOR id = "b"`, // XOR parses as identifier, then stray
	}
	for _, src := range cases {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) accepted invalid input", src)
		}
	}
}

func TestEvalTypeMismatch(t *testing.T) {
	e := mustParse(t, `C1 > 30`)
	if _, err := e.Eval(vals("C1", "not a number")); err == nil {
		t.Fatal("type mismatch not reported")
	}
}

func TestNormalizeSimple(t *testing.T) {
	e := mustParse(t, `a = 1 AND (b = 2 OR c = 3)`)
	n, err := Normalize(e)
	if err != nil {
		t.Fatal(err)
	}
	if len(n.Clauses) != 2 {
		t.Fatalf("clauses = %d, want 2: %s", len(n.Clauses), n)
	}
}

func TestNormalizeDistribution(t *testing.T) {
	// (a=1 AND b=2) OR c=3 => (a=1 OR c=3) AND (b=2 OR c=3)
	e := mustParse(t, `(a = 1 AND b = 2) OR c = 3`)
	n, err := Normalize(e)
	if err != nil {
		t.Fatal(err)
	}
	if len(n.Clauses) != 2 {
		t.Fatalf("clauses = %d, want 2: %s", len(n.Clauses), n)
	}
	for _, c := range n.Clauses {
		if len(c.Preds) != 2 {
			t.Fatalf("clause %s should have 2 predicates", c)
		}
	}
}

func TestNormalizeNegation(t *testing.T) {
	// NOT (a < 1 OR b = 2) => a >= 1 AND b != 2
	e := mustParse(t, `NOT (a < 1 OR b = 2)`)
	n, err := Normalize(e)
	if err != nil {
		t.Fatal(err)
	}
	if len(n.Clauses) != 2 {
		t.Fatalf("clauses = %d, want 2: %s", len(n.Clauses), n)
	}
	s := n.String()
	if !strings.Contains(s, ">=") || !strings.Contains(s, "!=") {
		t.Fatalf("negation not pushed onto operators: %s", s)
	}
}

func TestNormalizeDedup(t *testing.T) {
	e := mustParse(t, `a = 1 AND a = 1 AND (a = 1 OR a = 1)`)
	n, err := Normalize(e)
	if err != nil {
		t.Fatal(err)
	}
	if len(n.Clauses) != 1 || len(n.Clauses[0].Preds) != 1 {
		t.Fatalf("dedup failed: %s", n)
	}
}

// TestNormalizePreservesSemanticsQuick is the key property: the
// conjunctive form evaluates identically to the original expression.
func TestNormalizePreservesSemanticsQuick(t *testing.T) {
	exprs := []string{
		`a = 1 AND (b = 2 OR NOT (c < 3))`,
		`NOT (a = 1 AND b = 2) OR c >= 3`,
		`(a < 2 OR b > 1) AND (c = 0 OR NOT a = 1)`,
		`NOT NOT (a = 1)`,
		`a != 1 OR (b <= 2 AND c > 1 AND a >= 0)`,
	}
	for _, src := range exprs {
		e := mustParse(t, src)
		n, err := Normalize(e)
		if err != nil {
			t.Fatalf("Normalize(%q): %v", src, err)
		}
		f := func(a, b, c int8) bool {
			v := vals("a", int(a%4), "b", int(b%4), "c", int(c%4))
			want, err1 := e.Eval(v)
			got, err2 := n.Eval(v)
			return err1 == nil && err2 == nil && got == want
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
			t.Fatalf("%q: %v", src, err)
		}
	}
}

func TestClassifyAgainstPaperPartition(t *testing.T) {
	ex, err := logmodel.NewPaperExample()
	if err != nil {
		t.Fatal(err)
	}
	// time on P0, id on P1: cross. C1 alone on P3: local.
	e := mustParse(t, `time = "x" AND id = "U1" AND C1 > 30`)
	n, err := Normalize(e)
	if err != nil {
		t.Fatal(err)
	}
	plans, err := Classify(n, ex.Partition)
	if err != nil {
		t.Fatal(err)
	}
	if len(plans) != 3 {
		t.Fatalf("plans = %d, want 3", len(plans))
	}
	for _, p := range plans {
		if p.Cross {
			t.Fatalf("single-attribute clause classified cross: %s", p.Clause)
		}
		if len(p.Nodes) != 1 {
			t.Fatalf("clause %s assigned nodes %v", p.Clause, p.Nodes)
		}
	}
	// A clause spanning two nodes is cross.
	e2 := mustParse(t, `time = "x" OR id = "U1"`)
	n2, err := Normalize(e2)
	if err != nil {
		t.Fatal(err)
	}
	plans2, err := Classify(n2, ex.Partition)
	if err != nil {
		t.Fatal(err)
	}
	if len(plans2) != 1 || !plans2[0].Cross {
		t.Fatalf("cross clause not detected: %+v", plans2)
	}
	if len(plans2[0].Nodes) != 2 {
		t.Fatalf("cross clause nodes = %v", plans2[0].Nodes)
	}
	// Attribute equality across nodes is cross.
	e3 := mustParse(t, `id = C3`)
	n3, err := Normalize(e3)
	if err != nil {
		t.Fatal(err)
	}
	plans3, err := Classify(n3, ex.Partition)
	if err != nil {
		t.Fatal(err)
	}
	if !plans3[0].Cross {
		t.Fatal("attr-vs-attr cross predicate not detected")
	}
	// Unknown attribute fails.
	e4 := mustParse(t, `nosuch = 1`)
	n4, err := Normalize(e4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Classify(n4, ex.Partition); err == nil {
		t.Fatal("unknown attribute accepted")
	}
}

func TestCountsEq11Inputs(t *testing.T) {
	ex, err := logmodel.NewPaperExample()
	if err != nil {
		t.Fatal(err)
	}
	// Two local clauses (C1 on P3, Tid on P2), one cross clause
	// (time on P0 OR id on P1 => 2 cross predicates).
	e := mustParse(t, `C1 > 30 AND Tid = "T1100265" AND (time = "x" OR id = "U1")`)
	n, err := Normalize(e)
	if err != nil {
		t.Fatal(err)
	}
	s, tt, q := n.Counts(ex.Partition)
	if s != 4 {
		t.Fatalf("s = %d, want 4", s)
	}
	if tt != 2 {
		t.Fatalf("t = %d, want 2", tt)
	}
	if q != 3 {
		t.Fatalf("q = %d, want 3", q)
	}
}

func TestAttrsHelper(t *testing.T) {
	e := mustParse(t, `b = 1 AND a = 2 AND a = c`)
	got := Attrs(e)
	if len(got) != 3 || got[0] != "a" || got[1] != "b" || got[2] != "c" {
		t.Fatalf("Attrs = %v", got)
	}
}

func TestOpHelpers(t *testing.T) {
	pairs := map[Op]Op{
		OpEQ: OpNE, OpNE: OpEQ, OpLT: OpGE, OpGE: OpLT, OpGT: OpLE, OpLE: OpGT,
	}
	for op, want := range pairs {
		if op.Negate() != want {
			t.Fatalf("Negate(%v) = %v, want %v", op, op.Negate(), want)
		}
	}
	if Op(0).String() != "?" {
		t.Fatal("invalid op should render as ?")
	}
}

func TestNormalizeBlowupRejected(t *testing.T) {
	// Build (a=1 AND b=1) OR (a=2 AND b=2) OR ... deep enough to exceed
	// the CNF cap.
	var sb strings.Builder
	for i := 0; i < 16; i++ {
		if i > 0 {
			sb.WriteString(" OR ")
		}
		sb.WriteString("(a = ")
		sb.WriteString(string(rune('0' + i%10)))
		sb.WriteString(" AND b = 1 AND c = 2)")
	}
	e := mustParse(t, sb.String())
	if _, err := Normalize(e); err == nil {
		t.Skip("CNF within cap; acceptable")
	}
}

// TestStringRoundTrip verifies that rendering an expression and
// re-parsing it preserves evaluation semantics — the audit engine
// relies on this to ship clauses to nodes as strings.
func TestStringRoundTrip(t *testing.T) {
	exprs := []string{
		`a = 1 AND (b = 2 OR NOT (c < 3))`,
		`NOT (a = 1 AND b = 2) OR c >= 3`,
		`id = "quoted string" AND C2 <= 45.02`,
		`a != 1 OR (b <= 2 AND c > 1)`,
		`Tid = C3`,
	}
	for _, src := range exprs {
		orig := mustParse(t, src)
		back := mustParse(t, orig.String())
		f := func(a, b, c int8) bool {
			v := vals("a", int(a%4), "b", int(b%4), "c", int(c%4),
				"id", "quoted string", "C2", 45.02, "Tid", "x", "C3", "x")
			w1, err1 := orig.Eval(v)
			w2, err2 := back.Eval(v)
			return err1 == nil && err2 == nil && w1 == w2
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
			t.Fatalf("%q: %v", src, err)
		}
	}
	// Clause rendering round-trips through Normalize, as the audit
	// engine requires.
	n, err := Normalize(mustParse(t, `(a = 1 AND b = 2) OR c = 3`))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range n.Clauses {
		re, err := Normalize(mustParse(t, c.String()))
		if err != nil {
			t.Fatal(err)
		}
		if len(re.Clauses) != 1 || re.Clauses[0].String() != c.String() {
			t.Fatalf("clause %q did not round trip: %q", c, re)
		}
	}
}

func BenchmarkParse(b *testing.B) {
	src := `protocl = "UDP" AND (C1 < 40 OR C2 > 300.0) AND NOT (id = "U3")`
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Parse(src); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkNormalize(b *testing.B) {
	e, err := Parse(`(a = 1 AND b = 2) OR (c = 3 AND d = 4) OR NOT (e < 5 OR f > 6)`)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Normalize(e); err != nil {
			b.Fatal(err)
		}
	}
}
