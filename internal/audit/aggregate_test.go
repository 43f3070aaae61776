package audit

import (
	"slices"
	"testing"

	"confaudit/internal/logmodel"
)

// fragMap is a minimal fragmentVisitor for unit tests.
type fragMap map[logmodel.GLSN]logmodel.Fragment

func (m fragMap) VisitFragments(glsns []logmodel.GLSN, fn func(logmodel.GLSN, map[logmodel.Attr]logmodel.Value) error) error {
	if glsns == nil {
		for g := range m {
			glsns = append(glsns, g)
		}
	} else {
		glsns = slices.Clone(glsns)
	}
	slices.Sort(glsns)
	for _, g := range glsns {
		if f, ok := m[g]; ok {
			if err := fn(g, f.Values); err != nil {
				return err
			}
		}
	}
	return nil
}

func TestComputeAggregateUnit(t *testing.T) {
	store := fragMap{
		1: {GLSN: 1, Values: map[logmodel.Attr]logmodel.Value{"x": logmodel.Int(10)}},
		2: {GLSN: 2, Values: map[logmodel.Attr]logmodel.Value{"x": logmodel.Float(2.5)}},
		3: {GLSN: 3, Values: map[logmodel.Attr]logmodel.Value{"y": logmodel.Int(99)}}, // no x
	}
	glsns := []logmodel.GLSN{1, 2, 3}
	cases := []struct {
		kind AggKind
		want float64
	}{
		{AggCount, 2}, // only records carrying x count
		{AggSum, 12.5},
		{AggMax, 10},
		{AggMin, 2.5},
		{AggAvg, 6.25},
	}
	for _, tc := range cases {
		got, err := computeAggregate(store, tc.kind, "x", glsns)
		if err != nil {
			t.Fatalf("%s: %v", tc.kind, err)
		}
		if got != tc.want {
			t.Fatalf("%s = %v, want %v", tc.kind, got, tc.want)
		}
	}
}

func TestComputeAggregateEdgeCases(t *testing.T) {
	store := fragMap{
		1: {GLSN: 1, Values: map[logmodel.Attr]logmodel.Value{"s": logmodel.String("text")}},
	}
	// Non-numeric attribute.
	if _, err := computeAggregate(store, AggSum, "s", []logmodel.GLSN{1}); err == nil {
		t.Fatal("sum over string accepted")
	}
	// Empty match set: max/min error, sum/avg/count are zero.
	if _, err := computeAggregate(store, AggMax, "x", nil); err == nil {
		t.Fatal("max over empty set accepted")
	}
	if _, err := computeAggregate(store, AggMin, "x", nil); err == nil {
		t.Fatal("min over empty set accepted")
	}
	for _, kind := range []AggKind{AggSum, AggAvg, AggCount} {
		got, err := computeAggregate(store, kind, "x", nil)
		if err != nil || got != 0 {
			t.Fatalf("%s over empty set = %v, %v", kind, got, err)
		}
	}
	// Unknown kind.
	if _, err := computeAggregate(store, AggKind("median"), "x", []logmodel.GLSN{1}); err == nil {
		t.Fatal("unknown kind accepted")
	}
	// Missing records are skipped, not errors.
	got, err := computeAggregate(store, AggCount, "s", []logmodel.GLSN{1, 2, 3})
	if err != nil || got != 1 {
		t.Fatalf("count with missing records = %v, %v", got, err)
	}
}
