package logmodel

import (
	"bytes"
	"testing"
	"testing/quick"
)

func TestGLSNString(t *testing.T) {
	g := GLSN(0x139aef78)
	if g.String() != "139aef78" {
		t.Fatalf("String = %q, want 139aef78", g.String())
	}
	back, err := ParseGLSN("139aef78")
	if err != nil {
		t.Fatal(err)
	}
	if back != g {
		t.Fatalf("ParseGLSN round trip = %v", back)
	}
	if _, err := ParseGLSN("not hex!"); err == nil {
		t.Fatal("ParseGLSN accepted garbage")
	}
}

func TestValueRender(t *testing.T) {
	cases := []struct {
		v    Value
		want string
	}{
		{String("UDP"), "UDP"},
		{Int(-42), "-42"},
		{Float(23.45), "23.45"},
		{Value{}, "<invalid>"},
	}
	for _, tc := range cases {
		if got := tc.v.Render(); got != tc.want {
			t.Errorf("Render(%+v) = %q, want %q", tc.v, got, tc.want)
		}
	}
}

func TestCompare(t *testing.T) {
	cases := []struct {
		name    string
		a, b    Value
		want    int
		wantErr bool
	}{
		{"string lt", String("a"), String("b"), -1, false},
		{"string eq", String("x"), String("x"), 0, false},
		{"string gt", String("z"), String("y"), 1, false},
		{"int lt", Int(1), Int(2), -1, false},
		{"int float cross eq", Int(18), Float(18.0), 0, false},
		{"float gt int", Float(2.5), Int(2), 1, false},
		{"string vs int", String("1"), Int(1), 0, true},
		{"invalid kind", Value{}, Int(1), 0, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, err := Compare(tc.a, tc.b)
			if tc.wantErr {
				if err == nil {
					t.Fatal("want error")
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if got != tc.want {
				t.Fatalf("Compare = %d, want %d", got, tc.want)
			}
		})
	}
}

func TestValueEqual(t *testing.T) {
	if !Int(18).Equal(Float(18)) {
		t.Fatal("18 should equal 18.0")
	}
	if String("a").Equal(Int(1)) {
		t.Fatal("string should not equal int")
	}
}

func TestRecordCanonicalStable(t *testing.T) {
	r1 := Record{GLSN: 7, Values: map[Attr]Value{"b": Int(2), "a": Int(1)}}
	r2 := Record{GLSN: 7, Values: map[Attr]Value{"a": Int(1), "b": Int(2)}}
	if !bytes.Equal(r1.Canonical(), r2.Canonical()) {
		t.Fatal("Canonical depends on map iteration order")
	}
	r3 := Record{GLSN: 7, Values: map[Attr]Value{"a": Int(1), "b": Int(3)}}
	if bytes.Equal(r1.Canonical(), r3.Canonical()) {
		t.Fatal("different records share a canonical encoding")
	}
}

func TestRecordClone(t *testing.T) {
	r := Record{GLSN: 1, Values: map[Attr]Value{"a": Int(1)}}
	c := r.Clone()
	c.Values["a"] = Int(99)
	if r.Values["a"].I != 1 {
		t.Fatal("Clone aliases the value map")
	}
}

func TestNewSchemaValidation(t *testing.T) {
	if _, err := NewSchema([]Attr{"a", "a"}); err == nil {
		t.Fatal("duplicate attribute accepted")
	}
	if _, err := NewSchema([]Attr{"a"}, "missing"); err == nil {
		t.Fatal("undefined attr outside schema accepted")
	}
	s, err := NewSchema([]Attr{"a", "C1"}, "C1")
	if err != nil {
		t.Fatal(err)
	}
	if !s.Has("a") || s.Has("zz") {
		t.Fatal("Has misreports membership")
	}
	if len(s.Undefined) != 1 {
		t.Fatalf("undefined = %d, want 1", len(s.Undefined))
	}
}

func TestNewPartitionValidation(t *testing.T) {
	schema, err := NewSchema([]Attr{"a", "b", "c"})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name  string
		nodes []string
		sets  map[string][]Attr
	}{
		{"missing cover", []string{"P0"}, map[string][]Attr{"P0": {"a", "b"}}},
		{"overlap", []string{"P0", "P1"}, map[string][]Attr{"P0": {"a", "b"}, "P1": {"b", "c"}}},
		{"alien attr", []string{"P0", "P1"}, map[string][]Attr{"P0": {"a", "b"}, "P1": {"c", "z"}}},
		{"unlisted node", []string{"P0", "P1"}, map[string][]Attr{"P0": {"a", "b", "c"}, "PX": {}}},
		{"count mismatch", []string{"P0"}, map[string][]Attr{"P0": {"a", "b", "c"}, "P1": {}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := NewPartition(schema, tc.nodes, tc.sets); err == nil {
				t.Fatal("invalid partition accepted")
			}
		})
	}
	if _, err := NewPartition(nil, nil, nil); err == nil {
		t.Fatal("nil schema accepted")
	}
}

func TestSplitReassembleRoundTrip(t *testing.T) {
	ex, err := NewPaperExample()
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range ex.Records {
		frags := ex.Partition.Split(rec)
		if len(frags) != 4 {
			t.Fatalf("Split produced %d fragments, want 4", len(frags))
		}
		list := make([]Fragment, 0, len(frags))
		for _, f := range frags {
			list = append(list, f)
		}
		back, err := Reassemble(list)
		if err != nil {
			t.Fatal(err)
		}
		if back.GLSN != rec.GLSN {
			t.Fatalf("glsn %v != %v", back.GLSN, rec.GLSN)
		}
		if len(back.Values) != len(rec.Values) {
			t.Fatalf("reassembled %d attrs, want %d", len(back.Values), len(rec.Values))
		}
		for a, v := range rec.Values {
			if !back.Values[a].Equal(v) {
				t.Fatalf("attribute %q = %v, want %v", a, back.Values[a], v)
			}
		}
	}
}

// TestNoFragmentHoldsFullRecord is the paper's core storage property:
// no single DLA node sees the whole record.
func TestNoFragmentHoldsFullRecord(t *testing.T) {
	ex, err := NewPaperExample()
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range ex.Records {
		for node, f := range ex.Partition.Split(rec) {
			if len(f.Values) >= len(rec.Values) {
				t.Fatalf("node %s fragment holds %d of %d attributes", node, len(f.Values), len(rec.Values))
			}
		}
	}
}

func TestPaperExampleMatchesTables(t *testing.T) {
	ex, err := NewPaperExample()
	if err != nil {
		t.Fatal(err)
	}
	if len(ex.Records) != 5 {
		t.Fatalf("got %d records, want 5", len(ex.Records))
	}
	// Table 2 (P0): glsn + time.
	f := ex.Partition.Split(ex.Records[0])["P0"]
	if f.GLSN.String() != "139aef78" {
		t.Fatalf("P0 fragment glsn %s", f.GLSN)
	}
	if got := f.Values["time"].Render(); got != "20:18:35/05/12/2002" {
		t.Fatalf("P0 time = %q", got)
	}
	if _, leak := f.Values["id"]; leak {
		t.Fatal("P0 fragment leaked the id attribute")
	}
	// Table 3 (P1): id and C2.
	f = ex.Partition.Split(ex.Records[4])["P1"]
	if got := f.Values["id"].Render(); got != "U3" {
		t.Fatalf("P1 id = %q, want U3", got)
	}
	if got := f.Values["C2"].Render(); got != "678.75" {
		t.Fatalf("P1 C2 = %q, want 678.75", got)
	}
	// Table 4 (P2): Tid and C3.
	f = ex.Partition.Split(ex.Records[3])["P2"]
	if got := f.Values["Tid"].Render(); got != "T1100265" {
		t.Fatalf("P2 Tid = %q", got)
	}
	if got := f.Values["C3"].Render(); got != "salary" {
		t.Fatalf("P2 C3 = %q", got)
	}
	// Table 5 (P3): protocl and C1.
	f = ex.Partition.Split(ex.Records[2])["P3"]
	if got := f.Values["protocl"].Render(); got != "UDP" {
		t.Fatalf("P3 protocl = %q", got)
	}
	if got := f.Values["C1"].Render(); got != "45" {
		t.Fatalf("P3 C1 = %q", got)
	}
	// Table 6 grants.
	if got := ex.TicketGrants["T1"]; len(got) != 2 || got[0].String() != "139aef78" || got[1].String() != "139aef80" {
		t.Fatalf("T1 grants = %v", got)
	}
}

func TestCoverCount(t *testing.T) {
	ex, err := NewPaperExample()
	if err != nil {
		t.Fatal(err)
	}
	// The example records populate attributes owned by all 4 nodes.
	if u := ex.Partition.CoverCount(ex.Records[0]); u != 4 {
		t.Fatalf("CoverCount = %d, want 4", u)
	}
	// A record touching only P0+P1 attributes needs 2 nodes.
	r := Record{GLSN: 1, Values: map[Attr]Value{"time": String("t"), "id": String("U1")}}
	if u := ex.Partition.CoverCount(r); u != 2 {
		t.Fatalf("CoverCount = %d, want 2", u)
	}
}

func TestReassembleErrors(t *testing.T) {
	if _, err := Reassemble(nil); err == nil {
		t.Fatal("empty fragment list accepted")
	}
	mismatch := []Fragment{
		{GLSN: 1, Values: map[Attr]Value{"a": Int(1)}},
		{GLSN: 2, Values: map[Attr]Value{"b": Int(2)}},
	}
	if _, err := Reassemble(mismatch); err == nil {
		t.Fatal("mismatched glsns accepted")
	}
	conflict := []Fragment{
		{GLSN: 1, Values: map[Attr]Value{"a": Int(1)}},
		{GLSN: 1, Values: map[Attr]Value{"a": Int(2)}},
	}
	if _, err := Reassemble(conflict); err == nil {
		t.Fatal("conflicting duplicate attribute accepted")
	}
}

func TestPartitionAccessors(t *testing.T) {
	ex, err := NewPaperExample()
	if err != nil {
		t.Fatal(err)
	}
	nodes := ex.Partition.Nodes()
	if len(nodes) != 4 || nodes[0] != "P0" || nodes[3] != "P3" {
		t.Fatalf("Nodes = %v", nodes)
	}
	nodes[0] = "mutated"
	if ex.Partition.Nodes()[0] != "P0" {
		t.Fatal("Nodes exposes internal slice")
	}
	attrs := ex.Partition.NodeAttrs("P1")
	if len(attrs) != 4 {
		t.Fatalf("P1 attrs = %v", attrs)
	}
	if ex.Partition.Owner("Tid") != "P2" {
		t.Fatalf("Owner(Tid) = %q", ex.Partition.Owner("Tid"))
	}
	if ex.Partition.Owner("nope") != "" {
		t.Fatal("Owner of unknown attribute should be empty")
	}
}

// TestSplitReassembleQuick property-tests lossless fragmentation on
// random records over the paper schema.
func TestSplitReassembleQuick(t *testing.T) {
	ex, err := NewPaperExample()
	if err != nil {
		t.Fatal(err)
	}
	f := func(glsn uint64, timeS, id string, c1 int64, c2 float64) bool {
		rec := Record{
			GLSN: GLSN(glsn),
			Values: map[Attr]Value{
				"time": String(timeS),
				"id":   String(id),
				"C1":   Int(c1),
				"C2":   Float(c2),
			},
		}
		frags := ex.Partition.Split(rec)
		list := make([]Fragment, 0, len(frags))
		for _, fr := range frags {
			list = append(list, fr)
		}
		back, err := Reassemble(list)
		if err != nil {
			return false
		}
		if back.GLSN != rec.GLSN || len(back.Values) != len(rec.Values) {
			return false
		}
		for a, v := range rec.Values {
			if !back.Values[a].Equal(v) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkSplit(b *testing.B) {
	ex, err := NewPaperExample()
	if err != nil {
		b.Fatal(err)
	}
	rec := ex.Records[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ex.Partition.Split(rec)
	}
}

func BenchmarkCanonical(b *testing.B) {
	ex, err := NewPaperExample()
	if err != nil {
		b.Fatal(err)
	}
	rec := ex.Records[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec.Canonical()
	}
}
