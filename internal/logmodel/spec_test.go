package logmodel

import (
	"encoding/json"
	"testing"
)

func TestPartitionSpecRoundTrip(t *testing.T) {
	ex, err := NewPaperExample()
	if err != nil {
		t.Fatal(err)
	}
	spec := ex.Partition.Spec()
	// Through JSON, as provisioning does.
	data, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	var back PartitionSpec
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	part, err := FromSpec(back)
	if err != nil {
		t.Fatal(err)
	}
	if len(part.Nodes()) != 4 {
		t.Fatalf("nodes = %v", part.Nodes())
	}
	for _, a := range ex.Schema.Attrs {
		if part.Owner(a) != ex.Partition.Owner(a) {
			t.Fatalf("owner of %q changed: %q vs %q", a, part.Owner(a), ex.Partition.Owner(a))
		}
	}
	if len(part.Schema().Undefined) != len(ex.Schema.Undefined) {
		t.Fatal("undefined attributes lost")
	}
	// Fragmentation behaves identically.
	rec := ex.Records[0]
	f1 := ex.Partition.Split(rec)
	f2 := part.Split(rec)
	for node := range f1 {
		if string(f1[node].Canonical()) != string(f2[node].Canonical()) {
			t.Fatalf("fragments differ on %s after spec round trip", node)
		}
	}
}

func TestFromSpecValidates(t *testing.T) {
	bad := PartitionSpec{
		Attrs:     []Attr{"a", "b"},
		Nodes:     []string{"P0"},
		NodeAttrs: map[string][]Attr{"P0": {"a"}}, // b uncovered
	}
	if _, err := FromSpec(bad); err == nil {
		t.Fatal("uncovering spec accepted")
	}
	dup := PartitionSpec{
		Attrs:     []Attr{"a", "a"},
		Nodes:     []string{"P0"},
		NodeAttrs: map[string][]Attr{"P0": {"a"}},
	}
	if _, err := FromSpec(dup); err == nil {
		t.Fatal("duplicate-attr spec accepted")
	}
}
