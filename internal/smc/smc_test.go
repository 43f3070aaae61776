package smc

import (
	"math/big"
	"testing"
	"testing/quick"
)

func TestEncodeDecodeBig(t *testing.T) {
	f := func(v uint64) bool {
		x := new(big.Int).SetUint64(v)
		got, err := DecodeBig(EncodeBig(x))
		return err == nil && got.Cmp(x) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
	if EncodeBig(nil) != "" {
		t.Fatal("EncodeBig(nil) should be empty")
	}
	if _, err := DecodeBig(""); err == nil {
		t.Fatal("DecodeBig of empty should fail")
	}
	if _, err := DecodeBig("!!!not-base62!!!"); err == nil {
		t.Fatal("DecodeBig of garbage should fail")
	}
}

func TestRingHelpers(t *testing.T) {
	ring := []string{"A", "B", "C"}
	next, err := NextInRing(ring, "A")
	if err != nil || next != "B" {
		t.Fatalf("NextInRing(A) = %q, %v", next, err)
	}
	next, err = NextInRing(ring, "C")
	if err != nil || next != "A" {
		t.Fatalf("NextInRing(C) = %q, %v (should wrap)", next, err)
	}
	if _, err := NextInRing(ring, "Z"); err == nil {
		t.Fatal("NextInRing of non-member should fail")
	}
	i, err := IndexOf(ring, "B")
	if err != nil || i != 1 {
		t.Fatalf("IndexOf(B) = %d, %v", i, err)
	}
}

func TestValidateRing(t *testing.T) {
	if err := ValidateRing([]string{"A", "B"}, 2); err != nil {
		t.Fatal(err)
	}
	if err := ValidateRing([]string{"A"}, 2); err == nil {
		t.Fatal("short ring accepted")
	}
	if err := ValidateRing([]string{"A", "A"}, 2); err == nil {
		t.Fatal("duplicate ring accepted")
	}
	if err := ValidateRing([]string{"A", ""}, 2); err == nil {
		t.Fatal("empty ID accepted")
	}
}

func TestContains(t *testing.T) {
	if !Contains([]string{"x", "y"}, "y") {
		t.Fatal("Contains missed a member")
	}
	if Contains([]string{"x"}, "z") {
		t.Fatal("Contains found a non-member")
	}
	if Contains(nil, "z") {
		t.Fatal("Contains on nil should be false")
	}
}
