package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"math/big"
	"testing"
)

// TestDecRefusesMalformed is the one table of the decoder's generic
// refusals: truncation, overlong varints, the 32-bit bound, the
// non-canonical big integers and trailing bytes. Every body decoder is
// built from these accessors, so each refusal holds for every body.
func TestDecRefusesMalformed(t *testing.T) {
	uv := func(v uint64) []byte { return binary.AppendUvarint(nil, v) }
	num := func(d *Dec) error { _, err := d.Num(); return err }
	small := func(d *Dec) error { _, err := d.Small(); return err }
	run := func(d *Dec) error { _, err := d.Run(); return err }
	optBytes := func(d *Dec) error { _, err := d.OptBytes(); return err }
	optCount := func(d *Dec) error { _, _, err := d.OptCount(); return err }
	count := func(d *Dec) error { _, err := d.Count(); return err }
	ints := func(d *Dec) error { _, err := Ascending[int](d, math.MaxInt32); return err }
	u64s := func(d *Dec) error { _, err := Ascending[uint64](d, math.MaxUint64); return err }
	bigInt := func(d *Dec) error { _, err := d.Big(); return err }
	bigRun := func(d *Dec) error { _, err := d.BigRun(); return err }
	optRun := func(d *Dec) error { _, err := d.OptRun(); return err }
	done := func(d *Dec) error { return d.Done() }
	for _, tc := range []struct {
		name string
		src  []byte
		op   func(*Dec) error
	}{
		{"empty varint", nil, num},
		{"truncated varint", []byte{0x80}, num},
		{"varint past 64 bits", bytes.Repeat([]byte{0xFF}, 11), num},
		{"overlong varint", []byte{0x81, 0x00}, num},
		{"overlong zero", []byte{0x80, 0x00}, num},
		{"small of 2^31", uv(1 << 31), small},
		{"small of 2^31+1", uv(1<<31 + 1), small},
		{"small of 2^64-1", uv(math.MaxUint64), small},
		{"truncated run", []byte{0x03, 'a', 'b'}, run},
		{"run of 2^31", uv(1 << 31), run},
		{"truncated optional bytes", []byte{0x03, 'a'}, optBytes},
		{"truncated optional run", []byte{0x03, 'a'}, optRun},
		{"count past the bytes left", []byte{0x04, 0x00, 0x00}, optCount},
		{"list count past the bytes left", []byte{0x03, 0x00, 0x00}, count},
		{"ascending count past the bytes left", []byte{0x03, 0x00, 0x01}, ints},
		{"repeated element", []byte{0x02, 0x05, 0x00}, ints},
		{"descending element", append([]byte{0x02, 0x05}, uv(math.MaxUint64)...), ints},
		{"element past max", append([]byte{0x01}, uv(1<<31)...), ints},
		{"truncated list", []byte{0x02, 0x05}, ints},
		{"gap wrapping past 2^64", append([]byte{0x02, 0x05}, uv(math.MaxUint64-4)...), u64s},
		{"missing big-int tag", nil, bigInt},
		{"unknown big-int tag", []byte{0x03, 0x01, 0x05}, bigInt},
		{"truncated big integer", []byte{0x01, 0x02, 0x05}, bigInt},
		{"big integer with a leading zero", []byte{0x01, 0x02, 0x00, 0x05}, bigInt},
		{"negative zero", []byte{0x02, 0x00}, bigInt},
		{"unknown big-int tag, unread", []byte{0x03, 0x01, 0x05}, bigRun},
		{"truncated big integer, unread", []byte{0x01, 0x02, 0x05}, bigRun},
		{"leading zero, unread", []byte{0x01, 0x02, 0x00, 0x05}, bigRun},
		{"negative zero, unread", []byte{0x02, 0x00}, bigRun},
		{"trailing bytes", []byte{0x00}, done},
	} {
		d := NewDec(tc.src)
		if err := tc.op(&d); !errors.Is(err, ErrMalformed) {
			t.Errorf("%s: err %v, want ErrMalformed", tc.name, err)
		}
	}
}

// TestDecSmallBoundary pins the 32-bit guard from the accepting side:
// MaxInt32 decodes, and exactly 2^31 (which would wrap negative in a
// 32-bit int and reach a slice expression) is in the refusal table.
func TestDecSmallBoundary(t *testing.T) {
	d := NewDec(binary.AppendUvarint(nil, math.MaxInt32))
	if n, err := d.Small(); err != nil || n != math.MaxInt32 {
		t.Fatalf("Small() of MaxInt32: n=%d err=%v", n, err)
	}
}

// TestRoundTrip encodes every primitive and decodes it back to the same
// value, consuming every byte.
func TestRoundTrip(t *testing.T) {
	neg := new(big.Int).Neg(new(big.Int).Lsh(big.NewInt(0xAB), 100))
	var enc []byte
	enc = binary.AppendUvarint(enc, 1<<40)
	enc = AppendRun(enc, "origin")
	enc = AppendRun(enc, []byte{})
	enc = AppendOptBytes(enc, nil)
	enc = AppendOptBytes(enc, []byte{})
	enc = AppendOptBytes(enc, []byte{7, 8})
	enc = AppendOptCount(enc, 0, false)
	enc = AppendOptCount(enc, 2, true)
	enc = append(enc, 0xEE, 0xEE)
	for _, v := range []*big.Int{nil, big.NewInt(0), big.NewInt(300), neg} {
		enc = AppendBig(enc, v)
	}

	d := NewDec(enc)
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	n, err := d.Num()
	must(err)
	s, err := d.Str()
	must(err)
	r, err := d.Run()
	must(err)
	if n != 1<<40 || s != "origin" || len(r) != 0 {
		t.Fatalf("num %d, str %q, run %x", n, s, r)
	}
	opt := d // a second cursor reads the same three runs in place
	absent, err := d.OptBytes()
	must(err)
	empty, err := d.OptBytes()
	must(err)
	full, err := d.OptBytes()
	must(err)
	if absent != nil || empty == nil || len(empty) != 0 || !bytes.Equal(full, []byte{7, 8}) {
		t.Fatalf("optional bytes %v, %v, %v", absent, empty, full)
	}
	for _, want := range [][]byte{nil, {}, {7, 8}} {
		got, err := opt.OptRun()
		must(err)
		if (got == nil) != (want == nil) || !bytes.Equal(got, want) {
			t.Fatalf("optional run %v, want %v", got, want)
		}
	}
	if len(opt.Rest()) != len(d.Rest()) {
		t.Fatalf("OptRun left %d bytes, OptBytes %d", len(opt.Rest()), len(d.Rest()))
	}
	if _, present, err := d.OptCount(); err != nil || present {
		t.Fatalf("absent count: present %v, err %v", present, err)
	}
	c, present, err := d.OptCount()
	must(err)
	if !present || c != 2 {
		t.Fatalf("count %d, present %v", c, present)
	}
	if _, err := d.Take(2); err != nil {
		t.Fatal(err)
	}
	for _, want := range []*big.Int{nil, big.NewInt(0), big.NewInt(300), neg} {
		// BigRun hands out exactly the encoding Big then decodes.
		run, err := d.BigRun()
		must(err)
		if !bytes.Equal(run, AppendBig(nil, want)) {
			t.Fatalf("big run %x, want the encoding of %v", run, want)
		}
		rd := NewDec(run)
		got, err := rd.Big()
		must(err)
		must(rd.Done())
		if (got == nil) != (want == nil) || (got != nil && got.Cmp(want) != 0) {
			t.Fatalf("big %v, want %v", got, want)
		}
	}
	must(d.Done())
}

// TestAscendingRoundTrip encodes strictly ascending lists, including
// ones reaching the top of their element range, and decodes them back.
func TestAscendingRoundTrip(t *testing.T) {
	for _, want := range [][]uint64{nil, {0}, {0, 1, 2}, {7, 300, 1 << 40}, {1, math.MaxUint64}} {
		enc := AppendAscending(nil, want)
		d := NewDec(enc)
		got, err := Ascending[uint64](&d, math.MaxUint64)
		if err != nil || d.Done() != nil || len(got) != len(want) {
			t.Fatalf("%v: decoded %v, %v", want, got, err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%v: decoded %v", want, got)
			}
		}
	}
	d := NewDec(AppendAscending(nil, []int{0, math.MaxInt32}))
	if got, err := Ascending[int](&d, math.MaxInt32); err != nil || got[1] != math.MaxInt32 {
		t.Fatalf("int list up to MaxInt32: %v, %v", got, err)
	}
}

// TestAppendPrefixed checks that AppendPrefixed writes exactly what a
// known-length prefix would, across the one-, two- and three-byte
// length boundaries.
func TestAppendPrefixed(t *testing.T) {
	for _, n := range []int{0, 1, 127, 128, 300, 16383, 16384} {
		body := bytes.Repeat([]byte{0x5C}, n)
		want := AppendRun([]byte("head"), body)
		got := AppendPrefixed([]byte("head"), func(dst []byte) []byte { return append(dst, body...) })
		if !bytes.Equal(got, want) {
			t.Fatalf("%d-byte run: prefixed encoding differs from AppendRun", n)
		}
	}
}

// TestEncodeCopies checks that Encode's result is exact and owned: a
// second encoding, which reuses the pooled buffer, leaves the first
// intact.
func TestEncodeCopies(t *testing.T) {
	first := Encode(func(dst []byte) []byte { return AppendRun(dst, "first") })
	Encode(func(dst []byte) []byte { return AppendRun(dst, "SECOND") })
	if want := AppendRun(nil, "first"); !bytes.Equal(first, want) || cap(first) != len(want) {
		t.Fatalf("Encode returned %q (cap %d), want %q", first, cap(first), want)
	}
}
