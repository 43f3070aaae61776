package compare

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"math/big"
	"runtime"
	"strings"
	"testing"
	"time"

	"confaudit/internal/smc"
	"confaudit/internal/transport"
	"confaudit/internal/wire"
)

// body is what every compare body implements: transport.BinaryBody.
type body = transport.BinaryBody

// rawBody is a binary payload of hand-made bytes, for a peer that
// breaks the protocol.
type rawBody []byte

func (b rawBody) AppendBinary(dst []byte) []byte { return append(dst, b...) }
func (b rawBody) DecodeBinary([]byte) error      { return errors.New("rawBody is send-only") }

// wireBodies lists, per decoder, bodies its encoder writes. The
// checked-in fuzz corpora hold their encodings.
var wireBodies = map[string][]body{
	"seed": {
		&seedBody{},
		&seedBody{A: big.NewInt(1), B: new(big.Int).Lsh(big.NewInt(1), 147), K: [keySize]byte{1, 2, 3}},
	},
	"submit": {
		&submitBody{W: big.NewInt(0)},
		&submitBody{W: big.NewInt(-77)},
		&submitBody{W: new(big.Int).Lsh(big.NewInt(3), 200)},
	},
	"eq verdict": {&eqVerdictBody{}, &eqVerdictBody{Equal: true}},
	"rank verdict": {
		&rankVerdictBody{Ranks: []int{1, 2}, Max: 0, Min: 1},
		&rankVerdictBody{Ranks: []int{2, 1, 2}, Max: 1, Min: 2},
	},
	"batch submit": {
		&batchSubmitBody{},
		&batchSubmitBody{N: 2, Digest: [digestSize]byte{9}, Run: []byte{1, 2, 3, 4}},
	},
	"batch verdict": {&batchVerdictBody{}, &batchVerdictBody{Signs: []byte{0, 1, 2, 2}}},
	"intersect submit": {
		&intersectSubmitBody{Members: 2},
		&intersectSubmitBody{Members: 3, Tags: bytes.Repeat([]byte{5}, 2*TagSize)},
	},
	"intersect verdict": {
		&intersectVerdictBody{},
		&intersectVerdictBody{Common: []int{0}},
		&intersectVerdictBody{Common: []int{3, 4, 200, 70000}},
	},
}

// decoders returns a fresh body of each decoder's type.
var decoders = map[string]func() body{
	"seed":              func() body { return new(seedBody) },
	"submit":            func() body { return new(submitBody) },
	"eq verdict":        func() body { return new(eqVerdictBody) },
	"rank verdict":      func() body { return new(rankVerdictBody) },
	"batch submit":      func() body { return new(batchSubmitBody) },
	"batch verdict":     func() body { return new(batchVerdictBody) },
	"intersect submit":  func() body { return new(intersectSubmitBody) },
	"intersect verdict": func() body { return new(intersectVerdictBody) },
}

func uv(vs ...uint64) []byte {
	var out []byte
	for _, v := range vs {
		out = binary.AppendUvarint(out, v)
	}
	return out
}

func cat(parts ...[]byte) []byte { return bytes.Join(parts, nil) }

// wireMalformed lists, per decoder, inputs it must refuse.
var wireMalformed = map[string]map[string][]byte{
	"seed": {
		"empty":            nil,
		"short key":        cat([]byte{0, 0}, make([]byte, keySize-1)),
		"trailing byte":    cat([]byte{0, 0}, make([]byte, keySize+1)),
		"leading zero":     cat([]byte{1, 2, 0, 1, 0}, make([]byte, keySize)),
		"unknown big tag":  cat([]byte{3, 0, 0}, make([]byte, keySize)),
		"truncated a":      {1, 9, 1},
		"negative zero":    cat([]byte{2, 0, 0}, make([]byte, keySize)),
		"overlong varint":  cat([]byte{1, 0x81, 0x00, 1, 0}, make([]byte, keySize)),
		"run past the end": cat([]byte{1}, uv(1<<30), []byte{1}),
	},
	"submit": {
		"empty":    nil,
		"no value": {0},
		"trailing": {1, 1, 5, 0},
	},
	"eq verdict": {
		"empty":         nil,
		"verdict byte":  {2},
		"trailing byte": {1, 0},
	},
	"rank verdict": {
		"count past the end": uv(5, 1, 2),
		"rank zero":          uv(2, 0, 1, 0, 1),
		"rank past n":        uv(2, 1, 3, 0, 1),
		"max past n":         uv(2, 1, 2, 2, 1),
		"min past n":         uv(2, 1, 2, 0, 2),
		"no holders":         uv(0, 0, 0),
		"truncated":          uv(2, 1, 2, 0),
	},
	"batch submit": {
		"count past the end": cat(uv(100), make([]byte, digestSize), uv(0)),
		"short digest":       cat(uv(0), make([]byte, digestSize-1)),
		"run past the end":   cat(uv(1), make([]byte, digestSize), uv(8), []byte{1, 2}),
		"huge run claim":     cat(uv(1), make([]byte, digestSize), uv(1<<31-1), []byte{1}),
		"trailing":           cat(uv(0), make([]byte, digestSize), uv(0), []byte{0}),
	},
	"batch verdict": {
		"sign byte 3":  {0, 1, 3},
		"sign byte ff": {0xff},
	},
	"intersect submit": {
		"ragged tag run":   cat(uv(2, TagSize-1), make([]byte, TagSize-1)),
		"one and a bit":    cat(uv(2, TagSize+1), make([]byte, TagSize+1)),
		"run past the end": cat(uv(2, 2*TagSize), make([]byte, TagSize)),
		"huge run claim":   cat(uv(2, 1<<31-1), make([]byte, TagSize)),
		"trailing":         cat(uv(2, 0), []byte{0}),
	},
	"intersect verdict": {
		"count past the end": uv(9, 1),
		"huge count":         uv(1<<31-1, 0),
		"repeated position":  uv(2, 4, 0),
		"descending":         uv(2, 4, 1<<64-2),
		"past int32":         uv(1, 1<<31),
		"truncated":          uv(3, 1, 1),
		"trailing":           uv(1, 0, 0),
	},
}

// TestBodiesRoundTrip decodes every listed body's encoding and
// re-encodes it: the bytes must come back unchanged.
func TestBodiesRoundTrip(t *testing.T) {
	for name, bodies := range wireBodies {
		for i, b := range bodies {
			enc := b.AppendBinary(nil)
			got := decoders[name]()
			if err := got.DecodeBinary(enc); err != nil {
				t.Errorf("%s %d: %v", name, i, err)
				continue
			}
			if re := got.AppendBinary(nil); !bytes.Equal(re, enc) {
				t.Errorf("%s %d: % x re-encoded as % x", name, i, enc, re)
			}
		}
	}
}

// TestBodiesRefuseMalformed feeds every decoder its hostile inputs:
// each is refused as both a protocol violation and a malformed
// encoding.
func TestBodiesRefuseMalformed(t *testing.T) {
	for name, cases := range wireMalformed {
		for c, src := range cases {
			err := decoders[name]().DecodeBinary(src)
			if !errors.Is(err, smc.ErrProtocol) || !errors.Is(err, wire.ErrMalformed) {
				t.Errorf("%s, %s: err %v, want smc.ErrProtocol and wire.ErrMalformed", name, c, err)
			}
		}
	}
}

// TestBodiesRefuseHugeClaimsUnallocated pins that a count or run
// longer than the bytes left is refused before the decoder allocates
// for it: each hostile input claims 2^31-1 elements or bytes, and the
// refusals together allocate far less than one such list would.
func TestBodiesRefuseHugeClaimsUnallocated(t *testing.T) {
	inputs := map[string][]byte{
		"rank verdict":      uv(1<<31-1, 1),
		"batch submit":      wireMalformed["batch submit"]["huge run claim"],
		"intersect submit":  wireMalformed["intersect submit"]["huge run claim"],
		"intersect verdict": wireMalformed["intersect verdict"]["huge count"],
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for name, src := range inputs {
		if err := decoders[name]().DecodeBinary(src); !errors.Is(err, wire.ErrMalformed) {
			t.Fatalf("%s: err %v, want wire.ErrMalformed", name, err)
		}
	}
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Fatalf("refusing huge claims allocated %d bytes", grew)
	}
}

// fuzzRoundTrip feeds a decoder arbitrary input. It must never panic;
// it refuses with smc.ErrProtocol and wire.ErrMalformed, and every body
// it accepts re-encodes to exactly the input. The checked-in corpora
// hold the encodings of wireBodies and the inputs of wireMalformed.
func fuzzRoundTrip(f *testing.F, name string) {
	f.Fuzz(func(t *testing.T, src []byte) {
		b := decoders[name]()
		if err := b.DecodeBinary(src); err != nil {
			if !errors.Is(err, smc.ErrProtocol) || !errors.Is(err, wire.ErrMalformed) {
				t.Fatalf("refusal %v is not smc.ErrProtocol and wire.ErrMalformed", err)
			}
			return
		}
		if enc := b.AppendBinary(nil); !bytes.Equal(enc, src) {
			t.Fatalf("accepted % x, re-encoded as % x", src, enc)
		}
	})
}

func FuzzSeedBody(f *testing.F)             { fuzzRoundTrip(f, "seed") }
func FuzzSubmitBody(f *testing.F)           { fuzzRoundTrip(f, "submit") }
func FuzzEqVerdictBody(f *testing.F)        { fuzzRoundTrip(f, "eq verdict") }
func FuzzRankVerdictBody(f *testing.F)      { fuzzRoundTrip(f, "rank verdict") }
func FuzzBatchSubmitBody(f *testing.F)      { fuzzRoundTrip(f, "batch submit") }
func FuzzBatchVerdictBody(f *testing.F)     { fuzzRoundTrip(f, "batch verdict") }
func FuzzIntersectSubmitBody(f *testing.F)  { fuzzRoundTrip(f, "intersect submit") }
func FuzzIntersectVerdictBody(f *testing.F) { fuzzRoundTrip(f, "intersect verdict") }

// TestPreBinaryJSONRefused states what a node from before the binary
// bodies meets: each compare body as such a node sends it, JSON, makes
// the TTP or the receiving holder return an error at once, rather than
// wait or read a wrong value from it.
func TestPreBinaryJSONRefused(t *testing.T) {
	eq := EqualityConfig{P: testPrime, Holders: [2]string{"A", "B"}, TTP: "TTP", Session: "json"}
	rk := RankConfig{Holders: []string{"A", "B"}, TTP: "TTP", MaxValue: big.NewInt(100), Session: "json"}
	bt := batchCfg
	bt.Session = "json"
	is := eqCfg
	is.Session = "json"
	one := big.NewInt(1)
	type send struct {
		from, to, typ string
		body          any
	}
	// seedToA is B's binary seed to A, which lets A reach its verdict;
	// an intersection's seed carries no transform.
	seedToA := func(transform bool) send {
		s := &seedBody{}
		if transform {
			s.A, s.B = one, one
		}
		return send{"B", "A", msgSeed, s}
	}
	for _, tc := range []struct {
		name  string
		sends []send
		run   func(context.Context, map[string]*transport.Mailbox) error
	}{
		{"seed", []send{{"B", "A", msgSeed, map[string]string{"a": "1", "b": "1"}}},
			func(ctx context.Context, mbs map[string]*transport.Mailbox) error {
				_, err := Intersect(ctx, mbs["A"], is, byteVals("g1"))
				return err
			}},
		{"eq submit", []send{{"A", "TTP", msgSubmitEq, map[string]string{"w": "5"}}},
			func(ctx context.Context, mbs map[string]*transport.Mailbox) error {
				return ServeEqual(ctx, mbs["TTP"], eq)
			}},
		{"eq verdict", []send{seedToA(true), {"TTP", "A", msgVerdictEq, map[string]bool{"equal": true}}},
			func(ctx context.Context, mbs map[string]*transport.Mailbox) error {
				_, err := Equal(ctx, mbs["A"], eq, big.NewInt(5))
				return err
			}},
		{"rank submit", []send{{"A", "TTP", msgSubmitRk, map[string]string{"w": "5"}}},
			func(ctx context.Context, mbs map[string]*transport.Mailbox) error {
				return ServeRank(ctx, mbs["TTP"], rk)
			}},
		{"rank verdict", []send{seedToA(true), {"TTP", "A", msgVerdictRk, map[string]any{
			"max_holder": "A", "min_holder": "B", "rank": map[string]int{"A": 1, "B": 2}}}},
			func(ctx context.Context, mbs map[string]*transport.Mailbox) error {
				_, err := Rank(ctx, mbs["A"], rk, big.NewInt(5))
				return err
			}},
		{"batch submit", []send{{"A", "TTP", msgSubmitBatch, map[string][]string{"keys": {"1"}, "ws": {"5"}}}},
			func(ctx context.Context, mbs map[string]*transport.Mailbox) error {
				return ServeBatchCompare(ctx, mbs["TTP"], bt)
			}},
		{"batch verdict", []send{seedToA(true), {"TTP", "A", msgVerdictBatch, map[string]any{"keys": []string{"k"}, "signs": []int{1}}}},
			func(ctx context.Context, mbs map[string]*transport.Mailbox) error {
				_, err := BatchCompare(ctx, mbs["A"], bt, []string{"k"}, []*big.Int{one})
				return err
			}},
		{"intersect submit", []send{{"A", "TTP", msgSubmitIntersect, map[string]any{"members": 2, "tags": [][]byte{make([]byte, TagSize)}}}},
			func(ctx context.Context, mbs map[string]*transport.Mailbox) error {
				_, _, err := ServeIntersect(ctx, mbs["TTP"], is)
				return err
			}},
		{"intersect verdict", []send{seedToA(false), {"TTP", "A", msgVerdictIntersect, map[string][]int{"common": {0}}}},
			func(ctx context.Context, mbs map[string]*transport.Mailbox) error {
				_, err := Intersect(ctx, mbs["A"], is, byteVals("g1"))
				return err
			}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			net := transport.NewMemNetwork()
			defer net.Close() //nolint:errcheck
			mbs := mailboxes(t, net, "A", "B", "TTP")
			for _, s := range tc.sends {
				if err := mbs[s.from].SendBody(ctx, s.to, s.typ, "json", s.body); err != nil {
					t.Fatal(err)
				}
			}
			if err := tc.run(ctx, mbs); err == nil || !strings.Contains(err.Error(), "non-binary payload") {
				t.Fatalf("err = %v, want a refusal of the JSON body", err)
			}
		})
	}
}
