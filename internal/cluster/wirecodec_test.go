package cluster

import (
	"bytes"
	"crypto/ed25519"
	"encoding/json"
	"errors"
	"math"
	"math/big"
	"strings"
	"testing"

	"confaudit/internal/logmodel"
	"confaudit/internal/wire"
)

// fuzzStr coerces fuzz input to valid UTF-8: encoding/json replaces
// invalid bytes with U+FFFD (lossy by design), so only valid strings
// are in scope for the binary-vs-JSON differential. The binary codec
// itself is byte-faithful either way.
func fuzzStr(s string) string { return strings.ToValidUTF8(s, "�") }

// fuzzBig builds a big.Int from fuzz bytes. Empty input is nil, so the
// fuzzer and the checked-in corpus (which cannot spell a nil slice) reach
// the absent-field encodings; a present zero is []byte{0}.
func fuzzBig(b []byte, neg bool) *big.Int {
	if len(b) == 0 {
		return nil
	}
	v := new(big.Int).SetBytes(b)
	if neg {
		v.Neg(v)
	}
	return v
}

// fuzzSig builds a signature field from fuzz bytes: empty input is nil
// (absent); anything else is used as is, so a run that is not 64 bytes
// long reaches the decoder's refusal.
func fuzzSig(b []byte) []byte {
	if len(b) == 0 {
		return nil
	}
	return b
}

// sigOK reports whether the codec admits sig: absent, or exactly one
// Ed25519 signature.
func sigOK(sig []byte) bool { return sig == nil || len(sig) == ed25519.SignatureSize }

// testSig is a well-formed 64-byte signature run for codec tests.
func testSig(b byte) []byte { return bytes.Repeat([]byte{b}, ed25519.SignatureSize) }

// decodeBatchItem decodes an item run into its fields through viewItem,
// the node's one item reader: the reference the codec tests hold the
// encoder to.
func decodeBatchItem(src []byte, it *batchItem) error {
	v, _, err := viewItem(src, nil)
	if err != nil {
		return err
	}
	*it = batchItem{Fragment: fragmentOf(v.run), DigestExp: bigOf(v.dexp), Provenance: bytes.Clone(v.prov)}
	return nil
}

// fields returns the item decoded into its fields when it carries a
// run, else the item itself. A decoded item re-encodes as its run, so
// the codec tests re-encode its fields instead: that is what pins the
// decoder as canonical.
func fields(t testing.TB, it *batchItem) *batchItem {
	t.Helper()
	if it == nil || it.view.run == nil {
		return it
	}
	var out batchItem
	if err := decodeBatchItem(it.view.run, &out); err != nil {
		t.Fatalf("decoding a checked item run: %v", err)
	}
	return &out
}

// expandItems replaces every item of a decoded store batch with its
// fields (see fields).
func expandItems(t testing.TB, b *storeBatchBody) {
	t.Helper()
	for i := range b.Items {
		b.Items[i] = *fields(t, &b.Items[i])
	}
}

// checkBinaryJSONAgree round-trips body through the binary codec and,
// when the body is JSON-representable, through encoding/json, and
// requires the two decoded results to be identical — the codecs must
// describe the same body or a mixed-generation cluster diverges. enc
// must re-encode bit-exactly (the codec is deterministic). rt points at
// a zero value of the body's type for each decode.
func checkBinaryJSONAgree[T interface {
	AppendBinary([]byte) []byte
	DecodeBinary([]byte) error
}](t *testing.T, body T, newT func() T) {
	t.Helper()
	enc := body.AppendBinary(nil)
	bgot := newT()
	if err := bgot.DecodeBinary(enc); err != nil {
		t.Fatalf("decoding own encoding: %v", err)
	}
	if b, ok := any(bgot).(*storeBatchBody); ok {
		expandItems(t, b)
	}
	if enc2 := bgot.AppendBinary(nil); !bytes.Equal(enc, enc2) {
		t.Fatalf("re-encode differs:\n %x\n %x", enc, enc2)
	}
	jb, err := json.Marshal(body)
	if err != nil {
		return // not JSON-representable (NaN/Inf); binary-only bodies are fine
	}
	jgot := newT()
	if err := json.Unmarshal(jb, jgot); err != nil {
		t.Fatalf("decoding own JSON: %v", err)
	}
	b1, err := json.Marshal(bgot)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := json.Marshal(jgot)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1, b2) {
		t.Fatalf("binary and JSON decodes disagree:\n binary: %s\n json:   %s", b1, b2)
	}
}

// FuzzStoreBodyRoundTrip differentially fuzzes one store item — every
// value kind, NaN and ±Inf floats, nil and signed big integers, absent,
// 64-byte and mis-sized provenance signatures — as a one-item store
// batch: the binary path and the JSON path must decode to identical
// bodies, a mis-sized signature must be refused, an item followed by
// trail bytes (as the old layout's witness exponent followed the
// signature) must be refused, and neither the batch nor the item
// decoder may panic on arbitrary bytes.
func FuzzStoreBodyRoundTrip(f *testing.F) {
	f.Add("T1", "P0", uint64(0x139aef78), false, "user", "U1", uint8(1), int64(-42), 1.5,
		[]byte(nil), []byte{0x01}, []byte{}, uint8(0), []byte(nil))
	f.Add("", "", uint64(0), true, "", "", uint8(0), int64(0), 0.0,
		[]byte{0xFF}, []byte(nil), []byte(nil), uint8(2), []byte{0x00, 0x01})
	f.Add("T-neg", "P2", uint64(1)<<63, false, "amt", "", uint8(3), int64(math.MinInt64), math.Inf(1),
		[]byte{}, []byte{0x7F, 0xFF}, []byte{0x01, 0x02, 0x03}, uint8(0x0F), []byte{0xB7, 0x01})
	f.Fuzz(func(t *testing.T, ticketID, node string, glsn uint64, nilValues bool,
		attr, s string, kind uint8, i int64, fv float64,
		dexp, prov, trail []byte, signs uint8, raw []byte) {
		ticketID, node, attr, s = fuzzStr(ticketID), fuzzStr(node), fuzzStr(attr), fuzzStr(s)
		item := batchItem{
			Fragment:   logmodel.Fragment{GLSN: logmodel.GLSN(glsn), Node: node},
			DigestExp:  fuzzBig(dexp, signs&2 != 0),
			Provenance: fuzzSig(prov),
		}
		if !nilValues {
			item.Fragment.Values = map[logmodel.Attr]logmodel.Value{}
			if attr != "" {
				item.Fragment.Values[logmodel.Attr(attr)] = logmodel.Value{Kind: logmodel.Kind(kind % 4), S: s, I: i, F: fv}
				item.Fragment.Values[logmodel.Attr(attr+"'")] = logmodel.Value{Kind: logmodel.KindInt, I: i ^ 7}
			}
		}
		body := storeBatchBody{TicketID: ticketID, Items: []batchItem{item}}
		if sigOK(item.Provenance) {
			checkBinaryJSONAgree(t, &body, func() *storeBatchBody { return &storeBatchBody{} })
		} else if err := new(storeBatchBody).DecodeBinary(body.AppendBinary(nil)); !errors.Is(err, wire.ErrMalformed) {
			t.Fatalf("%d-byte provenance signature: decode err = %v, want wire.ErrMalformed", len(item.Provenance), err)
		}
		if len(trail) > 0 {
			if _, _, err := viewItem(append(appendBatchItem(nil, &item), trail...), nil); !errors.Is(err, wire.ErrMalformed) {
				t.Fatalf("item with %d trailing bytes: err = %v, want wire.ErrMalformed", len(trail), err)
			}
		}
		var junk storeBatchBody
		junk.DecodeBinary(raw) //nolint:errcheck // must not panic; errors are fine
		var junkItem batchItem
		if decodeBatchItem(raw, &junkItem) == nil {
			if re := appendBatchItem(nil, &junkItem); !bytes.Equal(raw, re) {
				t.Fatalf("accepted item %x, which re-encodes as %x", raw, re)
			}
		}
	})
}

// FuzzStoreBatchBodyRoundTrip differentially fuzzes the batched store
// body against the JSON path, with batches of up to 23 items, and
// requires every raw batch the decoder accepts to re-encode from its
// decoded fields to exactly its own bytes.
func FuzzStoreBatchBodyRoundTrip(f *testing.F) {
	f.Add("T1", uint8(3), []byte{0x01, 0x02}, false, []byte(nil))
	f.Add("", uint8(0), []byte(nil), true, []byte{0xB7})
	f.Add("T-wide", uint8(12), []byte{0xFF, 0x00, 0x7A}, false, []byte{0x00})
	f.Fuzz(func(t *testing.T, ticketID string, n uint8, seed []byte, nilItems bool, raw []byte) {
		ticketID = fuzzStr(ticketID)
		body := storeBatchBody{TicketID: ticketID}
		if !nilItems {
			count := int(n % 24)
			body.Items = make([]batchItem, 0, count)
			for i := 0; i < count; i++ {
				b := byte(i * 31)
				if len(seed) > 0 {
					b ^= seed[i%len(seed)]
				}
				it := batchItem{Fragment: logmodel.Fragment{
					GLSN: logmodel.GLSN(uint64(i)<<8 | uint64(b)),
					Node: string(rune('A' + i%26)),
				}}
				if b&1 != 0 {
					it.Fragment.Values = map[logmodel.Attr]logmodel.Value{
						"k": {Kind: logmodel.KindString, S: fuzzStr(string(seed))},
					}
				}
				if b&4 != 0 {
					it.DigestExp = big.NewInt(int64(b) << 20)
				}
				if b&8 != 0 {
					it.Provenance = testSig(b)
				}
				body.Items = append(body.Items, it)
			}
		}
		checkBinaryJSONAgree(t, &body, func() *storeBatchBody { return &storeBatchBody{} })
		// A node holds every item as the run it arrived in, so a run
		// must be the one encoding of what it decodes to.
		var junk storeBatchBody
		if junk.DecodeBinary(raw) == nil {
			expandItems(t, &junk)
			if re := junk.AppendBinary(nil); !bytes.Equal(raw, re) {
				t.Fatalf("accepted batch %x, which re-encodes as %x", raw, re)
			}
		}
	})
}

// FuzzWALEntryRoundTrip fuzzes the journal entry codec over every kind,
// with and without a ticket and a store item, with nil, zero and signed
// big integers, and with absent, 64-byte and mis-sized signatures: every
// entry with well-formed signatures must decode from its encoding and
// re-encode byte-exactly, and one with a mis-sized signature, or a frag
// entry whose item runs on into trail bytes, must be refused. Arbitrary
// bytes must never panic the decoder, and any it accepts must re-encode
// to exactly those bytes: the codec admits one encoding per entry.
func FuzzWALEntryRoundTrip(f *testing.F) {
	f.Add(uint8(1), "T1", uint64(0x139aef78), uint16(128), "", "", int64(0),
		[]byte(nil), []byte(nil), []byte(nil), uint8(0), []byte(nil))
	f.Add(uint8(2), "", uint64(9), uint16(0), "P2", "C1", int64(-3),
		[]byte{0x01, 0x00}, []byte{0x05}, []byte{}, uint8(0x37), []byte{0x03, 0x00})
	for _, e := range []walEntry{
		{Kind: "grant", TicketID: "T1", GLSN: 42, Count: 128},
		{Kind: "frag", Item: &batchItem{
			Fragment:  logmodel.Fragment{GLSN: 9, Node: "P1", Values: map[logmodel.Attr]logmodel.Value{"a": logmodel.Int(3)}},
			DigestExp: big.NewInt(5),
		}},
	} {
		raw, err := appendWALEntry(nil, &e)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(uint8(3), "", uint64(0), uint16(0), "", "", int64(0),
			[]byte(nil), []byte(nil), []byte(nil), uint8(0), raw)
	}
	f.Fuzz(func(t *testing.T, kind uint8, ticketID string, glsn uint64, count uint16,
		node, attr string, i int64, dexp, prov, trail []byte, flags uint8, raw []byte) {
		e := walEntry{Kind: walKindName[1+kind%4], TicketID: ticketID, GLSN: logmodel.GLSN(glsn), Count: int(count)}
		if flags&0x10 != 0 {
			e.Ticket = &wireTicket{ID: ticketID, Holder: node, Ops: []int{int(count)}, Sig: fuzzSig(prov)}
		}
		if flags&0x20 != 0 {
			e.Item = &batchItem{
				Fragment:   logmodel.Fragment{GLSN: logmodel.GLSN(glsn), Node: node},
				DigestExp:  fuzzBig(dexp, flags&1 != 0),
				Provenance: fuzzSig(prov),
			}
			if flags&0x40 == 0 {
				e.Item.Fragment.Values = map[logmodel.Attr]logmodel.Value{logmodel.Attr(attr): logmodel.Int(i)}
			}
		}
		enc, err := appendWALEntry(nil, &e)
		if err != nil {
			t.Fatal(err)
		}
		if e.Item != nil && len(trail) > 0 {
			if _, _, err := decodeWALEntry(append(bytes.Clone(enc), trail...), nil, new(batchItem)); !errors.Is(err, wire.ErrMalformed) {
				t.Fatalf("frag entry with %d trailing bytes: err = %v, want wire.ErrMalformed", len(trail), err)
			}
		}
		if junk, _, err := decodeWALEntry(raw, nil, new(batchItem)); err == nil {
			junk.Item = fields(t, junk.Item)
			if re, _ := appendWALEntry(nil, &junk); !bytes.Equal(raw, re) {
				t.Fatalf("accepted %x, which re-encodes as %x", raw, re)
			}
		}
		got, _, err := decodeWALEntry(enc, nil, new(batchItem))
		if !sigOK(fuzzSig(prov)) && (e.Ticket != nil || e.Item != nil) {
			if !errors.Is(err, wire.ErrMalformed) {
				t.Fatalf("%d-byte signature: decode err = %v, want wire.ErrMalformed", len(prov), err)
			}
			return
		}
		if err != nil {
			t.Fatalf("decoding own encoding: %v", err)
		}
		got.Item = fields(t, got.Item)
		if re, _ := appendWALEntry(nil, &got); !bytes.Equal(enc, re) {
			t.Fatalf("re-encode differs:\n %x\n %x", enc, re)
		}
	})
}

// TestWireBodiesRoundTrip pins the binary/JSON agreement for every
// remaining ingest-round body at representative values, including the
// nil-vs-empty distinctions JSON can express.
func TestWireBodiesRoundTrip(t *testing.T) {
	checkBinaryJSONAgree(t, &ackBody{OK: true}, func() *ackBody { return &ackBody{} })
	checkBinaryJSONAgree(t, &ackBody{Error: "cluster: no", Overloaded: true}, func() *ackBody { return &ackBody{} })
	checkBinaryJSONAgree(t, &glsnRangeReqBody{TicketID: "T", Count: 4096}, func() *glsnRangeReqBody { return &glsnRangeReqBody{} })
	checkBinaryJSONAgree(t, &glsnRangeRespBody{First: 7, Count: 12}, func() *glsnRangeRespBody { return &glsnRangeRespBody{} })
	checkBinaryJSONAgree(t, &glsnRangeRespBody{Error: "not leader"}, func() *glsnRangeRespBody { return &glsnRangeRespBody{} })
	checkBinaryJSONAgree(t, &agreeReqBody{Statement: []byte("glsnrange|5|1|T1")}, func() *agreeReqBody { return &agreeReqBody{} })
	checkBinaryJSONAgree(t, &agreeReqBody{}, func() *agreeReqBody { return &agreeReqBody{} })
	checkBinaryJSONAgree(t, &agreeVoteBody{Sig: testSig(0x42)}, func() *agreeVoteBody { return &agreeVoteBody{} })
	checkBinaryJSONAgree(t, &agreeVoteBody{Refused: "stale"}, func() *agreeVoteBody { return &agreeVoteBody{} })
	checkBinaryJSONAgree(t, &agreeCommitBody{Cert: Certificate{
		Statement: []byte("glsnrange|5|1|T1"),
		Votes:     map[string][]byte{"P0": testSig(1), "P2": testSig(3), "P1": nil},
	}}, func() *agreeCommitBody { return &agreeCommitBody{} })
	checkBinaryJSONAgree(t, &agreeCommitBody{}, func() *agreeCommitBody { return &agreeCommitBody{} })
}

// TestWALEntryBinaryRoundTrip pins the journal payload encoding across
// every entry kind.
func TestWALEntryBinaryRoundTrip(t *testing.T) {
	entries := []walEntry{
		{Kind: "ticket", Ticket: &wireTicket{ID: "T1", Holder: "u1", Ops: []int{1, 2, 4}, Sig: testSig(0xBE)}},
		{Kind: "ticket", Ticket: &wireTicket{ID: "", Holder: "u2"}},
		{Kind: "grant", TicketID: "T1", GLSN: 42, Count: 128},
		{Kind: "frag", Item: &batchItem{Fragment: logmodel.Fragment{
			GLSN: 9, Node: "P1",
			Values: map[logmodel.Attr]logmodel.Value{"a": logmodel.Int(3), "b": logmodel.Float(2.5)},
		}, DigestExp: big.NewInt(123456789)}},
		{Kind: "frag", Item: &batchItem{Fragment: logmodel.Fragment{GLSN: 10, Node: "P2"}, DigestExp: big.NewInt(5), Provenance: testSig(9)}},
		{Kind: "delete", GLSN: 7},
	}
	for i, e := range entries {
		payload, err := appendWALEntry(nil, &e)
		if err != nil {
			t.Fatalf("entry %d: %v", i, err)
		}
		got, _, err := decodeWALEntry(payload, nil, new(batchItem))
		if err != nil {
			t.Fatalf("entry %d: decode: %v", i, err)
		}
		got.Item = fields(t, got.Item)
		want, _ := json.Marshal(e)
		have, _ := json.Marshal(got)
		if !bytes.Equal(want, have) {
			t.Fatalf("entry %d round trip:\n want %s\n have %s", i, want, have)
		}
	}
	if _, err := appendWALEntry(nil, &walEntry{Kind: "bogus"}); err == nil {
		t.Fatal("unknown kind encoded")
	}
}

// TestWireDecodeRejectsHostileEncodings pins the decoder's defenses:
// trailing bytes, truncations, wild counts, and bad tags must error,
// never panic or over-allocate.
func TestWireDecodeRejectsHostileEncodings(t *testing.T) {
	one := storeBatchBody{TicketID: "T", Items: []batchItem{{
		Fragment:  logmodel.Fragment{GLSN: 9, Node: "P1", Values: map[logmodel.Attr]logmodel.Value{"a": logmodel.Int(3)}},
		DigestExp: big.NewInt(5),
	}}}
	good := one.AppendBinary(nil)
	var b storeBatchBody
	if err := b.DecodeBinary(append(good, 0x00)); err == nil {
		t.Fatal("trailing byte accepted")
	}
	for cut := 0; cut < len(good); cut++ {
		var tr storeBatchBody
		if err := tr.DecodeBinary(good[:cut]); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
	// A batch claiming 2^30 items in a 4-byte body must fail fast.
	hostile := []byte{0x00 /* empty ticket */, 0x84, 0x80, 0x80, 0x80, 0x01}
	var bb storeBatchBody
	if err := bb.DecodeBinary(hostile); err == nil {
		t.Fatal("hostile item count accepted")
	}
	// Three smallest items fill the body exactly; a claim of a fourth is
	// refused by the count bound before any item is read.
	smallest := storeBatchBody{Items: make([]batchItem, 3)}
	enc := smallest.AppendBinary(nil)
	if want := 2 + 3*minItemBytes; len(enc) != want {
		t.Fatalf("three smallest items encode in %d bytes, want %d", len(enc), want)
	}
	if err := new(storeBatchBody).DecodeBinary(enc); err != nil {
		t.Fatalf("three smallest items refused: %v", err)
	}
	enc[1]++ // the count is stored plus one: 3 becomes 4
	if err := new(storeBatchBody).DecodeBinary(enc); err == nil || !strings.Contains(err.Error(), "4 store items claimed") {
		t.Fatalf("a count the body cannot hold: err = %v, want the count bound's refusal", err)
	}
	// A big.Int with an invalid sign tag, as a store item's digest
	// exponent after the fragment glsn 1, node "", no values.
	frag := []byte{0x01, 0x00, 0x00}
	var bt batchItem
	if err := decodeBatchItem(append(append(frag, 0x09, 0x01, 0xAA), 0x00), &bt); err == nil {
		t.Fatal("bad big-int tag accepted")
	}
	if _, _, err := decodeWALEntry([]byte{0x09}, nil, new(batchItem)); err == nil {
		t.Fatal("bad WAL kind code accepted")
	}
	// Non-canonical encodings of valid values: each would give one value
	// a second encoding.
	var rq glsnRangeReqBody
	if err := rq.DecodeBinary([]byte{0x00, 0x81, 0x00}); err == nil {
		t.Fatal("overlong varint accepted")
	}
	// Each case below is refused only for its one defect: the same
	// bytes with the canonical form ("canonical") decode.
	for name, dexp := range map[string][]byte{
		"canonical":         {0x01, 0x01, 0x05},
		"leading zero byte": {0x01, 0x02, 0x00, 0x05},
		"negative zero":     {0x02, 0x00},
	} {
		var it batchItem
		enc := append(append(append([]byte(nil), frag...), dexp...), 0x00) // no provenance
		if err := decodeBatchItem(enc, &it); (err == nil) != (name == "canonical") {
			t.Fatalf("big integer, %s: err = %v", name, err)
		}
	}
	for name, attrs := range map[string]string{"canonical": "ab", "out of order": "ba", "repeated": "aa"} {
		enc := []byte{0x01, 0x00, 0x03} // glsn 1, node "", two values
		for _, a := range []byte(attrs) {
			enc = append(enc, 0x01, a, 0x00, 0x00, 0x00, 0x00)
		}
		enc = append(enc, 0x00, 0x00) // no digest exponent, no provenance
		var it batchItem
		if err := decodeBatchItem(enc, &it); (err == nil) != (name == "canonical") {
			t.Fatalf("fragment attributes, %s: err = %v", name, err)
		}
	}
}

// TestWireDecodeRefusesMisSizedSignatures pins the signature boundary in
// every decoder that carries one — votes, certificates, tickets and
// provenance: a run of 63 or 65 bytes is refused with
// wire.ErrMalformed, so a short signature never reaches ed25519 or a
// quorum count.
func TestWireDecodeRefusesMisSizedSignatures(t *testing.T) {
	for _, n := range []int{0, 1, ed25519.SignatureSize - 1, ed25519.SignatureSize + 1} {
		sig := make([]byte, n)
		vote := agreeVoteBody{Sig: sig}
		if err := new(agreeVoteBody).DecodeBinary(vote.AppendBinary(nil)); !errors.Is(err, wire.ErrMalformed) {
			t.Errorf("%d-byte vote: err = %v, want wire.ErrMalformed", n, err)
		}
		commit := agreeCommitBody{Cert: Certificate{Statement: []byte("s"), Votes: map[string][]byte{"P0": testSig(1), "P1": sig}}}
		if err := new(agreeCommitBody).DecodeBinary(commit.AppendBinary(nil)); !errors.Is(err, wire.ErrMalformed) {
			t.Errorf("%d-byte certificate vote: err = %v, want wire.ErrMalformed", n, err)
		}
		tk := walEntry{Kind: "ticket", Ticket: &wireTicket{ID: "T1", Holder: "u0", Ops: []int{1}, Sig: sig}}
		enc, err := appendWALEntry(nil, &tk)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := decodeWALEntry(enc, nil, new(batchItem)); !errors.Is(err, wire.ErrMalformed) {
			t.Errorf("%d-byte ticket signature: err = %v, want wire.ErrMalformed", n, err)
		}
		it := batchItem{Fragment: logmodel.Fragment{GLSN: 1, Node: "P0"}, DigestExp: big.NewInt(5), Provenance: sig}
		if err := decodeBatchItem(appendBatchItem(nil, &it), new(batchItem)); !errors.Is(err, wire.ErrMalformed) {
			t.Errorf("%d-byte provenance: err = %v, want wire.ErrMalformed", n, err)
		}
	}
}

// TestDecodeWALEntryAllocs decodes a journaled "frag" entry into one
// item and key slice reused from call to call, as replay does from
// record to record: the decode allocates nothing.
func TestDecodeWALEntryAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	rec, err := entryRecord(&walEntry{Kind: "frag", Item: &batchItem{
		Fragment: logmodel.Fragment{GLSN: 300, Node: "P1", Values: map[logmodel.Attr]logmodel.Value{
			"id":  logmodel.String("U1"),
			"amt": logmodel.Int(-42),
		}},
		DigestExp: big.NewInt(9),
	}})
	if err != nil {
		t.Fatal(err)
	}
	var item batchItem
	keys := make([]valueKey, 0, 2)
	allocs := testing.AllocsPerRun(100, func() {
		e, _, err := decodeWALEntry(rec.Data[2:], keys[:0], &item)
		if err != nil || e.Item != &item {
			t.Fatalf("decoded %+v, %v", e, err)
		}
	})
	if allocs != 0 {
		t.Fatalf("decoding a frag entry took %.0f allocations, want 0", allocs)
	}
}
