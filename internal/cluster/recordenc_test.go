package cluster

import (
	"bytes"
	"crypto/ed25519"
	"crypto/rand"
	"math"
	"math/big"
	mrand "math/rand/v2"
	"sync"
	"testing"

	"confaudit/internal/crypto/accumulator"
	"confaudit/internal/logmodel"
	"confaudit/internal/transport"
	"confaudit/internal/workload"
)

// referenceItems is the write path spelled out field by field, the
// reference recordEncoder must match byte for byte: Partition.Split,
// Fragment.Canonical for every node, the product of those texts'
// HashItem exponents, then each node's field-form store item, encoded
// by appendBatchItem. It returns each node's text and item.
func referenceItems(part *logmodel.Partition, acc *accumulator.Params, signer ed25519.PrivateKey, g logmodel.GLSN, values map[logmodel.Attr]logmodel.Value) (map[string][]byte, map[string]batchItem) {
	frags := part.Split(logmodel.Record{GLSN: g, Values: values})
	nodes := part.Nodes()
	texts := make(map[string][]byte, len(nodes))
	dexp := big.NewInt(1)
	for _, node := range nodes {
		texts[node] = frags[node].Canonical()
		dexp.Mul(dexp, accumulator.HashItem(texts[node]))
	}
	var prov []byte
	if signer != nil {
		prov = ed25519.Sign(signer, ProvenanceStatement(g, acc.PowX0(dexp)))
	}
	items := make(map[string]batchItem, len(nodes))
	for _, node := range nodes {
		items[node] = batchItem{Fragment: frags[node], DigestExp: dexp, Provenance: prov}
	}
	return texts, items
}

// encoderFixture is a partition exercising the encoder's layout: P0's
// attributes are declared out of sorted order, P3 holds none, and the
// schema's attribute names sort differently from their declaration.
type encoderFixture struct {
	part   *logmodel.Partition
	acc    *accumulator.Params
	signer ed25519.PrivateKey
}

var (
	encFixOnce sync.Once
	encFix     encoderFixture
	encFixErr  error
)

func newEncoderFixture(tb testing.TB) encoderFixture {
	tb.Helper()
	encFixOnce.Do(func() {
		attrs := []logmodel.Attr{"time", "id", "Tid", "C1", "C2", "C10", "a|b", "x=y", ""}
		schema, err := logmodel.NewSchema(attrs, "C1", "C2", "C10")
		if err != nil {
			encFixErr = err
			return
		}
		nodes := []string{"P0", "P1", "P2", "P3"}
		encFix.part, err = logmodel.NewPartition(schema, nodes, map[string][]logmodel.Attr{
			"P0": {"time", "C2", "C10", "a|b"},
			"P1": {"id", "x=y"},
			"P2": {"Tid", "C1", ""},
			"P3": {},
		})
		if err != nil {
			encFixErr = err
			return
		}
		if encFix.acc, encFixErr = accumulator.GenerateParams(rand.Reader, 256); encFixErr != nil {
			return
		}
		encFix.signer = ed25519.NewKeyFromSeed(bytes.Repeat([]byte{7}, ed25519.SeedSize))
	})
	if encFixErr != nil {
		tb.Fatal(encFixErr)
	}
	return encFix
}

// encoderValues are the values generated records draw from: every
// kind, the floats whose renderings and bits differ (NaN, ±0, ±Inf,
// 2^53), and strings holding the canonical text's separators.
var encoderValues = []logmodel.Value{
	logmodel.Int(0), logmodel.Int(-1), logmodel.Int(1 << 53), logmodel.Int(math.MinInt64), logmodel.Int(math.MaxInt64),
	logmodel.Float(0), logmodel.Float(math.Copysign(0, -1)), logmodel.Float(math.NaN()),
	logmodel.Float(math.Inf(1)), logmodel.Float(math.Inf(-1)), logmodel.Float(1 << 53), logmodel.Float(0.1), logmodel.Float(-1e300),
	logmodel.String(""), logmodel.String("|"), logmodel.String("="), logmodel.String("a|b=c"), logmodel.String("héllo"),
	{Kind: logmodel.KindString, S: "kind string, stray int and float", I: 5, F: 2.5},
}

// genRecord draws a record over the fixture schema plus attributes
// outside it. Each schema attribute is present with probability 1/2, so
// some records carry nothing for some node.
func genRecord(rng *mrand.Rand, schema *logmodel.Schema) map[logmodel.Attr]logmodel.Value {
	values := make(map[logmodel.Attr]logmodel.Value)
	for _, a := range append(append([]logmodel.Attr(nil), schema.Attrs...), "zz", "C9", "time ") {
		if rng.IntN(2) == 0 {
			values[a] = encoderValues[rng.IntN(len(encoderValues))]
		}
	}
	return values
}

// checkEncoderAgainstReference encodes records as one store round and
// compares, record by record and node by node, the encoder's fragment
// text (for the batch's last record, whose texts the scratch still
// holds), its item bytes and the exponents in them with the reference
// path's.
func checkEncoderAgainstReference(t *testing.T, e *recordEncoder, s *encodeScratch, fix encoderFixture, first logmodel.GLSN, records []map[logmodel.Attr]logmodel.Value) {
	t.Helper()
	e.encode(s, first, records)
	for k, values := range records {
		g := first + logmodel.GLSN(k)
		texts, items := referenceItems(fix.part, fix.acc, e.signer, g, values)
		for i, node := range e.nodes {
			if k == len(records)-1 && !bytes.Equal(s.texts[i], texts[node]) {
				t.Fatalf("glsn %s node %s: text %q, reference %q", g, node, s.texts[i], texts[node])
			}
			if len(s.items[i]) != len(records) {
				t.Fatalf("node %s: %d items for %d records", node, len(s.items[i]), len(records))
			}
			ref := items[node]
			got := s.items[i][k].view.run
			want := appendBatchItem(nil, &ref)
			if !bytes.Equal(got, want) {
				t.Fatalf("glsn %s node %s (values %v): item\n% x\nreference\n% x", g, node, values, got, want)
			}
			v, _, err := viewItem(got, nil)
			if err != nil {
				t.Fatalf("glsn %s node %s: item does not decode: %v", g, node, err)
			}
			if bigOf(v.dexp).Cmp(ref.DigestExp) != 0 {
				t.Fatalf("glsn %s node %s: digest exponent differs from the reference", g, node)
			}
		}
	}
}

// TestRecordEncoderMatchesReference holds the writer's one-pass encoder
// to the field-by-field reference path on generated records: identical
// fragment texts, exponents and item bytes, with and without a
// provenance signer, one record and whole batches at a time, through one
// scratch reused across rounds. The messages it builds carry exactly
// those items.
func TestRecordEncoderMatchesReference(t *testing.T) {
	fix := newEncoderFixture(t)
	rng := mrand.New(mrand.NewPCG(1, 2))
	for _, signer := range []ed25519.PrivateKey{nil, fix.signer} {
		e := newRecordEncoder(fix.part, fix.acc, signer)
		s := e.scratch()
		for round := 0; round < 40; round++ {
			first := logmodel.GLSN(rng.Uint64N(1 << 62))
			if round%4 == 0 {
				first = logmodel.GLSN(round)
			}
			records := make([]map[logmodel.Attr]logmodel.Value, 1+rng.IntN(6))
			for k := range records {
				records[k] = genRecord(rng, fix.part.Schema())
			}
			records[0] = map[logmodel.Attr]logmodel.Value{} // nothing for any node
			checkEncoderAgainstReference(t, e, s, fix, first, records)
		}

		records := []map[logmodel.Attr]logmodel.Value{genRecord(rng, fix.part.Schema()), genRecord(rng, fix.part.Schema())}
		msgs, err := e.messages("T1", 9, records)
		if err != nil {
			t.Fatal(err)
		}
		for i, msg := range msgs {
			if msg.To != e.nodes[i] || msg.Type != MsgLogStoreBatch {
				t.Fatalf("message %d is %s to %s", i, msg.Type, msg.To)
			}
			var body storeBatchBody
			if err := transport.Unmarshal(msg.Payload, &body); err != nil {
				t.Fatal(err)
			}
			if body.TicketID != "T1" || len(body.Items) != len(records) {
				t.Fatalf("node %s: ticket %q with %d items", msg.To, body.TicketID, len(body.Items))
			}
			for k, it := range body.Items {
				_, items := referenceItems(fix.part, fix.acc, signer, 9+logmodel.GLSN(k), records[k])
				ref := items[msg.To]
				if !bytes.Equal(it.view.run, appendBatchItem(nil, &ref)) {
					t.Fatalf("node %s item %d differs from the reference", msg.To, k)
				}
			}
		}
	}
}

// TestRecordEncoderConcurrentRounds runs store rounds on one encoder
// from several goroutines at once, as an Appender's inflight batches
// do: each round's messages must carry exactly its own records' items,
// whichever pooled scratch it drew.
func TestRecordEncoderConcurrentRounds(t *testing.T) {
	fix := newEncoderFixture(t)
	e := newRecordEncoder(fix.part, fix.acc, nil)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		rng := mrand.New(mrand.NewPCG(uint64(w), 3))
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 20; round++ {
				first := logmodel.GLSN(rng.Uint64N(1 << 40))
				records := make([]map[logmodel.Attr]logmodel.Value, 1+rng.IntN(8))
				for k := range records {
					records[k] = genRecord(rng, fix.part.Schema())
				}
				msgs, err := e.messages("T1", first, records)
				if err != nil {
					t.Error(err)
					return
				}
				for _, msg := range msgs {
					var body storeBatchBody
					if err := transport.Unmarshal(msg.Payload, &body); err != nil {
						t.Error(err)
						return
					}
					for k, it := range body.Items {
						_, items := referenceItems(fix.part, fix.acc, nil, first+logmodel.GLSN(k), records[k])
						ref := items[msg.To]
						if !bytes.Equal(it.view.run, appendBatchItem(nil, &ref)) {
							t.Errorf("node %s item %d of a concurrent round differs from the reference", msg.To, k)
							return
						}
					}
				}
			}
		}()
	}
	wg.Wait()
}

// FuzzRecordEncoder drives the differential check from fuzzed values:
// the first schema attributes take a string, an int and a float built
// from the input, the rest one of the fixed values, present or not by
// the mask.
func FuzzRecordEncoder(f *testing.F) {
	f.Add(uint64(1), "", int64(0), 0.0, uint16(0xffff))
	f.Add(uint64(0x139aef78), "a|b=c", int64(-1), math.NaN(), uint16(0x5555))
	f.Add(uint64(1<<63), "=", int64(1<<53), math.Inf(-1), uint16(0))
	f.Add(uint64(7), "|", int64(math.MinInt64), math.Copysign(0, -1), uint16(0x0f0f))
	f.Fuzz(func(t *testing.T, g uint64, str string, i int64, fl float64, mask uint16) {
		fix := newEncoderFixture(t)
		values := map[logmodel.Attr]logmodel.Value{"outside": logmodel.String(str)}
		for k, a := range fix.part.Schema().Attrs {
			if mask&(1<<k) == 0 {
				continue
			}
			switch k % 4 {
			case 0:
				values[a] = logmodel.String(str)
			case 1:
				values[a] = logmodel.Int(i)
			case 2:
				values[a] = logmodel.Float(fl)
			default:
				values[a] = encoderValues[(int(mask>>12)+k)%len(encoderValues)]
			}
		}
		e := newRecordEncoder(fix.part, fix.acc, nil)
		checkEncoderAgainstReference(t, e, e.scratch(), fix, logmodel.GLSN(g), []map[logmodel.Attr]logmodel.Value{values})
	})
}

// BenchmarkStoreRangeEncode encodes one 128-record store round for the
// four nodes of the paper partition into their store messages: the
// client's side of a store round, up to the sends. The records are
// generated transactions of the paper schema.
func BenchmarkStoreRangeEncode(b *testing.B) {
	boot := sharedBootstrap(b)
	records := workload.New(1).Transactions(boot.Partition.Schema(), 128, 16)
	e := newRecordEncoder(boot.Partition, boot.AccParams, nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		msgs, err := e.messages("TBENCH", 1, records)
		if err != nil {
			b.Fatal(err)
		}
		benchMsgs = msgs
	}
}

var benchMsgs []transport.Message
