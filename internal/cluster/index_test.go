package cluster

import (
	"fmt"
	"math"
	"math/big"
	"slices"
	"strings"
	"testing"

	"confaudit/internal/logmodel"
	"confaudit/internal/ticket"
	"confaudit/internal/transport"
)

// lookup is a test shorthand asserting an IndexLookup outcome.
func lookup(t *testing.T, n *Node, attr logmodel.Attr, v logmodel.Value, wantOK bool, want ...logmodel.GLSN) {
	t.Helper()
	got, ok := n.IndexLookup(attr, v)
	if ok != wantOK {
		t.Fatalf("IndexLookup(%s, %v) ok=%v, want %v", attr, v, ok, wantOK)
	}
	if !ok {
		return
	}
	if len(got) != len(want) {
		t.Fatalf("IndexLookup(%s, %v) = %v, want %v", attr, v, got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("IndexLookup(%s, %v) = %v, want %v", attr, v, got, want)
		}
	}
}

// TestIndexSemantics pins the index to logmodel.Compare's equality:
// int/float aliasing through float64, -0 vs 0, cross-class refusal, and
// NaN poisoning. It runs once with the string keys' real hash and once
// with every string key hashed alike, through collision chains.
func TestIndexSemantics(t *testing.T) {
	t.Run("hashed", func(t *testing.T) { checkIndexSemantics(t, ^uint64(0)) })
	t.Run("collide", func(t *testing.T) { checkIndexSemantics(t, 0) })
}

func checkIndexSemantics(t *testing.T, hashMask uint64) {
	tc := startCluster(t)
	for _, n := range tc.nodes {
		n.mu.Lock()
		n.frags.hashMask = hashMask
		n.mu.Unlock()
	}
	ctx := testCtx(t)
	c := tc.client(t, "idx-u", "TIX", ticket.OpWrite, ticket.OpRead)
	if err := c.RegisterTicket(ctx); err != nil {
		t.Fatal(err)
	}
	// C1 on P3 (ints), C2 on P1 (floats), id on P1 (strings).
	big := int64(1) << 53
	gs, err := c.LogBatch(ctx, []map[logmodel.Attr]logmodel.Value{
		{"C1": logmodel.Int(20), "C2": logmodel.Float(-0.0), "id": logmodel.String("A")},
		{"C1": logmodel.Int(big), "C2": logmodel.Float(1.5), "id": logmodel.String("B")},
		{"C1": logmodel.Int(big + 1), "C2": logmodel.Float(2.5), "id": logmodel.String("A")},
	})
	if err != nil {
		t.Fatal(err)
	}
	p1, p3 := tc.nodes["P1"], tc.nodes["P3"]

	// String equality.
	lookup(t, p1, "id", logmodel.String("A"), true, gs[0], gs[2])
	lookup(t, p1, "id", logmodel.String("Z"), true)

	// Int constant and equal float constant hit the same key.
	lookup(t, p3, "C1", logmodel.Int(20), true, gs[0])
	lookup(t, p3, "C1", logmodel.Float(20.0), true, gs[0])

	// Beyond 2^53 int64s alias through float64, exactly as Compare does:
	// both stored values share a key, so either constant finds both.
	lookup(t, p3, "C1", logmodel.Int(big), true, gs[1], gs[2])
	lookup(t, p3, "C1", logmodel.Int(big+1), true, gs[1], gs[2])

	// -0 and +0 are the same value under Compare.
	lookup(t, p1, "C2", logmodel.Float(0.0), true, gs[0])
	lookup(t, p1, "C2", logmodel.Int(0), true, gs[0])

	// Cross-class constants decline: the scan must surface the error.
	lookup(t, p1, "id", logmodel.Int(5), false)
	lookup(t, p3, "C1", logmodel.String("x"), false)

	// Unindexed attribute: a scan would cleanly match nothing.
	lookup(t, p3, "ip", logmodel.String("10.0.0.1"), true)

	// A NaN constant never answers from the index.
	lookup(t, p1, "C2", logmodel.Float(math.NaN()), false)

	// A stored NaN poisons its attribute until it is overwritten:
	// Compare calls NaN equal to every numeric, which no key models.
	if !p1.TamperFragment(gs[1], "C2", logmodel.Float(math.NaN())) {
		t.Fatal("tamper failed")
	}
	lookup(t, p1, "C2", logmodel.Float(2.5), false)
	if !p1.TamperFragment(gs[1], "C2", logmodel.Float(1.5)) {
		t.Fatal("tamper failed")
	}
	lookup(t, p1, "C2", logmodel.Float(2.5), true, gs[2])
	lookup(t, p1, "C2", logmodel.Float(1.5), true, gs[1])

	// The disable hook forces the scan path.
	p1.SetIndexDisabled(true)
	lookup(t, p1, "id", logmodel.String("A"), false)
	p1.SetIndexDisabled(false)
	lookup(t, p1, "id", logmodel.String("A"), true, gs[0], gs[2])

	// Deletes unindex.
	del := tc.client(t, "idx-d", "TIXD", ticket.OpWrite, ticket.OpRead, ticket.OpDelete)
	if err := del.RegisterTicket(ctx); err != nil {
		t.Fatal(err)
	}
	gd, err := del.Log(ctx, map[logmodel.Attr]logmodel.Value{"id": logmodel.String("gone")})
	if err != nil {
		t.Fatal(err)
	}
	lookup(t, p1, "id", logmodel.String("gone"), true, gd)
	if err := del.Delete(ctx, gd); err != nil {
		t.Fatal(err)
	}
	lookup(t, p1, "id", logmodel.String("gone"), true)
}

// TestIndexStringArenaCompacts fills one attribute's index with unique
// string keys, removes most of them, and requires the index's string
// arena to shrink to about its live keys while every key still looks up
// its glsn, with the real hash and through collision chains.
func TestIndexStringArenaCompacts(t *testing.T) {
	for _, mask := range []uint64{^uint64(0), 0} {
		s := newFragstore([]logmodel.Attr{"s"})
		s.hashMask = mask
		const n = 2000
		val := func(g logmodel.GLSN) logmodel.Value {
			return logmodel.String(fmt.Sprintf("value-%06d-%s", g, strings.Repeat("x", int(g%7))))
		}
		for g := logmodel.GLSN(1); g <= n; g++ {
			item := appendBatchItem(nil, &batchItem{
				Fragment:  logmodel.Fragment{GLSN: g, Node: "P1", Values: map[logmodel.Attr]logmodel.Value{"s": val(g)}},
				DigestExp: big.NewInt(2),
			})
			v, _, err := viewItem(item, nil)
			if err != nil {
				t.Fatal(err)
			}
			v.keys[0].slot = 0
			s.install(&v, "P1")
		}
		full := len(s.idx[0].sbytes)
		for g := logmodel.GLSN(1); g <= n; g++ {
			if g%10 != 0 {
				s.remove(g)
			}
		}
		if got := len(s.idx[0].sbytes); got > full/4 {
			t.Fatalf("mask %x: string arena holds %d bytes after removing 90%% of %d", mask, got, full)
		}
		for g := logmodel.GLSN(1); g <= n; g++ {
			got, ok := s.lookup("s", val(g))
			if want := g%10 == 0; !ok || want != slices.Equal(got, []logmodel.GLSN{g}) || !want && len(got) != 0 {
				t.Fatalf("mask %x: lookup of %s's value = %v %v", mask, g, got, ok)
			}
		}
	}
}

// TestIndexInstallAllocs bounds the allocations of decoding and
// installing a 128-item store batch whose every value is new to the
// node: the index takes each one without a heap object of its own, so
// the count stays a small constant per batch rather than growing with
// the values.
func TestIndexInstallAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	const items = 128
	boot := sharedBootstrap(t)
	node, ticketID, first := benchNode(t, items)
	attrs := boot.Partition.NodeAttrs("P1")
	body := storeBatchBody{TicketID: ticketID}
	for i := 0; i < items; i++ {
		g := first + logmodel.GLSN(i)
		values := make(map[logmodel.Attr]logmodel.Value)
		for k, a := range attrs {
			if k%2 == 0 {
				values[a] = logmodel.String(fmt.Sprintf("%s-%d", a, g))
			} else {
				values[a] = logmodel.Int(int64(g)*7 + int64(k))
			}
		}
		_, byNode := referenceItems(boot.Partition, boot.AccParams, nil, g, values)
		body.Items = append(body.Items, byNode["P1"])
	}
	msg, err := transport.NewMessage("P1", MsgLogStoreBatch, "", &body)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		var got storeBatchBody
		if err := transport.Unmarshal(msg.Payload, &got); err != nil {
			t.Fatal(err)
		}
		if err := node.storeFragmentBatch(&got); err != nil {
			t.Fatal(err)
		}
		node.mu.Lock()
		for g := first; g < first+items; g++ {
			node.frags.remove(g)
		}
		node.mu.Unlock()
	})
	if allocs > 24 {
		t.Fatalf("decoding and installing %d items of unique values took %.0f allocations, want at most 24", items, allocs)
	}
}

// TestReleasedBatchScratchKeepsHeldRecords stores batches the way
// handleStoreBatch does, each decoded into the scratch the previous one
// released, and requires every record stored earlier to read back and
// look up by its values unchanged: nothing the node holds may point
// into a released batch's frame or keys.
func TestReleasedBatchScratchKeepsHeldRecords(t *testing.T) {
	const batches, items = 4, 32
	boot := sharedBootstrap(t)
	node, ticketID, first := benchNode(t, batches*items)
	attrs := boot.Partition.NodeAttrs("P1")
	valuesOf := func(g logmodel.GLSN) map[logmodel.Attr]logmodel.Value {
		values := make(map[logmodel.Attr]logmodel.Value)
		for k, a := range attrs {
			values[a] = logmodel.String(fmt.Sprintf("%s-%d-%d", a, g, k))
		}
		return values
	}
	for b := 0; b < batches; b++ {
		body := storeBatchBody{TicketID: ticketID}
		for i := 0; i < items; i++ {
			g := first + logmodel.GLSN(b*items+i)
			_, byNode := referenceItems(boot.Partition, boot.AccParams, nil, g, valuesOf(g))
			body.Items = append(body.Items, byNode["P1"])
		}
		msg, err := transport.NewMessage("P1", MsgLogStoreBatch, "", &body)
		if err != nil {
			t.Fatal(err)
		}
		var got storeBatchBody
		if err := transport.Unmarshal(msg.Payload, &got); err != nil {
			t.Fatal(err)
		}
		if err := node.storeFragmentBatch(&got); err != nil {
			t.Fatal(err)
		}
		got.release()
	}
	for g := first; g < first+batches*items; g++ {
		frag, ok := node.Fragment(g)
		if !ok || !sameValues(frag.Values, valuesOf(g)) {
			t.Fatalf("%s reads back as %v %v, stored as %v", g, frag.Values, ok, valuesOf(g))
		}
		for a, v := range valuesOf(g) {
			lookup(t, node, a, v, true, g)
		}
	}
}
