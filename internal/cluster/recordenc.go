package cluster

import (
	"crypto/ed25519"
	"sort"
	"sync"

	"confaudit/internal/crypto/accumulator"
	"confaudit/internal/logmodel"
	"confaudit/internal/transport"
)

// recordEncoder is the writer's one pass over each record of a store
// round (paper §2, §4.1). From a record's values it renders every
// node's fragment text, the accumulator hash input that the nodes'
// integrity checks recompute with Fragment.Canonical; derives from
// those texts the record's digest exponent; and appends each node's
// store item, in the item encoding, to that node's batch. It builds no
// fragment maps, canonical strings or exponent slices per record: the
// texts, the big integers and the batches live in one round's
// encodeScratch, which a pool recycles.
//
// The layout is the partition's, fixed when the client opens: the node
// order, and each node's attributes sorted, which is the order both
// the canonical text and the item encoding list them in. Attributes
// outside the schema are never looked up, so they are dropped exactly
// as Partition.Split drops them.
type recordEncoder struct {
	acc *accumulator.Params
	// signer, when set, signs every record's digest so the record is
	// non-repudiable (paper §2: "non-repudiation of transactions").
	signer ed25519.PrivateKey
	nodes  []string
	attrs  [][]logmodel.Attr // attrs[i]: nodes[i]'s attributes, sorted
	pool   sync.Pool         // *encodeScratch
}

// encodeScratch is one store round's working memory.
type encodeScratch struct {
	fields []logmodel.Field // one node's values of the current record
	canon  []byte           // the current record's texts, node after node
	cuts   []int            // cuts[i]: the end of node i's text in canon
	texts  [][]byte         // the texts, as slices of canon
	dexp   accumulator.DigestScratch
	bufs   [][]byte      // bufs[i]: node i's item encodings, back to back
	offs   [][]int       // offs[i]: where each of node i's items starts, then its end
	items  [][]batchItem // items[i]: node i's items, slices of bufs[i]
}

func newRecordEncoder(part *logmodel.Partition, acc *accumulator.Params, signer ed25519.PrivateKey) *recordEncoder {
	e := &recordEncoder{acc: acc, signer: signer, nodes: part.Nodes()}
	e.attrs = make([][]logmodel.Attr, len(e.nodes))
	for i, node := range e.nodes {
		attrs := part.NodeAttrs(node)
		sort.Slice(attrs, func(a, b int) bool { return attrs[a] < attrs[b] })
		e.attrs[i] = attrs
	}
	return e
}

// messages encodes records, stored under glsns [first,
// first+len(records)), into one MsgLogStoreBatch per node, in the
// partition's node order. Each message carries its own payload, so the
// scratch goes back to the pool before messages returns.
func (e *recordEncoder) messages(ticketID string, first logmodel.GLSN, records []map[logmodel.Attr]logmodel.Value) ([]transport.Message, error) {
	s := e.scratch()
	defer e.pool.Put(s)
	e.encode(s, first, records)
	msgs := make([]transport.Message, len(e.nodes))
	for i, node := range e.nodes {
		var err error
		msgs[i], err = transport.NewMessage(node, MsgLogStoreBatch, "", &storeBatchBody{TicketID: ticketID, Items: s.items[i]})
		if err != nil {
			return nil, err
		}
	}
	return msgs, nil
}

// scratch takes a pooled scratch, or makes one.
func (e *recordEncoder) scratch() *encodeScratch {
	if s, ok := e.pool.Get().(*encodeScratch); ok {
		return s
	}
	n := len(e.nodes)
	return &encodeScratch{
		cuts:  make([]int, n),
		texts: make([][]byte, n),
		bufs:  make([][]byte, n),
		offs:  make([][]int, n),
		items: make([][]batchItem, n),
	}
}

// encode fills s.items with each node's store items for records, stored
// under glsns [first, first+len(records)). The items are slices of s.
func (e *recordEncoder) encode(s *encodeScratch, first logmodel.GLSN, records []map[logmodel.Attr]logmodel.Value) {
	for i := range e.nodes {
		s.bufs[i] = s.bufs[i][:0]
		s.offs[i] = s.offs[i][:0]
	}
	for k, values := range records {
		e.appendRecord(s, first+logmodel.GLSN(k), values)
	}
	for i, buf := range s.bufs {
		offs := append(s.offs[i], len(buf))
		items := s.items[i][:0]
		for k := 1; k < len(offs); k++ {
			items = append(items, batchItem{view: itemView{run: buf[offs[k-1]:offs[k]:offs[k]]}})
		}
		s.offs[i], s.items[i] = offs, items
	}
}

// appendRecord appends one record's item to every node's batch: each
// node's fragment text into s.canon and its fragment encoding into its
// buffer, then, once the texts give the digest exponent, the item's
// tail.
func (e *recordEncoder) appendRecord(s *encodeScratch, g logmodel.GLSN, values map[logmodel.Attr]logmodel.Value) {
	s.canon = s.canon[:0]
	for i, attrs := range e.attrs {
		s.fields = s.fields[:0]
		for _, a := range attrs {
			if v, ok := values[a]; ok {
				s.fields = append(s.fields, logmodel.Field{Attr: a, Value: v})
			}
		}
		s.canon = logmodel.AppendCanonical(s.canon, g, s.fields)
		s.cuts[i] = len(s.canon)
		s.offs[i] = append(s.offs[i], len(s.bufs[i]))
		s.bufs[i] = appendItemFragment(s.bufs[i], g, e.nodes[i], s.fields, true)
	}
	start := 0
	for i, end := range s.cuts {
		s.texts[i] = s.canon[start:end]
		start = end
	}
	dexp := s.dexp.Exponent(s.texts)
	var prov []byte
	if e.signer != nil {
		prov = ed25519.Sign(e.signer, ProvenanceStatement(g, e.acc.PowX0(dexp)))
	}
	for i := range e.nodes {
		s.bufs[i] = appendItemTail(s.bufs[i], dexp, prov)
	}
}
