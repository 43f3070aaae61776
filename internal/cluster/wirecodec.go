package cluster

import (
	"bytes"
	"crypto/ed25519"
	"encoding/binary"
	"fmt"
	"math"
	"math/big"
	"slices"
	"sort"
	"sync"

	"confaudit/internal/logmodel"
	"confaudit/internal/wire"
)

// Binary payload encodings for the write-path protocol bodies.
//
// Every write crosses the same bodies: the glsn range request and
// response (MsgGLSNRange), the agreement round bodies behind it, the
// one store message (storeBatchBody, MsgLogStoreBatch) and its ack.
// Each implements transport.BinaryBody as a sequence of internal/wire
// primitives, so accumulator big-integers travel as raw bytes rather
// than decimal text. A journal "frag" entry (appendWALEntry) carries
// its store item in the item encoding itself, so a store item has one
// encoding on the wire and on disk. The bodies keep their JSON tags
// only as the reference encoding the differential fuzz tests compare
// against.
//
// Layout of the cluster's own shapes, over the wire primitives:
//
//   - signatures (votes, tickets, provenance): an optional byte run
//     that is either absent or exactly one Ed25519 signature (64
//     bytes); any other length is refused at decode.
//   - attribute values: kind ‖ len(S) ‖ S ‖ zigzag(I) ‖ bits(F).
//   - fragments: glsn ‖ len(node) ‖ node ‖ optional count ‖
//     { len(attr) ‖ attr ‖ value }* with attributes sorted, so encoding
//     is deterministic across runs.
//   - store batches: each item is length-prefixed (wire.AppendPrefixed),
//     so the receiving node can slice out each item's run, check it in
//     place (viewItem) and keep it, undecoded, as the record it holds.
//
// Only sizes and counts are visible in the framing — the secondary
// information Definition 1 permits; attribute values and ciphertext
// appear exactly as opaque runs.
//
// Decoding is canonical: on top of the wire decoder's own refusals,
// fragment attributes out of order or repeated are refused, so every
// accepted encoding is the one the encoder writes. That is what lets a
// node keep an item's bytes in place of its decoded fields. Every
// refusal wraps wire.ErrMalformed.

// zigzag maps signed to unsigned so small negatives stay small.
func zigzag(v int64) uint64 { return uint64(v<<1) ^ uint64(v>>63) }

func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

func appendValue(dst []byte, v logmodel.Value) []byte {
	dst = binary.AppendUvarint(dst, uint64(v.Kind))
	dst = wire.AppendRun(dst, v.S)
	dst = binary.AppendUvarint(dst, zigzag(v.I))
	return binary.AppendUvarint(dst, math.Float64bits(v.F))
}

// appendItemFragment appends a store item's fragment: the fields must
// be sorted by attribute, and present is false only for a fragment
// whose values are nil. The writer's encoder (recordEncoder) and
// appendBatchItem both call it, so an item has one fragment encoding.
func appendItemFragment(dst []byte, g logmodel.GLSN, node string, fields []logmodel.Field, present bool) []byte {
	dst = binary.AppendUvarint(dst, uint64(g))
	dst = wire.AppendRun(dst, node)
	dst = wire.AppendOptCount(dst, len(fields), present)
	for _, f := range fields {
		dst = wire.AppendRun(dst, string(f.Attr))
		dst = appendValue(dst, f.Value)
	}
	return dst
}

// appendItemTail appends what follows a store item's fragment: the
// record's digest exponent and the optional provenance signature.
func appendItemTail(dst []byte, dexp *big.Int, prov []byte) []byte {
	dst = wire.AppendBig(dst, dexp)
	return wire.AppendOptBytes(dst, prov)
}

// sigRun decodes an optional Ed25519 signature as a slice of the
// source, refusing any present run that is not exactly one signature
// long.
func sigRun(d *wire.Dec) ([]byte, error) {
	sig, err := d.OptRun()
	if err == nil && sig != nil && len(sig) != ed25519.SignatureSize {
		return nil, fmt.Errorf("%w: signature of %d bytes, want %d", wire.ErrMalformed, len(sig), ed25519.SignatureSize)
	}
	return sig, err
}

// decodeSig decodes an optional Ed25519 signature into a fresh slice.
func decodeSig(d *wire.Dec) ([]byte, error) {
	sig, err := sigRun(d)
	if sig == nil || err != nil {
		return nil, err
	}
	return bytes.Clone(sig), nil
}

// rawValue is an attribute value read in place: s, its string field,
// is a slice of the encoding it was read from.
type rawValue struct {
	kind logmodel.Kind
	s    []byte
	i    int64
	f    float64
}

func (r rawValue) value() logmodel.Value {
	return logmodel.Value{Kind: r.kind, S: string(r.s), I: r.i, F: r.f}
}

// walkValues reads a fragment's optional value count and its attribute
// and value pairs at the cursor, refusing attributes out of order or
// repeated, and hands each pair to fn in place (fn may be nil).
func walkValues(d *wire.Dec, fn func(attr []byte, v rawValue)) error {
	count, present, err := d.OptCount()
	if err != nil || !present {
		return err
	}
	var prev []byte
	for n := 0; n < count; n++ {
		a, err := d.Run()
		if err != nil {
			return err
		}
		if n > 0 && bytes.Compare(a, prev) <= 0 {
			return fmt.Errorf("%w: fragment attributes out of order", wire.ErrMalformed)
		}
		prev = a
		var v rawValue
		k, err := d.Small()
		if err != nil {
			return err
		}
		v.kind = logmodel.Kind(k)
		if v.s, err = d.Run(); err != nil {
			return err
		}
		i, err := d.Num()
		if err != nil {
			return err
		}
		v.i = unzigzag(i)
		f, err := d.Num()
		if err != nil {
			return err
		}
		v.f = math.Float64frombits(f)
		if fn != nil {
			fn(a, v)
		}
	}
	return nil
}

// --- batchItem / storeBatchBody ---

// appendBatchItem appends a store item's encoding: the run it was
// decoded from when it has one, else the encoding of its fields.
func appendBatchItem(dst []byte, it *batchItem) []byte {
	if it.view.run != nil {
		return append(dst, it.view.run...)
	}
	f := &it.Fragment
	dst = appendItemFragment(dst, f.GLSN, f.Node, logmodel.SortedFields(f.Values), f.Values != nil)
	return appendItemTail(dst, it.DigestExp, it.Provenance)
}

// itemView is one store item read in place from its run: the glsn
// decoded, every other field a slice of the run. viewItem is the one
// item decoder: it refuses every non-canonical encoding and walks the
// item's values once, keying each for the attribute index as it goes,
// so a node checks, indexes and holds an item as the bytes it arrived
// in, and decodes a field only when a reader asks for it.
type itemView struct {
	run  []byte
	glsn logmodel.GLSN
	node []byte
	// tail is the rest of the run after the node ID: the fragment's
	// value count and pairs, then the digest exponent and the
	// provenance signature.
	tail []byte
	dexp []byte // the digest exponent's wire encoding (bigOf)
	prov []byte // the provenance signature; nil when absent
	// keys holds one index key per value, in attribute order. Their
	// slots are unresolved until the A_node check (Node.admitItem).
	keys []valueKey
}

// viewed reports whether viewItem made v: it sets tail for every item
// it accepts, since a value count follows the node ID.
func (v *itemView) viewed() bool { return v.tail != nil }

// viewItem checks one item run end to end and locates its fields. It
// appends the item's index keys to keys, returning the longer slice;
// the view's keys are the appended ones, capped so that a later append
// cannot reach them. A batch decoder passes one scratch slice through
// all its items.
func viewItem(run []byte, keys []valueKey) (itemView, []valueKey, error) {
	first := len(keys)
	v, err := walkItem(run, func(a []byte, val rawValue) { keys = append(keys, indexKey(a, val)) })
	v.keys = keys[first:len(keys):len(keys)]
	return v, keys, err
}

// walkItem is viewItem's walk: it checks the run, locates its fields
// and hands fn, which may be nil, each attribute and value in place.
func walkItem(run []byte, fn func(attr []byte, val rawValue)) (itemView, error) {
	v := itemView{run: run}
	d := wire.NewDec(run)
	g, err := d.Num()
	if err != nil {
		return v, err
	}
	v.glsn = logmodel.GLSN(g)
	if v.node, err = d.Run(); err != nil {
		return v, err
	}
	v.tail = d.Rest()
	if err := walkValues(&d, fn); err != nil {
		return v, err
	}
	if v.dexp, err = d.BigRun(); err != nil {
		return v, err
	}
	if v.prov, err = sigRun(&d); err != nil {
		return v, err
	}
	return v, d.Done()
}

// eachValue hands fn each attribute and value of a checked item run's
// fragment, in attribute order, reading the run no further than its
// values.
func eachValue(run []byte, fn func(attr []byte, val rawValue)) {
	// viewItem checked the run, so none of these reads fails.
	d := wire.NewDec(run)
	_, _ = d.Num() // glsn
	_, _ = d.Run() // node
	_ = walkValues(&d, fn)
}

// fragmentOf decodes the fragment of an item run that viewItem
// checked, walking its values once and reading the run no further.
func fragmentOf(run []byte) logmodel.Fragment {
	// viewItem checked the run, so none of these reads fails.
	d := wire.NewDec(run)
	g, _ := d.Num()
	node, _ := d.Run()
	f := logmodel.Fragment{GLSN: logmodel.GLSN(g), Node: string(node)}
	peek := d // walkValues reads the value count again
	if count, present, _ := peek.OptCount(); present {
		f.Values = make(map[logmodel.Attr]logmodel.Value, count)
		_ = walkValues(&d, func(a []byte, val rawValue) { f.Values[logmodel.Attr(a)] = val.value() })
	}
	return f
}

// hasDigestExp reports whether the item carries its digest exponent:
// an absent one encodes as the lone tag 0.
func (v *itemView) hasDigestExp() bool { return v.dexp[0] != 0 }

// stamped returns the item's run re-encoded with node as the
// fragment's node ID.
func (v *itemView) stamped(node string) []byte {
	dst := make([]byte, 0, len(v.run)-len(v.node)+len(node)+binary.MaxVarintLen64)
	dst = binary.AppendUvarint(dst, uint64(v.glsn))
	dst = wire.AppendRun(dst, node)
	return append(dst, v.tail...)
}

// bigOf decodes an exponent encoding that viewItem located.
func bigOf(enc []byte) *big.Int {
	d := wire.NewDec(enc)
	x, _ := d.Big() // viewItem checked the encoding
	return x
}

func (b *storeBatchBody) AppendBinary(dst []byte) []byte {
	dst = wire.AppendRun(dst, b.TicketID)
	dst = wire.AppendOptCount(dst, len(b.Items), b.Items != nil)
	for i := range b.Items {
		dst = wire.AppendPrefixed(dst, func(dst []byte) []byte {
			return appendBatchItem(dst, &b.Items[i])
		})
	}
	return dst
}

// minItemBytes is the fewest bytes a store item takes in a batch: its
// length prefix, then a one-byte glsn, node ID length, value count,
// digest exponent tag and provenance flag.
const minItemBytes = 6

// batchScratch is what decoding a store batch allocates: the copy of
// the frame its item runs slice, the items, and their index keys. A
// node hands it back once the batch is handled (storeBatchBody.release)
// and the next batch decodes into it. Nothing the node keeps points
// into it: install copies each run and each string key out, and the
// journal encodes its own copy.
type batchScratch struct {
	frame []byte
	items []batchItem
	keys  []valueKey
}

var batchScratchPool = sync.Pool{New: func() any { return new(batchScratch) }}

// DecodeBinary checks every item run with viewItem and keeps the view
// on its item, so the node's install (storeFragmentBatch) reads each
// item's values once: the views' index keys share one scratch slice.
// Each run is a slice of one copy of the recycled frame, in scratch
// the body holds until release.
func (b *storeBatchBody) DecodeBinary(src []byte) error {
	sc := batchScratchPool.Get().(*batchScratch)
	sc.frame = append(sc.frame[:0], src...)
	if err := b.decodeItems(sc); err != nil {
		batchScratchPool.Put(sc)
		return err
	}
	b.scratch = sc
	return nil
}

func (b *storeBatchBody) decodeItems(sc *batchScratch) error {
	d := wire.NewDec(sc.frame)
	var err error
	if b.TicketID, err = d.Str(); err != nil {
		return err
	}
	count, present, err := d.OptCount()
	if err != nil {
		return err
	}
	b.Items = nil
	if !present {
		return d.Done()
	}
	// Each item takes at least minItemBytes of the body, so a count the
	// body cannot hold is refused before items are allocated for it.
	if count > len(d.Rest())/minItemBytes {
		return fmt.Errorf("%w: %d store items claimed in %d bytes", wire.ErrMalformed, count, len(d.Rest()))
	}
	items := slices.Grow(sc.items[:0], count)[:count]
	clear(items)
	keys := sc.keys[:0]
	for i := range items {
		run, err := d.Run()
		if err != nil {
			return err
		}
		if items[i].view, keys, err = viewItem(run[:len(run):len(run)], keys); err != nil {
			return err
		}
	}
	sc.items, sc.keys = items, keys
	if err := d.Done(); err != nil {
		return err
	}
	b.Items = items
	return nil
}

// release hands back the scratch a decoded body's items live in, for a
// later batch to decode into. Nothing may read the body's items after;
// a body nobody releases leaves its scratch to the collector.
func (b *storeBatchBody) release() {
	if b.scratch != nil {
		batchScratchPool.Put(b.scratch)
		b.Items, b.scratch = nil, nil
	}
}

// --- ackBody ---

func (b *ackBody) AppendBinary(dst []byte) []byte {
	var flags byte
	if b.OK {
		flags |= 1
	}
	if b.Overloaded {
		flags |= 2
	}
	dst = append(dst, flags)
	return wire.AppendRun(dst, b.Error)
}

func (b *ackBody) DecodeBinary(src []byte) error {
	d := wire.NewDec(src)
	flags, err := d.Take(1)
	if err != nil {
		return err
	}
	if flags[0]&^3 != 0 {
		return fmt.Errorf("%w: ack flags %#x", wire.ErrMalformed, flags[0])
	}
	b.OK = flags[0]&1 != 0
	b.Overloaded = flags[0]&2 != 0
	if b.Error, err = d.Str(); err != nil {
		return err
	}
	return d.Done()
}

// --- glsn round bodies ---

func (b *glsnRangeReqBody) AppendBinary(dst []byte) []byte {
	dst = wire.AppendRun(dst, b.TicketID)
	return binary.AppendUvarint(dst, uint64(b.Count))
}

func (b *glsnRangeReqBody) DecodeBinary(src []byte) error {
	d := wire.NewDec(src)
	var err error
	if b.TicketID, err = d.Str(); err != nil {
		return err
	}
	if b.Count, err = d.Small(); err != nil {
		return err
	}
	return d.Done()
}

func (b *glsnRangeRespBody) AppendBinary(dst []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(b.First))
	dst = binary.AppendUvarint(dst, uint64(b.Count))
	return wire.AppendRun(dst, b.Error)
}

func (b *glsnRangeRespBody) DecodeBinary(src []byte) error {
	d := wire.NewDec(src)
	first, err := d.Num()
	if err != nil {
		return err
	}
	b.First = logmodel.GLSN(first)
	if b.Count, err = d.Small(); err != nil {
		return err
	}
	if b.Error, err = d.Str(); err != nil {
		return err
	}
	return d.Done()
}

// --- agreement (quorum) round bodies ---

func (b *agreeReqBody) AppendBinary(dst []byte) []byte {
	return wire.AppendOptBytes(dst, b.Statement)
}

func (b *agreeReqBody) DecodeBinary(src []byte) error {
	d := wire.NewDec(src)
	var err error
	if b.Statement, err = d.OptBytes(); err != nil {
		return err
	}
	return d.Done()
}

func (b *agreeVoteBody) AppendBinary(dst []byte) []byte {
	dst = wire.AppendOptBytes(dst, b.Sig)
	return wire.AppendRun(dst, b.Refused)
}

func (b *agreeVoteBody) DecodeBinary(src []byte) error {
	d := wire.NewDec(src)
	var err error
	if b.Sig, err = decodeSig(&d); err != nil {
		return err
	}
	if b.Refused, err = d.Str(); err != nil {
		return err
	}
	return d.Done()
}

func appendCertificate(dst []byte, c *Certificate) []byte {
	dst = wire.AppendOptBytes(dst, c.Statement)
	dst = wire.AppendOptCount(dst, len(c.Votes), c.Votes != nil)
	nodes := make([]string, 0, len(c.Votes))
	for node := range c.Votes {
		nodes = append(nodes, node)
	}
	sort.Strings(nodes)
	for _, node := range nodes {
		dst = wire.AppendRun(dst, node)
		dst = wire.AppendOptBytes(dst, c.Votes[node])
	}
	return dst
}

func decodeCertificate(d *wire.Dec, c *Certificate) error {
	var err error
	if c.Statement, err = d.OptBytes(); err != nil {
		return err
	}
	count, present, err := d.OptCount()
	c.Votes = nil
	if err != nil || !present {
		return err
	}
	c.Votes = make(map[string][]byte, count)
	for i := 0; i < count; i++ {
		node, err := d.Str()
		if err != nil {
			return err
		}
		sig, err := decodeSig(d)
		if err != nil {
			return err
		}
		c.Votes[node] = sig
	}
	return nil
}

func (b *agreeCommitBody) AppendBinary(dst []byte) []byte {
	return appendCertificate(dst, &b.Cert)
}

func (b *agreeCommitBody) DecodeBinary(src []byte) error {
	d := wire.NewDec(src)
	if err := decodeCertificate(&d, &b.Cert); err != nil {
		return err
	}
	return d.Done()
}

// --- walEntry (journal record payload, see storejournal.go) ---

// walKindCode maps the journal kinds onto one byte. The string forms
// stay canonical (JSON entries and applyWALEntry use them); the binary
// record carries the code.
var walKindCode = map[string]byte{"ticket": 1, "grant": 2, "frag": 3, "delete": 4}

var walKindName = [5]string{"", "ticket", "grant", "frag", "delete"}

func appendWireTicket(dst []byte, t *wireTicket) []byte {
	dst = wire.AppendRun(dst, t.ID)
	dst = wire.AppendRun(dst, t.Holder)
	dst = wire.AppendOptCount(dst, len(t.Ops), t.Ops != nil)
	for _, o := range t.Ops {
		dst = binary.AppendUvarint(dst, uint64(o))
	}
	return wire.AppendOptBytes(dst, t.Sig)
}

func decodeWireTicket(d *wire.Dec) (*wireTicket, error) {
	var t wireTicket
	var err error
	if t.ID, err = d.Str(); err != nil {
		return nil, err
	}
	if t.Holder, err = d.Str(); err != nil {
		return nil, err
	}
	count, present, err := d.OptCount()
	if err != nil {
		return nil, err
	}
	if present {
		t.Ops = make([]int, count)
		for i := range t.Ops {
			if t.Ops[i], err = d.Small(); err != nil {
				return nil, err
			}
		}
	}
	if t.Sig, err = decodeSig(d); err != nil {
		return nil, err
	}
	return &t, nil
}

// appendWALEntry appends the binary payload of one journal entry, in
// the wire bodies' field encodings; a "frag" entry's store item is the
// wire item encoding itself.
func appendWALEntry(dst []byte, e *walEntry) ([]byte, error) {
	code, ok := walKindCode[e.Kind]
	if !ok {
		return nil, fmt.Errorf("cluster: encoding WAL entry: unknown kind %q", e.Kind)
	}
	dst = append(dst, code)
	if e.Ticket == nil {
		dst = append(dst, 0)
	} else {
		dst = append(dst, 1)
		dst = appendWireTicket(dst, e.Ticket)
	}
	dst = wire.AppendRun(dst, e.TicketID)
	dst = binary.AppendUvarint(dst, uint64(e.GLSN))
	dst = binary.AppendUvarint(dst, uint64(e.Count))
	if e.Item == nil {
		return append(dst, 0), nil
	}
	dst = append(dst, 1)
	return appendBatchItem(dst, e.Item), nil
}

// decodeWALEntry decodes one binary journal payload. A "frag" entry's
// item is *item, overwritten: it keeps its run as a slice of src, and
// its index keys are appended to keys (viewItem); the longer slice is
// returned.
func decodeWALEntry(src []byte, keys []valueKey, item *batchItem) (walEntry, []valueKey, error) {
	var e walEntry
	d := wire.NewDec(src)
	code, err := d.Take(1)
	if err != nil {
		return e, keys, err
	}
	if code[0] == 0 || int(code[0]) >= len(walKindName) {
		return e, keys, fmt.Errorf("%w: WAL kind code %d", wire.ErrMalformed, code[0])
	}
	e.Kind = walKindName[code[0]]
	flag, err := d.Take(1)
	if err != nil {
		return e, keys, err
	}
	if flag[0] == 1 {
		if e.Ticket, err = decodeWireTicket(&d); err != nil {
			return e, keys, err
		}
	} else if flag[0] != 0 {
		return e, keys, fmt.Errorf("%w: ticket flag %d", wire.ErrMalformed, flag[0])
	}
	if e.TicketID, err = d.Str(); err != nil {
		return e, keys, err
	}
	g, err := d.Num()
	if err != nil {
		return e, keys, err
	}
	e.GLSN = logmodel.GLSN(g)
	if e.Count, err = d.Small(); err != nil {
		return e, keys, err
	}
	if flag, err = d.Take(1); err != nil {
		return e, keys, err
	}
	switch flag[0] {
	case 0:
		return e, keys, d.Done()
	case 1:
		// The item runs to the end of the entry, and the entry keeps it
		// as a slice of src.
		var v itemView
		if v, keys, err = viewItem(d.Rest(), keys); err != nil {
			return e, keys, err
		}
		*item = batchItem{view: v}
		e.Item = item
		return e, keys, nil
	default:
		return e, keys, fmt.Errorf("%w: item flag %d", wire.ErrMalformed, flag[0])
	}
}
