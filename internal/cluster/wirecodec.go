package cluster

import (
	"crypto/ed25519"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/big"
	"math/bits"
	"sort"

	"confaudit/internal/logmodel"
	"confaudit/internal/workpool"
)

// Binary payload encodings for the write-path protocol bodies.
//
// Every write crosses the same bodies: the glsn range request and
// response (MsgGLSNRange), the agreement round bodies behind it, the
// one store message (storeBatchBody, MsgLogStoreBatch) and its ack.
// Each implements transport.BinaryBody with a compact uvarint encoding,
// so accumulator big-integers travel as raw bytes rather than decimal
// text and the bodies ride the zero-copy pooled-frame path on every
// transport. A journal "frag" entry (appendWALEntry) carries its store
// item in the item encoding itself, so a store item has one encoding on
// the wire and on disk. The bodies keep their JSON tags only as the
// reference encoding the differential fuzz tests compare against.
//
// Layout conventions (all integers uvarint unless noted):
//
//   - strings and byte runs: len ‖ bytes. Optional byte runs (where
//     JSON distinguishes null from empty) use flag 0 for nil, else
//     len+1 ‖ bytes.
//   - big integers: tag 0 for nil, 1 for zero/positive, 2 for
//     negative; then len ‖ absolute-value bytes.
//   - signatures (votes, tickets, provenance): an optional byte run
//     that is either absent or exactly one Ed25519 signature (64
//     bytes); any other length is refused at decode.
//   - attribute values: kind ‖ len(S) ‖ S ‖ zigzag(I) ‖ bits(F).
//   - fragments: glsn ‖ len(node) ‖ node ‖ values flag (0 nil, else
//     count+1) ‖ { len(attr) ‖ attr ‖ value }* with attributes sorted,
//     so encoding is deterministic across runs.
//   - store batches: each item is length-prefixed, so the node-side
//     decoder can slice the item run serially and decode the items
//     themselves in parallel over the shared worker pool.
//
// Only sizes and counts are visible in the framing — the secondary
// information Definition 1 permits; attribute values and ciphertext
// appear exactly as opaque runs.
//
// Decoding is canonical: an overlong varint, a big integer with a
// leading zero byte or a negative zero, and fragment attributes out of
// order or repeated are refused, so every accepted encoding is the one
// the encoder writes.

// errBadWire reports a hostile or truncated binary cluster body.
var errBadWire = errors.New("cluster: bad wire encoding")

// uvarintLen is the encoded size of v.
func uvarintLen(v uint64) int {
	return (bits.Len64(v|1) + 6) / 7
}

// zigzag maps signed to unsigned so small negatives stay small.
func zigzag(v int64) uint64 { return uint64(v<<1) ^ uint64(v>>63) }

func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// --- size helpers ---

func sizeString(s string) int { return uvarintLen(uint64(len(s))) + len(s) }

// sizeOptBytes sizes a nil-distinguishing byte run.
func sizeOptBytes(b []byte) int {
	if b == nil {
		return 1
	}
	return uvarintLen(uint64(len(b))+1) + len(b)
}

func sizeBig(v *big.Int) int {
	if v == nil {
		return 1
	}
	n := (v.BitLen() + 7) / 8
	return 1 + uvarintLen(uint64(n)) + n
}

func sizeValue(v logmodel.Value) int {
	return uvarintLen(uint64(v.Kind)) + sizeString(v.S) +
		uvarintLen(zigzag(v.I)) + uvarintLen(math.Float64bits(v.F))
}

func sizeFragment(f *logmodel.Fragment) int {
	n := uvarintLen(uint64(f.GLSN)) + sizeString(f.Node)
	if f.Values == nil {
		return n + 1
	}
	n += uvarintLen(uint64(len(f.Values)) + 1)
	for a, v := range f.Values {
		n += sizeString(string(a)) + sizeValue(v)
	}
	return n
}

// --- append helpers ---

func appendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

func appendOptBytes(dst, b []byte) []byte {
	if b == nil {
		return append(dst, 0)
	}
	dst = binary.AppendUvarint(dst, uint64(len(b))+1)
	return append(dst, b...)
}

func appendBig(dst []byte, v *big.Int) []byte {
	if v == nil {
		return append(dst, 0)
	}
	tag := byte(1)
	if v.Sign() < 0 {
		tag = 2
	}
	dst = append(dst, tag)
	b := v.Bytes()
	dst = binary.AppendUvarint(dst, uint64(len(b)))
	return append(dst, b...)
}

func appendValue(dst []byte, v logmodel.Value) []byte {
	dst = binary.AppendUvarint(dst, uint64(v.Kind))
	dst = appendString(dst, v.S)
	dst = binary.AppendUvarint(dst, zigzag(v.I))
	return binary.AppendUvarint(dst, math.Float64bits(v.F))
}

func appendFragment(dst []byte, f *logmodel.Fragment) []byte {
	dst = binary.AppendUvarint(dst, uint64(f.GLSN))
	dst = appendString(dst, f.Node)
	if f.Values == nil {
		return append(dst, 0)
	}
	dst = binary.AppendUvarint(dst, uint64(len(f.Values))+1)
	attrs := make([]logmodel.Attr, 0, len(f.Values))
	for a := range f.Values {
		attrs = append(attrs, a)
	}
	sort.Slice(attrs, func(i, j int) bool { return attrs[i] < attrs[j] })
	for _, a := range attrs {
		dst = appendString(dst, string(a))
		dst = appendValue(dst, f.Values[a])
	}
	return dst
}

// --- decoder ---

// wireDec is a bounds-checked cursor over one binary body. Every
// accessor copies what it hands out (directly or via string/big.Int
// construction), because the source buffer is a recycled frame.
type wireDec struct{ rest []byte }

func (d *wireDec) num() (uint64, error) {
	v, sz := binary.Uvarint(d.rest)
	if sz <= 0 {
		return 0, fmt.Errorf("%w: truncated varint", errBadWire)
	}
	if sz != uvarintLen(v) {
		return 0, fmt.Errorf("%w: overlong varint", errBadWire)
	}
	d.rest = d.rest[sz:]
	return v, nil
}

// small rejects counts and lengths wider than 32 bits: everything the
// codec frames is bounded by the frame it arrived in, so anything
// larger is a hostile encoding.
func (d *wireDec) small() (int, error) {
	v, err := d.num()
	if err != nil {
		return 0, err
	}
	// math.MaxInt32, not 1<<31: admitting exactly 2^31 would wrap the
	// int conversion negative on 32-bit platforms and reach a slice
	// expression with a negative index.
	if v > math.MaxInt32 {
		return 0, fmt.Errorf("%w: field %d out of range", errBadWire, v)
	}
	return int(v), nil
}

func (d *wireDec) take(n int) ([]byte, error) {
	if n > len(d.rest) {
		return nil, fmt.Errorf("%w: run of %d bytes exceeds remaining %d", errBadWire, n, len(d.rest))
	}
	b := d.rest[:n]
	d.rest = d.rest[n:]
	return b, nil
}

func (d *wireDec) str() (string, error) {
	n, err := d.small()
	if err != nil {
		return "", err
	}
	b, err := d.take(n)
	if err != nil {
		return "", err
	}
	return string(b), nil
}

func (d *wireDec) optBytes() ([]byte, error) {
	n, err := d.small()
	if err != nil {
		return nil, err
	}
	if n == 0 {
		return nil, nil
	}
	b, err := d.take(n - 1)
	if err != nil {
		return nil, err
	}
	return append([]byte(nil), b...), nil
}

// sig decodes an optional Ed25519 signature, refusing any present run
// that is not exactly one signature long.
func (d *wireDec) sig() ([]byte, error) {
	n, err := d.small()
	if err != nil || n == 0 {
		return nil, err
	}
	if n-1 != ed25519.SignatureSize {
		return nil, fmt.Errorf("%w: signature of %d bytes, want %d", errBadWire, n-1, ed25519.SignatureSize)
	}
	b, err := d.take(ed25519.SignatureSize)
	if err != nil {
		return nil, err
	}
	return append([]byte(nil), b...), nil
}

func (d *wireDec) big() (*big.Int, error) {
	tag, err := d.take(1)
	if err != nil {
		return nil, err
	}
	switch tag[0] {
	case 0:
		return nil, nil
	case 1, 2:
	default:
		return nil, fmt.Errorf("%w: big-int tag %d", errBadWire, tag[0])
	}
	n, err := d.small()
	if err != nil {
		return nil, err
	}
	b, err := d.take(n)
	if err != nil {
		return nil, err
	}
	if n > 0 && b[0] == 0 {
		return nil, fmt.Errorf("%w: big integer with a leading zero byte", errBadWire)
	}
	if n == 0 && tag[0] == 2 {
		return nil, fmt.Errorf("%w: negative zero", errBadWire)
	}
	v := new(big.Int).SetBytes(b)
	if tag[0] == 2 {
		v.Neg(v)
	}
	return v, nil
}

func (d *wireDec) value() (logmodel.Value, error) {
	var v logmodel.Value
	k, err := d.small()
	if err != nil {
		return v, err
	}
	v.Kind = logmodel.Kind(k)
	if v.S, err = d.str(); err != nil {
		return v, err
	}
	i, err := d.num()
	if err != nil {
		return v, err
	}
	v.I = unzigzag(i)
	f, err := d.num()
	if err != nil {
		return v, err
	}
	v.F = math.Float64frombits(f)
	return v, nil
}

func (d *wireDec) fragment() (logmodel.Fragment, error) {
	var f logmodel.Fragment
	g, err := d.num()
	if err != nil {
		return f, err
	}
	f.GLSN = logmodel.GLSN(g)
	if f.Node, err = d.str(); err != nil {
		return f, err
	}
	flag, err := d.small()
	if err != nil {
		return f, err
	}
	if flag == 0 {
		return f, nil
	}
	count := flag - 1
	if count > len(d.rest) {
		// Every value costs at least one byte.
		return f, fmt.Errorf("%w: fragment claims %d values in %d bytes", errBadWire, count, len(d.rest))
	}
	f.Values = make(map[logmodel.Attr]logmodel.Value, count)
	prev := ""
	for i := 0; i < count; i++ {
		a, err := d.str()
		if err != nil {
			return f, err
		}
		if i > 0 && a <= prev {
			return f, fmt.Errorf("%w: fragment attributes out of order", errBadWire)
		}
		prev = a
		v, err := d.value()
		if err != nil {
			return f, err
		}
		f.Values[logmodel.Attr(a)] = v
	}
	return f, nil
}

// done refuses trailing bytes after a complete body.
func (d *wireDec) done() error {
	if len(d.rest) != 0 {
		return fmt.Errorf("%w: %d trailing bytes", errBadWire, len(d.rest))
	}
	return nil
}

// --- batchItem / storeBatchBody ---

func sizeBatchItem(it *batchItem) int {
	return sizeFragment(&it.Fragment) + sizeBig(it.DigestExp) +
		sizeOptBytes(it.Provenance) + sizeBig(it.WitnessExp)
}

func appendBatchItem(dst []byte, it *batchItem) []byte {
	dst = appendFragment(dst, &it.Fragment)
	dst = appendBig(dst, it.DigestExp)
	dst = appendOptBytes(dst, it.Provenance)
	return appendBig(dst, it.WitnessExp)
}

// item decodes one store item at the cursor: a store body's item run
// and the tail of a journal "frag" entry alike.
func (d *wireDec) item(it *batchItem) error {
	var err error
	if it.Fragment, err = d.fragment(); err != nil {
		return err
	}
	if it.DigestExp, err = d.big(); err != nil {
		return err
	}
	if it.Provenance, err = d.sig(); err != nil {
		return err
	}
	it.WitnessExp, err = d.big()
	return err
}

func decodeBatchItem(src []byte, it *batchItem) error {
	d := wireDec{rest: src}
	if err := d.item(it); err != nil {
		return err
	}
	return d.done()
}

// ingestFanoutThreshold is the batch size at which the node-side store
// path fans item decode and journal encode over the shared worker pool.
// Below it the serial loop is cheaper than the pool handoff.
const ingestFanoutThreshold = 8

func (b *storeBatchBody) BinarySize() int {
	n := sizeString(b.TicketID)
	if b.Items == nil {
		return n + 1
	}
	n += uvarintLen(uint64(len(b.Items)) + 1)
	for i := range b.Items {
		sz := sizeBatchItem(&b.Items[i])
		n += uvarintLen(uint64(sz)) + sz
	}
	return n
}

func (b *storeBatchBody) AppendBinary(dst []byte) []byte {
	dst = appendString(dst, b.TicketID)
	if b.Items == nil {
		return append(dst, 0)
	}
	dst = binary.AppendUvarint(dst, uint64(len(b.Items))+1)
	for i := range b.Items {
		it := &b.Items[i]
		dst = binary.AppendUvarint(dst, uint64(sizeBatchItem(it)))
		dst = appendBatchItem(dst, it)
	}
	return dst
}

func (b *storeBatchBody) DecodeBinary(src []byte) error {
	d := wireDec{rest: src}
	var err error
	if b.TicketID, err = d.str(); err != nil {
		return err
	}
	flag, err := d.small()
	if err != nil {
		return err
	}
	b.Items = nil
	if flag == 0 {
		return d.done()
	}
	count := flag - 1
	if count > len(d.rest) {
		// Each item costs at least its one-byte length prefix.
		return fmt.Errorf("%w: batch claims %d items in %d bytes", errBadWire, count, len(d.rest))
	}
	// Slice the item runs serially (a cheap varint scan), then decode
	// the items themselves — fragment maps, big-integer exponents — in
	// parallel over the shared pool. Each item run is decoded into its
	// own slot, and every decode copies out of the recycled frame.
	runs := make([][]byte, count)
	for i := 0; i < count; i++ {
		n, err := d.small()
		if err != nil {
			return err
		}
		if runs[i], err = d.take(n); err != nil {
			return err
		}
	}
	if err := d.done(); err != nil {
		return err
	}
	b.Items = make([]batchItem, count)
	if count >= ingestFanoutThreshold {
		return workpool.Map(count, func(i int) error {
			return decodeBatchItem(runs[i], &b.Items[i])
		})
	}
	for i := range runs {
		if err := decodeBatchItem(runs[i], &b.Items[i]); err != nil {
			return err
		}
	}
	return nil
}

// --- ackBody ---

func (b *ackBody) BinarySize() int {
	return 1 + sizeString(b.Error)
}

func (b *ackBody) AppendBinary(dst []byte) []byte {
	var flags byte
	if b.OK {
		flags |= 1
	}
	if b.Overloaded {
		flags |= 2
	}
	dst = append(dst, flags)
	return appendString(dst, b.Error)
}

func (b *ackBody) DecodeBinary(src []byte) error {
	d := wireDec{rest: src}
	flags, err := d.take(1)
	if err != nil {
		return err
	}
	if flags[0]&^3 != 0 {
		return fmt.Errorf("%w: ack flags %#x", errBadWire, flags[0])
	}
	b.OK = flags[0]&1 != 0
	b.Overloaded = flags[0]&2 != 0
	if b.Error, err = d.str(); err != nil {
		return err
	}
	return d.done()
}

// --- glsn round bodies ---

func (b *glsnRangeReqBody) BinarySize() int {
	return sizeString(b.TicketID) + uvarintLen(uint64(b.Count))
}

func (b *glsnRangeReqBody) AppendBinary(dst []byte) []byte {
	dst = appendString(dst, b.TicketID)
	return binary.AppendUvarint(dst, uint64(b.Count))
}

func (b *glsnRangeReqBody) DecodeBinary(src []byte) error {
	d := wireDec{rest: src}
	var err error
	if b.TicketID, err = d.str(); err != nil {
		return err
	}
	if b.Count, err = d.small(); err != nil {
		return err
	}
	return d.done()
}

func (b *glsnRangeRespBody) BinarySize() int {
	return uvarintLen(uint64(b.First)) + uvarintLen(uint64(b.Count)) + sizeString(b.Error)
}

func (b *glsnRangeRespBody) AppendBinary(dst []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(b.First))
	dst = binary.AppendUvarint(dst, uint64(b.Count))
	return appendString(dst, b.Error)
}

func (b *glsnRangeRespBody) DecodeBinary(src []byte) error {
	d := wireDec{rest: src}
	first, err := d.num()
	if err != nil {
		return err
	}
	b.First = logmodel.GLSN(first)
	if b.Count, err = d.small(); err != nil {
		return err
	}
	if b.Error, err = d.str(); err != nil {
		return err
	}
	return d.done()
}

// --- agreement (quorum) round bodies ---

func (b *agreeReqBody) BinarySize() int { return sizeOptBytes(b.Statement) }

func (b *agreeReqBody) AppendBinary(dst []byte) []byte {
	return appendOptBytes(dst, b.Statement)
}

func (b *agreeReqBody) DecodeBinary(src []byte) error {
	d := wireDec{rest: src}
	var err error
	if b.Statement, err = d.optBytes(); err != nil {
		return err
	}
	return d.done()
}

func (b *agreeVoteBody) BinarySize() int {
	return sizeOptBytes(b.Sig) + sizeString(b.Refused)
}

func (b *agreeVoteBody) AppendBinary(dst []byte) []byte {
	dst = appendOptBytes(dst, b.Sig)
	return appendString(dst, b.Refused)
}

func (b *agreeVoteBody) DecodeBinary(src []byte) error {
	d := wireDec{rest: src}
	var err error
	if b.Sig, err = d.sig(); err != nil {
		return err
	}
	if b.Refused, err = d.str(); err != nil {
		return err
	}
	return d.done()
}

func sizeCertificate(c *Certificate) int {
	n := sizeOptBytes(c.Statement)
	if c.Votes == nil {
		return n + 1
	}
	n += uvarintLen(uint64(len(c.Votes)) + 1)
	for node, sig := range c.Votes {
		n += sizeString(node) + sizeOptBytes(sig)
	}
	return n
}

func appendCertificate(dst []byte, c *Certificate) []byte {
	dst = appendOptBytes(dst, c.Statement)
	if c.Votes == nil {
		return append(dst, 0)
	}
	dst = binary.AppendUvarint(dst, uint64(len(c.Votes))+1)
	nodes := make([]string, 0, len(c.Votes))
	for node := range c.Votes {
		nodes = append(nodes, node)
	}
	sort.Strings(nodes)
	for _, node := range nodes {
		dst = appendString(dst, node)
		dst = appendOptBytes(dst, c.Votes[node])
	}
	return dst
}

func decodeCertificate(d *wireDec, c *Certificate) error {
	var err error
	if c.Statement, err = d.optBytes(); err != nil {
		return err
	}
	flag, err := d.small()
	if err != nil {
		return err
	}
	c.Votes = nil
	if flag == 0 {
		return nil
	}
	count := flag - 1
	if count > len(d.rest) {
		return fmt.Errorf("%w: certificate claims %d votes in %d bytes", errBadWire, count, len(d.rest))
	}
	c.Votes = make(map[string][]byte, count)
	for i := 0; i < count; i++ {
		node, err := d.str()
		if err != nil {
			return err
		}
		sig, err := d.sig()
		if err != nil {
			return err
		}
		c.Votes[node] = sig
	}
	return nil
}

func (b *agreeCommitBody) BinarySize() int { return sizeCertificate(&b.Cert) }

func (b *agreeCommitBody) AppendBinary(dst []byte) []byte {
	return appendCertificate(dst, &b.Cert)
}

func (b *agreeCommitBody) DecodeBinary(src []byte) error {
	d := wireDec{rest: src}
	if err := decodeCertificate(&d, &b.Cert); err != nil {
		return err
	}
	return d.done()
}

// --- walEntry (journal record payload, see storejournal.go) ---

// walKindCode maps the journal kinds onto one byte. The string forms
// stay canonical (JSON entries and applyWALEntry use them); the binary
// record carries the code.
var walKindCode = map[string]byte{"ticket": 1, "grant": 2, "frag": 3, "delete": 4}

var walKindName = [5]string{"", "ticket", "grant", "frag", "delete"}

func sizeWireTicket(t *wireTicket) int {
	n := sizeString(t.ID) + sizeString(t.Holder)
	if t.Ops == nil {
		n++
	} else {
		n += uvarintLen(uint64(len(t.Ops)) + 1)
		for _, o := range t.Ops {
			n += uvarintLen(uint64(o))
		}
	}
	return n + sizeOptBytes(t.Sig)
}

func appendWireTicket(dst []byte, t *wireTicket) []byte {
	dst = appendString(dst, t.ID)
	dst = appendString(dst, t.Holder)
	if t.Ops == nil {
		dst = append(dst, 0)
	} else {
		dst = binary.AppendUvarint(dst, uint64(len(t.Ops))+1)
		for _, o := range t.Ops {
			dst = binary.AppendUvarint(dst, uint64(o))
		}
	}
	return appendOptBytes(dst, t.Sig)
}

func decodeWireTicket(d *wireDec) (*wireTicket, error) {
	var t wireTicket
	var err error
	if t.ID, err = d.str(); err != nil {
		return nil, err
	}
	if t.Holder, err = d.str(); err != nil {
		return nil, err
	}
	flag, err := d.small()
	if err != nil {
		return nil, err
	}
	if flag > 0 {
		count := flag - 1
		if count > len(d.rest) {
			return nil, fmt.Errorf("%w: ticket claims %d ops in %d bytes", errBadWire, count, len(d.rest))
		}
		t.Ops = make([]int, count)
		for i := range t.Ops {
			if t.Ops[i], err = d.small(); err != nil {
				return nil, err
			}
		}
	}
	if t.Sig, err = d.sig(); err != nil {
		return nil, err
	}
	return &t, nil
}

// walEntrySize is the exact encoded payload size of one journal entry.
func walEntrySize(e *walEntry) int {
	n := 1 // kind code
	n++    // ticket presence flag
	if e.Ticket != nil {
		n += sizeWireTicket(e.Ticket)
	}
	n += sizeString(e.TicketID)
	n += uvarintLen(uint64(e.GLSN))
	n += uvarintLen(uint64(e.Count))
	n++ // item presence flag
	if e.Item != nil {
		n += sizeBatchItem(e.Item)
	}
	return n
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
	dst = appendString(dst, e.TicketID)
	dst = binary.AppendUvarint(dst, uint64(e.GLSN))
	dst = binary.AppendUvarint(dst, uint64(e.Count))
	if e.Item == nil {
		return append(dst, 0), nil
	}
	dst = append(dst, 1)
	return appendBatchItem(dst, e.Item), nil
}

// decodeWALEntry decodes one binary journal payload.
func decodeWALEntry(src []byte) (walEntry, error) {
	var e walEntry
	d := wireDec{rest: src}
	code, err := d.take(1)
	if err != nil {
		return e, err
	}
	if code[0] == 0 || int(code[0]) >= len(walKindName) {
		return e, fmt.Errorf("%w: WAL kind code %d", errBadWire, code[0])
	}
	e.Kind = walKindName[code[0]]
	flag, err := d.take(1)
	if err != nil {
		return e, err
	}
	if flag[0] == 1 {
		if e.Ticket, err = decodeWireTicket(&d); err != nil {
			return e, err
		}
	} else if flag[0] != 0 {
		return e, fmt.Errorf("%w: ticket flag %d", errBadWire, flag[0])
	}
	if e.TicketID, err = d.str(); err != nil {
		return e, err
	}
	g, err := d.num()
	if err != nil {
		return e, err
	}
	e.GLSN = logmodel.GLSN(g)
	if e.Count, err = d.small(); err != nil {
		return e, err
	}
	if flag, err = d.take(1); err != nil {
		return e, err
	}
	if flag[0] == 1 {
		e.Item = new(batchItem)
		if err := d.item(e.Item); err != nil {
			return e, err
		}
	} else if flag[0] != 0 {
		return e, fmt.Errorf("%w: item flag %d", errBadWire, flag[0])
	}
	return e, d.done()
}
