// Package ticket implements the DLA access-control layer of paper §4:
// before a user u_j can log a message in the DLA cluster "it must obtain
// a ticket to authenticate the user and control access operations
// (read/query, write/log, delete)". Every DLA node maintains the same
// per-glsn access-control table (Table 6): each glsn assigned by the
// cluster is recorded under the authorizing ticket's ID.
//
// A ticket here is a digital signature by the cluster's credential
// authority over the ticket body, the first of the two forms the paper
// allows ("a digital signature or Kerberos like ticket"). The issuer
// signs in the clear (it knows whom it authorizes), so the signature is
// Ed25519; blind signatures are reserved for the anonymous membership
// credentials of §4.2.
package ticket

import (
	"crypto/ed25519"
	"errors"
	"fmt"
	"io"
	"slices"
	"sort"
	"strings"
	"sync"

	"confaudit/internal/logmodel"
)

// Op is an access operation class.
type Op int

// Operations, paper §4: read/query, write/log, delete.
const (
	OpRead Op = iota + 1
	OpWrite
	OpDelete
)

// String renders the operation the way Table 6 abbreviates it.
func (o Op) String() string {
	switch o {
	case OpRead:
		return "R"
	case OpWrite:
		return "W"
	case OpDelete:
		return "D"
	default:
		return "?"
	}
}

// Errors reported by the package.
var (
	// ErrForged indicates a ticket whose signature does not verify.
	ErrForged = errors.New("ticket: signature verification failed")
	// ErrUnknownTicket indicates an unregistered ticket ID.
	ErrUnknownTicket = errors.New("ticket: unknown ticket")
	// ErrNotAuthorized indicates an operation the ticket does not allow.
	ErrNotAuthorized = errors.New("ticket: operation not authorized")
	// ErrDuplicateTicket indicates re-registration of a ticket ID.
	ErrDuplicateTicket = errors.New("ticket: duplicate ticket ID")
	// ErrBadKey indicates issuer key material of the wrong length.
	ErrBadKey = errors.New("ticket: malformed issuer key")
)

// Ticket authorizes a holder for a set of operations. The signature
// covers ID, holder, and operations.
type Ticket struct {
	// ID is the ticket identifier (Table 6 "Ticket ID": T1, T2, ...).
	ID string
	// Holder is the application node the ticket was issued to.
	Holder string
	// Ops are the allowed operations.
	Ops []Op
	// Sig is the issuer's Ed25519 signature over the canonical body.
	Sig []byte
}

// OpsString renders the operation set as Table 6 does ("W/R").
func (t *Ticket) OpsString() string {
	parts := make([]string, len(t.Ops))
	for i, o := range t.Ops {
		parts[i] = o.String()
	}
	return strings.Join(parts, "/")
}

// canonical is the byte string the issuer signs.
func (t *Ticket) canonical() []byte {
	ops := make([]string, len(t.Ops))
	for i, o := range t.Ops {
		ops[i] = o.String()
	}
	sort.Strings(ops)
	return []byte("ticket|" + t.ID + "|" + t.Holder + "|" + strings.Join(ops, ","))
}

// Allows reports whether the ticket covers the operation.
func (t *Ticket) Allows(op Op) bool {
	for _, o := range t.Ops {
		if o == op {
			return true
		}
	}
	return false
}

// Issuer mints signed tickets. In a deployment this is the cluster's
// credential authority.
type Issuer struct {
	key ed25519.PrivateKey
}

// NewIssuer generates a fresh issuer key from rng (crypto/rand when
// nil).
func NewIssuer(rng io.Reader) (*Issuer, error) {
	_, key, err := ed25519.GenerateKey(rng)
	if err != nil {
		return nil, fmt.Errorf("ticket: generating issuer key: %w", err)
	}
	return &Issuer{key: key}, nil
}

// NewIssuerFromSeed rebuilds an issuer from its provisioned seed.
func NewIssuerFromSeed(seed []byte) (*Issuer, error) {
	if len(seed) != ed25519.SeedSize {
		return nil, fmt.Errorf("%w: seed is %d bytes, want %d", ErrBadKey, len(seed), ed25519.SeedSize)
	}
	return &Issuer{key: ed25519.NewKeyFromSeed(seed)}, nil
}

// Seed returns the issuer's private seed for provisioning.
func (i *Issuer) Seed() []byte { return i.key.Seed() }

// Public returns the verification key for issued tickets.
func (i *Issuer) Public() ed25519.PublicKey { return i.key.Public().(ed25519.PublicKey) }

// Issue mints a ticket for the holder with the given operations.
func (i *Issuer) Issue(id, holder string, ops ...Op) (*Ticket, error) {
	if id == "" || holder == "" {
		return nil, errors.New("ticket: empty ticket ID or holder")
	}
	if len(ops) == 0 {
		return nil, errors.New("ticket: no operations granted")
	}
	t := &Ticket{ID: id, Holder: holder, Ops: append([]Op(nil), ops...)}
	t.Sig = ed25519.Sign(i.key, t.canonical())
	return t, nil
}

// Verify checks the ticket signature under the issuer public key. A key
// of the wrong length is refused, never a panic.
func Verify(pub ed25519.PublicKey, t *Ticket) error {
	if err := checkIssuerKey(pub); err != nil {
		return err
	}
	if t == nil || !ed25519.Verify(pub, t.canonical(), t.Sig) {
		return ErrForged
	}
	return nil
}

// checkIssuerKey refuses a verification key ed25519.Verify would panic
// on.
func checkIssuerKey(pub ed25519.PublicKey) error {
	if len(pub) != ed25519.PublicKeySize {
		return fmt.Errorf("%w: issuer key is %d bytes, want %d", ErrBadKey, len(pub), ed25519.PublicKeySize)
	}
	return nil
}

// AccessTable is the per-node copy of the cluster's access-control
// table (Table 6): ticket ID -> operations -> authorized glsns. It is
// safe for concurrent use.
type AccessTable struct {
	mu      sync.RWMutex
	issuer  ed25519.PublicKey
	tickets map[string]*Ticket
	// grants holds each registered ticket's granted glsns as sorted,
	// disjoint ranges that do not touch: the sequencer grants contiguous
	// ranges, in ascending glsn order, so a ticket holds at most one
	// range per grant round rather than one entry per glsn.
	grants map[string][]glsnRange
}

// glsnRange is the glsns [first, end).
type glsnRange struct{ first, end logmodel.GLSN }

// NewAccessTable creates an empty table verifying tickets under pub,
// refusing a key of the wrong length.
func NewAccessTable(pub ed25519.PublicKey) (*AccessTable, error) {
	if err := checkIssuerKey(pub); err != nil {
		return nil, err
	}
	return &AccessTable{
		issuer:  pub,
		tickets: make(map[string]*Ticket),
		grants:  make(map[string][]glsnRange),
	}, nil
}

// Register admits a ticket after verifying its signature. Forged or
// duplicate tickets are rejected.
func (a *AccessTable) Register(t *Ticket) error {
	if err := Verify(a.issuer, t); err != nil {
		return err
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if _, dup := a.tickets[t.ID]; dup {
		return fmt.Errorf("%w: %q", ErrDuplicateTicket, t.ID)
	}
	a.tickets[t.ID] = t
	a.grants[t.ID] = nil
	return nil
}

// Grant records that the count glsns from first on were assigned under
// the ticket, per the paper: "once some glsn is assigned by DLA for
// user u_j with the ticket T, this glsn will be added to the access
// table under the entry of that ticket's ID". Granting a glsn again is
// a no-op. The range must end at or below the largest glsn.
func (a *AccessTable) Grant(ticketID string, first logmodel.GLSN, count int) error {
	end := first + logmodel.GLSN(count)
	if count < 0 || end < first {
		return fmt.Errorf("ticket: grant of %d glsns from %s out of range", count, first)
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	rs, ok := a.grants[ticketID]
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownTicket, ticketID)
	}
	if count > 0 {
		a.grants[ticketID] = addRange(rs, glsnRange{first, end})
	}
	return nil
}

// addRange merges r into the sorted ranges rs.
func addRange(rs []glsnRange, r glsnRange) []glsnRange {
	if n := len(rs); n == 0 || rs[n-1].end < r.first {
		return append(rs, r) // the sequencer's ascending grants
	}
	// rs[i:j] are the ranges r overlaps or touches.
	i := sort.Search(len(rs), func(i int) bool { return rs[i].end >= r.first })
	j := sort.Search(len(rs), func(j int) bool { return rs[j].first > r.end })
	if i < j {
		r.first = min(r.first, rs[i].first)
		r.end = max(r.end, rs[j-1].end)
	}
	return slices.Replace(rs, i, j, r)
}

// covers reports whether the sorted ranges rs hold g.
func covers(rs []glsnRange, g logmodel.GLSN) bool {
	i := sort.Search(len(rs), func(i int) bool { return rs[i].end > g })
	return i < len(rs) && rs[i].first <= g
}

// Authorize checks that the ticket exists, permits op, and (for read and
// delete) covers the glsn. Writes are authorized per ticket, since the
// glsn is assigned during the write itself.
func (a *AccessTable) Authorize(ticketID string, op Op, glsn logmodel.GLSN) error {
	a.mu.RLock()
	defer a.mu.RUnlock()
	t, ok := a.tickets[ticketID]
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownTicket, ticketID)
	}
	if !t.Allows(op) {
		return fmt.Errorf("%w: ticket %q lacks %v", ErrNotAuthorized, ticketID, op)
	}
	if op == OpWrite {
		return nil
	}
	if !covers(a.grants[ticketID], glsn) {
		return fmt.Errorf("%w: ticket %q not granted glsn %s", ErrNotAuthorized, ticketID, glsn)
	}
	return nil
}

// HasGrant reports whether glsn was granted under the ticket. Unlike
// Glsns it does not copy, so hot paths can check a single grant with a
// binary search over the ticket's ranges.
func (a *AccessTable) HasGrant(ticketID string, glsn logmodel.GLSN) bool {
	a.mu.RLock()
	defer a.mu.RUnlock()
	return covers(a.grants[ticketID], glsn)
}

// Glsns returns the sorted glsns granted to a ticket, as Table 6 lists
// them.
func (a *AccessTable) Glsns(ticketID string) []logmodel.GLSN {
	a.mu.RLock()
	defer a.mu.RUnlock()
	rs := a.grants[ticketID]
	n := 0
	for _, r := range rs {
		n += int(r.end - r.first)
	}
	out := make([]logmodel.GLSN, 0, n)
	for _, r := range rs {
		for g := r.first; g < r.end; g++ {
			out = append(out, g)
		}
	}
	return out
}

// TicketIDs returns registered ticket IDs in sorted order.
func (a *AccessTable) TicketIDs() []string {
	a.mu.RLock()
	defer a.mu.RUnlock()
	ids := make([]string, 0, len(a.tickets))
	for id := range a.tickets {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// Ticket returns a registered ticket by ID.
func (a *AccessTable) Ticket(id string) (*Ticket, bool) {
	a.mu.RLock()
	defer a.mu.RUnlock()
	t, ok := a.tickets[id]
	return t, ok
}

// ConsistencyElements renders every (ticket, glsn) grant as a canonical
// set element "ticketID|glsn". The paper checks cross-node table
// consistency with the secure set intersection primitive over exactly
// this element set (§4.1): if every node's element set intersects to the
// full set, the replicated tables agree.
func (a *AccessTable) ConsistencyElements() [][]byte {
	a.mu.RLock()
	defer a.mu.RUnlock()
	var out [][]byte
	ids := make([]string, 0, len(a.grants))
	for id := range a.grants {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		for _, r := range a.grants[id] {
			for g := r.first; g < r.end; g++ {
				out = append(out, []byte(id+"|"+g.String()))
			}
		}
	}
	return out
}
