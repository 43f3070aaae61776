package cluster

import (
	"cmp"
	"context"
	"crypto/ed25519"
	"encoding/binary"
	"errors"
	"fmt"
	"math/big"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"confaudit/internal/crypto/accumulator"
	"confaudit/internal/logmodel"
	"confaudit/internal/mathx"
	"confaudit/internal/resilience"
	"confaudit/internal/storage"
	"confaudit/internal/telemetry"
	"confaudit/internal/ticket"
	"confaudit/internal/transport"
)

// Message types of the node's client-facing protocol.
const (
	MsgTicketRegister = "ticket.register"
	MsgTicketAck      = "ticket.ack"
	MsgGLSNRange      = "glsn.range"
	MsgGLSNRangeResp  = "glsn.range.resp"
	MsgLogStoreBatch  = "log.store.batch"
	MsgLogAck         = "log.ack"
	MsgLogRead        = "log.read"
	MsgLogFragment    = "log.frag"
	MsgLogDelete      = "log.delete"
)

// Errors reported by node operations.
var (
	// ErrNotLeader indicates a sequencer request sent to a follower.
	ErrNotLeader = errors.New("cluster: not the sequencer leader")
	// ErrUnknownGLSN indicates a glsn with no stored fragment.
	ErrUnknownGLSN = errors.New("cluster: unknown glsn")
	// ErrGLSNNotAssigned indicates a store for an unassigned glsn.
	ErrGLSNNotAssigned = errors.New("cluster: glsn not assigned")
)

// Config assembles a DLA node.
type Config struct {
	// ID is the node's cluster identity (must appear in Roster).
	ID string
	// Roster lists every DLA node in canonical order; Roster[0] is the
	// glsn sequencer leader.
	Roster []string
	// Partition is the attribute partition (this node serves
	// Partition.NodeAttrs(ID)).
	Partition *logmodel.Partition
	// Group is the shared commutative-crypto group for SMC protocols.
	Group *mathx.Group
	// Signer is the node's Ed25519 key for agreement votes and result
	// certificates.
	Signer ed25519.PrivateKey
	// PeerKeys maps every roster node (including self) to its
	// verification key.
	PeerKeys map[string]ed25519.PublicKey
	// TicketIssuer is the verification key tickets are checked under.
	TicketIssuer ed25519.PublicKey
	// AccParams are the cluster-agreed one-way-accumulator parameters.
	AccParams *accumulator.Params
	// FirstGLSN is the first sequence number the leader assigns.
	FirstGLSN logmodel.GLSN
	// Storage, when set, makes the node durable: every mutation is
	// journaled through the store (the crash-safe segment store) and
	// replayed on restart. The node takes ownership and closes it in
	// Close. The store must already be opened (and thereby
	// recovered): New replays it into memory and surfaces any
	// quarantined extents via QuarantinedExtents. Without it the node
	// keeps its state in memory only.
	Storage storage.Store
	// Health tunes the node's heartbeat failure detector (zero fields
	// take the resilience package defaults).
	Health resilience.DetectorConfig
	// Admission bounds the node's ingest boundary (token-bucket record
	// rate + inflight store bytes); the zero value admits everything.
	Admission AdmissionConfig
}

func (c *Config) validate() error {
	if c.ID == "" {
		return errors.New("cluster: empty node ID")
	}
	found := false
	for _, r := range c.Roster {
		if r == c.ID {
			found = true
			break
		}
	}
	if !found {
		return fmt.Errorf("cluster: node %q not in roster %v", c.ID, c.Roster)
	}
	if c.Partition == nil || c.Group == nil || c.Signer == nil || c.AccParams == nil {
		return errors.New("cluster: missing partition, group, signer, or accumulator params")
	}
	if len(c.Signer) != ed25519.PrivateKeySize {
		return fmt.Errorf("cluster: signer key is %d bytes, want %d", len(c.Signer), ed25519.PrivateKeySize)
	}
	for _, r := range c.Roster {
		if pk, ok := c.PeerKeys[r]; !ok || len(pk) != ed25519.PublicKeySize {
			return fmt.Errorf("cluster: peer key of %q is missing or not %d bytes", r, ed25519.PublicKeySize)
		}
	}
	return nil
}

// Node is one DLA cluster member. Create with New, start with Start,
// stop by cancelling the context passed to Start.
type Node struct {
	id        string
	roster    []string
	part      *logmodel.Partition
	attrs     []logmodel.Attr // A_node, the attributes it stores, sorted
	group     *mathx.Group
	signer    ed25519.PrivateKey
	peerKeys  map[string]ed25519.PublicKey
	accParams *accumulator.Params
	mb        *transport.Mailbox

	mu       sync.RWMutex
	frags    *fragstore
	acl      *ticket.AccessTable
	nextGLSN logmodel.GLSN
	// grantLog holds every applied grant range in glsn order: the
	// leader answers catch-up from it without touching the access
	// table, and compaction snapshots it.
	grantLog []grantRange
	idxOff   atomic.Bool // test hook: force audit scans
	seqMu    sync.Mutex  // serializes leader sequencer rounds
	syncMu   sync.Mutex  // serializes follower catch-up (syncFromLeader)
	votes    sentVotes   // the last votes this node sent (serveAgreement)

	// notifyCh is closed and replaced whenever grant or ticket state
	// advances, waking handlers parked on a glsn that is still in
	// flight (see changeSignal).
	notifyMu sync.Mutex
	notifyCh chan struct{}

	// journal is nil on a memory-only node; its methods then do nothing.
	journal *storeJournal
	// quarantined names the glsn extents recovery refused to serve
	// (crc/accumulator mismatches), prefixed with this node's ID. The
	// audit layer folds them into PartialResultError so a degraded
	// answer says exactly which history is missing.
	quarantined []string

	det *resilience.Detector
	adm *admission // nil = admit everything

	wg sync.WaitGroup
}

// New builds a node bound to the mailbox.
func New(cfg Config, mb *transport.Mailbox) (*Node, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if mb == nil || mb.ID() != cfg.ID {
		return nil, fmt.Errorf("cluster: mailbox identity mismatch")
	}
	acl, err := ticket.NewAccessTable(cfg.TicketIssuer)
	if err != nil {
		return nil, fmt.Errorf("cluster: ticket issuer: %w", err)
	}
	first := cfg.FirstGLSN
	if first == 0 {
		first = 1
	}
	attrs := cfg.Partition.NodeAttrs(cfg.ID)
	slices.Sort(attrs)
	n := &Node{
		id:        cfg.ID,
		roster:    append([]string(nil), cfg.Roster...),
		part:      cfg.Partition,
		attrs:     attrs,
		group:     cfg.Group,
		signer:    cfg.Signer,
		peerKeys:  cfg.PeerKeys,
		accParams: cfg.AccParams,
		mb:        mb,
		frags:     newFragstore(attrs),
		acl:       acl,
		nextGLSN:  first,
		notifyCh:  make(chan struct{}),
	}
	if cfg.Storage != nil {
		if err := replayStore(cfg.Storage, n.applyWALEntry); err != nil {
			return nil, err
		}
		n.journal = &storeJournal{s: cfg.Storage}
		for _, q := range cfg.Storage.Status().Quarantined {
			n.quarantined = append(n.quarantined, cfg.ID+": "+q.Extent())
		}
		if len(n.quarantined) > 0 {
			telemetry.F.Record(telemetry.FlightEvent{
				Kind: telemetry.FlightQuarantine, Node: cfg.ID, Count: len(n.quarantined),
			})
		}
	}
	n.grantLog = orderGrantLog(n.grantLog)
	n.det = resilience.NewDetector(mb, n.roster, cfg.Health)
	n.adm = newAdmission(cfg.Admission)
	return n, nil
}

// Close lets go of the node's records and closes its journal (a no-op
// without durable storage), returning the journal's error. Call after
// the node's server loops have stopped. The node then holds nothing: a
// read reports not-found, and the store's memory is free to collect
// even while the Node itself stays reachable.
func (n *Node) Close() error {
	n.mu.Lock()
	n.frags = newFragstore(n.attrs)
	n.mu.Unlock()
	return n.journal.Close()
}

// QuarantinedExtents names the glsn extents this node's recovery
// refused to serve, each prefixed with the node ID. Empty on a healthy
// node.
func (n *Node) QuarantinedExtents() []string {
	return append([]string(nil), n.quarantined...)
}

// StorageStatus snapshots the node's durable storage engine. A
// memory-only node synthesizes a Status so `dlactl storage status` works
// against every node.
func (n *Node) StorageStatus() storage.Status {
	if n.journal != nil {
		return n.journal.s.Status()
	}
	n.mu.RLock()
	defer n.mu.RUnlock()
	return storage.Status{Backend: storage.BackendMemory, Records: int64(n.frags.len())}
}

// ID returns the node's cluster identity.
func (n *Node) ID() string { return n.id }

// Roster returns the cluster roster (copy).
func (n *Node) Roster() []string { return append([]string(nil), n.roster...) }

// Partition returns the attribute partition.
func (n *Node) Partition() *logmodel.Partition { return n.part }

// Group returns the shared crypto group.
func (n *Node) Group() *mathx.Group { return n.group }

// Mailbox returns the node's mailbox, for subsystem servers (integrity,
// audit) that share it.
func (n *Node) Mailbox() *transport.Mailbox { return n.mb }

// AccParams returns the cluster accumulator parameters.
func (n *Node) AccParams() *accumulator.Params { return n.accParams }

// isLeader reports whether this node is the glsn sequencer.
func (n *Node) isLeader() bool { return n.roster[0] == n.id }

func (n *Node) peers() []string {
	out := make([]string, 0, len(n.roster)-1)
	for _, r := range n.roster {
		if r != n.id {
			out = append(out, r)
		}
	}
	return out
}

// Start launches the node's server loops. They stop when ctx is
// cancelled; Wait blocks until they have exited.
func (n *Node) Start(ctx context.Context) {
	loops := []func(context.Context){
		n.serveAgreement,
		n.serveCommits,
		n.serveTickets,
		n.serveGLSNRange,
		n.serveStoreBatch,
		n.serveRead,
		n.serveDelete,
		n.serveACLCheck,
		n.serveACLRequests,
		n.serveSync,
	}
	n.wg.Add(len(loops))
	for _, loop := range loops {
		go func(loop func(context.Context)) {
			defer n.wg.Done()
			loop(ctx)
		}(loop)
	}
	n.det.Start(ctx)
	n.wg.Add(1)
	go func() {
		defer n.wg.Done()
		n.det.Wait()
	}()
	// Background compaction for the segment store: when enough sealed
	// history accumulates, rewrite it as a snapshot so the next restart
	// replays O(live + delta) instead of the full history. Driven from
	// the node (not the store) because the snapshot needs the node's
	// state lock; polling NeedsCompaction keeps the lock ordering
	// n.mu → store.mu in both the append and compaction paths.
	if n.journal != nil {
		n.wg.Add(1)
		go func() {
			defer n.wg.Done()
			tick := time.NewTicker(2 * time.Second)
			defer tick.Stop()
			for {
				select {
				case <-ctx.Done():
					return
				case <-tick.C:
					if n.journal.s.NeedsCompaction() {
						n.CompactStorage() //nolint:errcheck // poisoned stores refuse appends loudly
					}
				}
			}
		}()
	}
	// A restarted follower may have missed sequencer commits while it
	// was down; pull them eagerly instead of waiting for the next
	// proposal to expose the gap.
	if !n.isLeader() {
		n.wg.Add(1)
		go func() {
			defer n.wg.Done()
			n.syncFromLeader(ctx) //nolint:errcheck // best effort; gaps re-sync on demand
		}()
	}
}

// HealthView snapshots the node's view of roster liveness.
func (n *Node) HealthView() resilience.HealthView { return n.det.View() }

// Wait blocks until every server loop has exited.
func (n *Node) Wait() { n.wg.Wait() }

// --- statement handling (glsn assignment agreement) ---

// maxGLSNBatch bounds one range assignment, keeping a single agreement
// round (and the journal group commit behind it) to a sane size.
const maxGLSNBatch = 4096

// glsnRangeStatement renders the sequencer statement
// "glsnrange|<first>|<count>|<ticket>", which assigns the contiguous
// range [first, first+count) to the ticket in one agreement round. A
// single grant is a range of one.
func glsnRangeStatement(first logmodel.GLSN, count int, ticketID string) []byte {
	return []byte("glsnrange|" + strconv.FormatUint(uint64(first), 16) + "|" +
		strconv.FormatInt(int64(count), 16) + "|" + ticketID)
}

// parseStatement parses a glsnRangeStatement.
func parseStatement(stmt []byte) (first logmodel.GLSN, count int, ticketID string, err error) {
	parts := strings.Split(string(stmt), "|")
	if len(parts) != 4 || parts[0] != "glsnrange" {
		return 0, 0, "", fmt.Errorf("cluster: not a glsn statement: %q", stmt)
	}
	g, err := logmodel.ParseGLSN(parts[1])
	if err != nil {
		return 0, 0, "", err
	}
	c, err := strconv.ParseInt(parts[2], 16, 32)
	if err != nil || c < 1 || c > maxGLSNBatch {
		return 0, 0, "", fmt.Errorf("cluster: bad glsn range count in %q", stmt)
	}
	return g, int(c), parts[3], nil
}

// --- state-change notification ---

// stateChanged wakes every handler waiting for grant or ticket state to
// advance. Broadcast is a close-and-replace of the notify channel, so
// waiters re-check their condition rather than consuming tokens.
func (n *Node) stateChanged() {
	n.notifyMu.Lock()
	close(n.notifyCh)
	n.notifyCh = make(chan struct{})
	n.notifyMu.Unlock()
}

// changeSignal returns a channel closed at the next state change. Grab
// the channel BEFORE checking the condition: a change that lands
// between the check and the wait then still wakes the waiter.
func (n *Node) changeSignal() <-chan struct{} {
	n.notifyMu.Lock()
	ch := n.notifyCh
	n.notifyMu.Unlock()
	return ch
}

// validateStatement is the voter-side admission check. A follower may
// receive a proposal before it has processed the commits ahead of it —
// a pipelined writer's next range is proposed as soon as the previous
// round commits — so statements ahead of local state wait for those
// commits before being refused.
func (n *Node) validateStatement(ctx context.Context, stmt []byte) error {
	g, _, ticketID, err := parseStatement(stmt)
	if err != nil {
		return err
	}
	deadline := time.Now().Add(2 * time.Second)
	syncAfter := time.Now().Add(300 * time.Millisecond)
	synced := false
	for {
		// Take the signal before reading state so a commit that lands
		// after the check still wakes the wait below.
		ch := n.changeSignal()
		n.mu.RLock()
		next := n.nextGLSN
		_, ticketKnown := n.acl.Ticket(ticketID)
		n.mu.RUnlock()
		switch {
		case g < next:
			return fmt.Errorf("cluster: statement assigns glsn %s, already past %s", g, next)
		case g == next && ticketKnown:
			return nil
		case g == next:
			return fmt.Errorf("%w: %q", ticket.ErrUnknownTicket, ticketID)
		}
		// Behind for longer than a commit normally takes means commits
		// were lost (e.g. this node was partitioned); pull missed grants
		// from the leader. How far behind says nothing: the commits
		// closing a gap of several ranges may still be in flight.
		if !synced && time.Now().After(syncAfter) {
			synced = true
			n.syncFromLeader(ctx) //nolint:errcheck // loop re-checks state
			continue
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("cluster: statement assigns glsn %s, expected %s", g, next)
		}
		// Event-driven wait: commits wake us immediately through the
		// notify channel; the timer only bounds the sync/deadline
		// escalation when no state change arrives.
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-ch:
		case <-time.After(50 * time.Millisecond):
		}
	}
}

// errGLSNGap indicates a certified statement ahead of local state:
// earlier commits were missed and must be synced first.
var errGLSNGap = errors.New("cluster: glsn gap, sync required")

// applyStatement applies a certified statement to local state. It is
// strict: applying glsn g requires every grant below g to be present,
// otherwise the follower would silently skip assignments it missed.
func (n *Node) applyStatement(stmt []byte) error {
	first, count, ticketID, err := parseStatement(stmt)
	if err != nil {
		return err
	}
	if err := n.applyGrantRange(first, count, ticketID); err != nil {
		return err
	}
	n.stateChanged()
	return nil
}

// applyGrantRange grants [first, first+count) to the ticket, appends it
// to the grant log and journals one entry for it. Of a partially
// applied range (a commit landing after the sync that covered it) only
// the new tail is granted, logged and journaled: the entry encodes
// before the state lock, so a head found applied under it sends the
// tail round again.
func (n *Node) applyGrantRange(first logmodel.GLSN, count int, ticketID string) error {
	end := first + logmodel.GLSN(count)
	for {
		r := grantRange{First: first, Count: int(end - first), TicketID: ticketID}
		retry := false
		err := n.mutate([]walEntry{{Kind: "grant", TicketID: ticketID, GLSN: r.First, Count: r.Count}}, func() (bool, error) {
			switch {
			case end <= n.nextGLSN:
				return false, nil // already applied
			case first > n.nextGLSN:
				return false, fmt.Errorf("%w: statement %s, local state at %s", errGLSNGap, first, n.nextGLSN)
			case first < n.nextGLSN:
				first, retry = n.nextGLSN, true
				return false, nil
			}
			if err := n.acl.Grant(ticketID, first, int(end-first)); err != nil {
				return false, err
			}
			n.nextGLSN = end
			n.grantLog = append(n.grantLog, r)
			telemetry.M.Gauge(telemetry.GaugeGLSNReserved).Max(int64(end - 1))
			return true, nil
		})
		if err != nil || !retry {
			return err
		}
	}
}

// --- ticket registration ---

type ticketRegisterBody struct {
	Ticket wireTicket `json:"ticket"`
}

// wireTicket is the JSON form of a ticket.
type wireTicket struct {
	ID     string `json:"id"`
	Holder string `json:"holder"`
	Ops    []int  `json:"ops"`
	Sig    []byte `json:"sig"`
}

// ToWire converts a ticket for transmission.
func ToWire(t *ticket.Ticket) wireTicket {
	ops := make([]int, len(t.Ops))
	for i, o := range t.Ops {
		ops[i] = int(o)
	}
	return wireTicket{ID: t.ID, Holder: t.Holder, Ops: ops, Sig: t.Sig}
}

func (w wireTicket) ticket() *ticket.Ticket {
	ops := make([]ticket.Op, len(w.Ops))
	for i, o := range w.Ops {
		ops[i] = ticket.Op(o)
	}
	return &ticket.Ticket{ID: w.ID, Holder: w.Holder, Ops: ops, Sig: w.Sig}
}

type ackBody struct {
	OK    bool   `json:"ok"`
	Error string `json:"error,omitempty"`
	// Overloaded marks an admission-control refusal (ErrOverloaded): the
	// store was shed at the door, not attempted and failed, so the
	// sender may retry with backoff.
	Overloaded bool `json:"overloaded,omitempty"`
}

// registerTicket admits and journals a ticket.
func (n *Node) registerTicket(body *ticketRegisterBody) error {
	err := n.mutate([]walEntry{{Kind: "ticket", Ticket: &body.Ticket}}, func() (bool, error) {
		if err := n.acl.Register(body.Ticket.ticket()); err != nil {
			return false, err
		}
		return true, nil
	})
	n.stateChanged() // wake voters waiting on the ticket to appear
	return err
}

func (n *Node) serveTickets(ctx context.Context) {
	for {
		msg, err := n.mb.ExpectType(ctx, MsgTicketRegister)
		if err != nil {
			return
		}
		var body ticketRegisterBody
		ack := ackBody{OK: true}
		if err := transport.Unmarshal(msg.Payload, &body); err != nil {
			ack = ackBody{Error: err.Error()}
		} else if err := n.registerTicket(&body); err != nil {
			ack = ackBody{Error: err.Error()}
		}
		n.mb.SendBody(ctx, msg.From, MsgTicketAck, msg.Session, &ack) //nolint:errcheck // client timeout handles loss
	}
}

// --- glsn sequencing ---

type glsnRangeReqBody struct {
	TicketID string `json:"ticket_id"`
	Count    int    `json:"count"`
}

type glsnRangeRespBody struct {
	First logmodel.GLSN `json:"first"`
	Count int           `json:"count"`
	Error string        `json:"error,omitempty"`
}

func (n *Node) serveGLSNRange(ctx context.Context) {
	for {
		msg, err := n.mb.ExpectType(ctx, MsgGLSNRange)
		if err != nil {
			return
		}
		var body glsnRangeReqBody
		resp := glsnRangeRespBody{}
		if err := transport.Unmarshal(msg.Payload, &body); err != nil {
			resp.Error = err.Error()
		} else if !n.isLeader() {
			resp.Error = ErrNotLeader.Error()
		} else if first, err := n.assignGLSNRange(ctx, msg.Session, body.TicketID, body.Count); err != nil {
			resp.Error = err.Error()
		} else {
			resp.First = first
			resp.Count = body.Count
		}
		n.mb.SendBody(ctx, msg.From, MsgGLSNRangeResp, msg.Session, &resp) //nolint:errcheck
	}
}

// assignGLSNRange reserves a contiguous glsn range for the ticket in a
// single agreement round: one proposal, one quorum of votes, one commit
// broadcast, and one journal entry cover count assignments. It is the
// sequencer's only round; a single glsn is a range of one.
func (n *Node) assignGLSNRange(ctx context.Context, session, ticketID string, count int) (logmodel.GLSN, error) {
	if count < 1 || count > maxGLSNBatch {
		return 0, fmt.Errorf("cluster: glsn range count %d outside [1, %d]", count, maxGLSNBatch)
	}
	n.seqMu.Lock()
	defer n.seqMu.Unlock()
	n.mu.RLock()
	first := n.nextGLSN
	n.mu.RUnlock()
	if err := n.acl.Authorize(ticketID, ticket.OpWrite, first); err != nil {
		return 0, err
	}
	stmt := glsnRangeStatement(first, count, ticketID)
	if _, err := n.propose(ctx, "seq/"+session, stmt); err != nil {
		return 0, err
	}
	if err := n.applyStatement(stmt); err != nil {
		return 0, err
	}
	return first, nil
}

// --- fragment storage ---

// ProvenanceStatement is the byte string a writer signs to make a
// record non-repudiable.
func ProvenanceStatement(g logmodel.GLSN, digest *big.Int) []byte {
	return []byte("prov|" + g.String() + "|" + digest.Text(62))
}

// batchItem is one record's slice of a store batch: this node's
// fragment and the record's accumulator material. A writer builds it
// from its fields; a node only ever reads one it decoded, whose raw run
// is all it carries. That run is the node's unit of record state: the
// node holds it (fragstore), journals it and replays it as the bytes
// the writer's encoding (appendBatchItem) produced.
type batchItem struct {
	Fragment logmodel.Fragment `json:"fragment"`
	// DigestExp is the record digest's exponent, the product of every
	// fragment's hash exponent; the node materializes the group element
	// X0^dexp lazily (see Node.Digest).
	DigestExp *big.Int `json:"dexp,omitempty"`
	// Provenance optionally carries the writer's Ed25519 signature over
	// the record digest (see ProvenanceStatement), making the record
	// non-repudiable: the writer cannot later deny having logged it.
	Provenance []byte `json:"provenance,omitempty"`
	// view.run is the item's encoding when it has one, and the fields
	// above are then unset. A decoder fills the rest of the view as
	// viewItem checks the run; a writer that encoded the item itself
	// sets only view.run.
	view itemView
}

// glsn returns the item's glsn, read from its run when it has one.
func (it *batchItem) glsn() logmodel.GLSN {
	if it.view.run == nil {
		return it.Fragment.GLSN
	}
	g, _ := binary.Uvarint(it.view.run) // the writer or viewItem checked the run
	return logmodel.GLSN(g)
}

// checkedView returns the item's view as viewItem checked it: the
// decoder's, or, for an item no decoder viewed, one made now from its
// encoding and kept on the item.
func (it *batchItem) checkedView() (*itemView, error) {
	if !it.view.viewed() {
		v, _, err := viewItem(appendBatchItem(nil, it), nil)
		if err != nil {
			return nil, err
		}
		it.view = v
	}
	return &it.view, nil
}

// heldView locates the fields of a held run, which viewItem checked
// when it was installed.
func heldView(run []byte) itemView {
	v, _ := walkItem(run, nil)
	return v
}

// admitItem is the A_node check every install passes, at the store door
// and at journal replay. It resolves each of the item's index keys to
// its attribute's slot in the node's sorted A_i, and refuses an item
// carrying an attribute outside A_i. Both lists are sorted, so this is
// one merge over them.
func (n *Node) admitItem(v *itemView) error {
	slot := 0
	for i := range v.keys {
		k := &v.keys[i]
		var ok bool
		if slot, ok = attrSlot(n.attrs, k.attr, slot); !ok {
			return fmt.Errorf("cluster: fragment %s carries attribute %q outside A_%s", v.glsn, k.attr, n.id)
		}
		k.slot = int32(slot)
	}
	return nil
}

// storeBatchBody is the body of MsgLogStoreBatch, the one store
// message: every fragment one write round sends this node.
type storeBatchBody struct {
	TicketID string      `json:"ticket_id"`
	Items    []batchItem `json:"items"`
	// scratch holds the decoded items; nil for a body not decoded.
	scratch *batchScratch
}

func (n *Node) serveStoreBatch(ctx context.Context) {
	for {
		msg, err := n.mb.ExpectType(ctx, MsgLogStoreBatch)
		if err != nil {
			return
		}
		// Handle each batch in its own goroutine: fragments can arrive
		// moments before this follower processes the sequencer commit
		// that grants their glsns, and that wait must not block the loop.
		n.wg.Add(1)
		go func(msg transport.Message) {
			defer n.wg.Done()
			n.handleStoreBatch(ctx, msg)
		}(msg)
	}
}

// handleStoreBatch stores a batch of fragments under one lock and one
// journal group commit, answering with a single ack — so a spooled batch
// replays through the client outbox like any other store.
func (n *Node) handleStoreBatch(ctx context.Context, msg transport.Message) {
	start := time.Now()
	var body storeBatchBody
	defer body.release() // after the ack: nothing reads the items then
	ack := ackBody{OK: true}
	bytes := int64(len(msg.Payload))
	decodeStart := time.Now()
	err := transport.Unmarshal(msg.Payload, &body)
	telemetry.M.Histogram(telemetry.HistIngestDecode).Since(decodeStart)
	if err != nil {
		ack = ackBody{Error: err.Error()}
	} else if err := n.adm.admit(len(body.Items), bytes); errors.Is(err, ErrOverloaded) {
		// Shed at the door: no grant wait, no lock, no journal touch. The
		// writer backs off and retries.
		ack = ackBody{Overloaded: true}
		telemetry.F.Record(telemetry.FlightEvent{Kind: telemetry.FlightOverload, Node: n.id, Peer: msg.From, Count: len(body.Items)})
	} else if err != nil {
		ack = ackBody{Error: err.Error()}
	} else {
		if err := n.storeWhenGranted(ctx, &body); err != nil {
			ack = ackBody{Error: err.Error()}
		}
		n.adm.release(bytes)
	}
	if ack.OK {
		telemetry.M.Counter(telemetry.CtrStoreBatches).Add(1)
		telemetry.M.Counter(telemetry.CtrStoreRecords).Add(int64(len(body.Items)))
		maxGLSN := int64(0)
		for i := range body.Items {
			if g := int64(body.Items[i].glsn()); g > maxGLSN {
				maxGLSN = g
			}
		}
		telemetry.M.Gauge(telemetry.GaugeGLSNDurable).Max(maxGLSN)
	}
	telemetry.M.Histogram(telemetry.HistIngestAckTurn).Since(start)
	n.mb.SendBody(ctx, msg.From, MsgLogAck, msg.Session, &ack) //nolint:errcheck
}

// storeWhenGranted runs storeFragmentBatch until it stops failing with
// ErrGLSNNotAssigned: the batch raced ahead of the sequencer commit
// that grants its glsns, so wait — woken by commits through the notify
// channel — rather than refuse. If no commit arrives within a wait
// slice the grant may have been missed entirely (this node was
// partitioned or down and the batch is an outbox replay), so pull
// missed grants from the leader once before waiting out the deadline.
func (n *Node) storeWhenGranted(ctx context.Context, body *storeBatchBody) error {
	defer telemetry.M.Histogram(telemetry.HistGrantWait).Since(time.Now())
	deadline := time.Now().Add(2 * time.Second)
	synced := false
	for {
		ch := n.changeSignal() // before the attempt: no lost wakeups
		err := n.storeFragmentBatch(body)
		if err == nil || !errors.Is(err, ErrGLSNNotAssigned) {
			return err
		}
		if time.Now().After(deadline) {
			return err
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-ch:
		case <-time.After(50 * time.Millisecond):
			if !synced {
				synced = true
				n.syncFromLeader(ctx) //nolint:errcheck // loop re-checks state
			}
		}
	}
}

// storeFragmentBatch validates every item of a decoded batch, then
// installs them all under one state-lock acquisition and journals them
// as one group commit. It is all-or-nothing up front: any invalid item
// refuses the whole batch before state changes, so a client never has
// to puzzle out a partial ack. Only fragments for glsns the cluster
// granted to this ticket are accepted, which keeps a writer from
// overwriting foreign records. The group's commit runs off the state
// lock (see mutate), so one batch's disk write overlaps the next
// batch's install.
func (n *Node) storeFragmentBatch(body *storeBatchBody) error {
	if len(body.Items) == 0 {
		return errors.New("cluster: empty store batch")
	}
	// A memory-only node journals nothing, so it builds no entries.
	var entries []walEntry
	if n.journal != nil {
		entries = make([]walEntry, len(body.Items))
	}
	for i := range body.Items {
		v, err := body.Items[i].checkedView()
		if err != nil {
			return fmt.Errorf("cluster: store item %d: %w", i, err)
		}
		if err := n.acl.Authorize(body.TicketID, ticket.OpWrite, v.glsn); err != nil {
			return err
		}
		if !n.acl.HasGrant(body.TicketID, v.glsn) {
			return fmt.Errorf("%w: %s for ticket %q", ErrGLSNNotAssigned, v.glsn, body.TicketID)
		}
		if err := n.admitItem(v); err != nil {
			return err
		}
		if !v.hasDigestExp() {
			return fmt.Errorf("cluster: store item %s lacks its digest exponent", v.glsn)
		}
		// The journal carries the item as shipped; replay admits and
		// installs it as this batch does.
		if entries != nil {
			entries[i] = walEntry{Kind: "frag", Item: &body.Items[i]}
		}
	}
	return n.mutate(entries, func() (bool, error) {
		for i := range body.Items {
			n.frags.install(&body.Items[i].view, n.id)
		}
		telemetry.M.Counter(telemetry.CtrWitnessUpdates).Add(int64(len(body.Items)))
		return true, nil
	})
}

// --- fragment reads ---

type readBody struct {
	TicketID string        `json:"ticket_id"`
	GLSN     logmodel.GLSN `json:"glsn"`
}

type fragResponseBody struct {
	Fragment logmodel.Fragment `json:"fragment"`
	Error    string            `json:"error,omitempty"`
}

func (n *Node) serveRead(ctx context.Context) {
	for {
		msg, err := n.mb.ExpectType(ctx, MsgLogRead)
		if err != nil {
			return
		}
		var body readBody
		var resp fragResponseBody
		if err := transport.Unmarshal(msg.Payload, &body); err != nil {
			resp.Error = err.Error()
		} else if frag, err := n.readFragment(body.TicketID, body.GLSN); err != nil {
			resp.Error = err.Error()
		} else {
			resp.Fragment = frag
		}
		n.mb.SendBody(ctx, msg.From, MsgLogFragment, msg.Session, resp) //nolint:errcheck
	}
}

func (n *Node) readFragment(ticketID string, g logmodel.GLSN) (logmodel.Fragment, error) {
	if err := n.acl.Authorize(ticketID, ticket.OpRead, g); err != nil {
		return logmodel.Fragment{}, err
	}
	frag, ok := n.Fragment(g)
	if !ok {
		return logmodel.Fragment{}, fmt.Errorf("%w: %s", ErrUnknownGLSN, g)
	}
	return frag, nil
}

// --- fragment deletion ---

func (n *Node) serveDelete(ctx context.Context) {
	for {
		msg, err := n.mb.ExpectType(ctx, MsgLogDelete)
		if err != nil {
			return
		}
		var body readBody // same shape: ticket + glsn
		ack := ackBody{OK: true}
		if err := transport.Unmarshal(msg.Payload, &body); err != nil {
			ack = ackBody{Error: err.Error()}
		} else if err := n.deleteFragment(body.TicketID, body.GLSN); err != nil {
			ack = ackBody{Error: err.Error()}
		}
		n.mb.SendBody(ctx, msg.From, MsgLogAck, msg.Session, &ack) //nolint:errcheck
	}
}

func (n *Node) deleteFragment(ticketID string, g logmodel.GLSN) error {
	if err := n.acl.Authorize(ticketID, ticket.OpDelete, g); err != nil {
		return err
	}
	return n.mutate([]walEntry{{Kind: "delete", GLSN: g}}, func() (bool, error) {
		if !n.frags.remove(g) {
			return false, fmt.Errorf("%w: %s", ErrUnknownGLSN, g)
		}
		return true, nil
	})
}

// --- store access for sibling subsystems (integrity, audit) ---

// Fragment returns the stored fragment for a glsn, decoded from the
// held run.
func (n *Node) Fragment(g logmodel.GLSN) (logmodel.Fragment, bool) {
	n.mu.RLock()
	run, ok := n.frags.get(g)
	n.mu.RUnlock()
	if !ok {
		return logmodel.Fragment{}, false
	}
	return fragmentOf(run), true
}

// VisitFragments calls fn with the values of each fragment the node
// holds among glsns, or of every fragment it holds when glsns is nil,
// in ascending glsn order. The values map is reused from call to call:
// fn must not keep it. The held runs are collected under the read lock
// and decoded outside it, so a scan never holds up a writer; a record
// overwritten or deleted meanwhile is visited as it was when collected
// (its run is never modified, and its arena chunk never reused). An
// error from fn ends the scan and is returned.
func (n *Node) VisitFragments(glsns []logmodel.GLSN, fn func(logmodel.GLSN, map[logmodel.Attr]logmodel.Value) error) error {
	type held struct {
		g   logmodel.GLSN
		run []byte
	}
	n.mu.RLock()
	var recs []held
	if glsns == nil {
		recs = make([]held, 0, n.frags.len())
		n.frags.each(func(g logmodel.GLSN, run []byte) { recs = append(recs, held{g, run}) })
	} else {
		recs = make([]held, 0, len(glsns))
		for _, g := range glsns {
			if run, ok := n.frags.get(g); ok {
				recs = append(recs, held{g, run})
			}
		}
	}
	n.mu.RUnlock()
	if glsns != nil {
		// The table walks in glsn order; a caller's list may not.
		slices.SortFunc(recs, func(a, b held) int { return cmp.Compare(a.g, b.g) })
	}
	values := make(map[logmodel.Attr]logmodel.Value)
	// Attribute names repeat across fragments: intern them rather than
	// allocate a key per value.
	names := make(map[string]logmodel.Attr)
	for _, h := range recs {
		clear(values)
		eachValue(h.run, func(a []byte, val rawValue) {
			name, ok := names[string(a)]
			if !ok {
				name = logmodel.Attr(a)
				names[string(name)] = name
			}
			values[name] = val.value()
		})
		if err := fn(h.g, values); err != nil {
			return err
		}
	}
	return nil
}

// Digest returns the record digest for a glsn: the group element
// X0^dexp of the writer-shipped digest exponent, which circulation
// compares with and provenance signs. The first call decodes dexp from
// the held run and pays one fixed-base exponentiation outside the state
// lock; the element is cached only if g still holds the same run
// (fragstore.cacheElem), so an overwrite or delete in between drops it
// with the old content.
func (n *Node) Digest(g logmodel.GLSN) (*big.Int, bool) {
	n.mu.RLock()
	run, ok := n.frags.get(g)
	elem := n.frags.elem(g)
	n.mu.RUnlock()
	if !ok {
		return nil, false
	}
	if elem != nil {
		return elem, true
	}
	exp := bigOf(heldView(run).dexp)
	if exp == nil {
		return nil, false
	}
	elem = n.accParams.PowX0(exp)
	n.mu.Lock()
	n.frags.cacheElem(g, run, elem)
	n.mu.Unlock()
	return elem, true
}

// Provenance returns the writer's non-repudiation signature for a glsn,
// when the writer supplied one. The signature is a slice of the held
// run, which is never modified; callers must not modify it either.
func (n *Node) Provenance(g logmodel.GLSN) ([]byte, bool) {
	n.mu.RLock()
	run, ok := n.frags.get(g)
	n.mu.RUnlock()
	if !ok {
		return nil, false
	}
	v := heldView(run)
	if v.prov == nil {
		return nil, false
	}
	return v.prov[:len(v.prov):len(v.prov)], true
}

// VerifyProvenance checks a writer's non-repudiation signature: the
// digest stored for the record, signed under the writer's public key.
// Returns an error if the record, digest, or signature is missing or
// the signature does not verify.
func (n *Node) VerifyProvenance(g logmodel.GLSN, writer ed25519.PublicKey) error {
	digest, haveDigest := n.Digest(g)
	sig, haveSig := n.Provenance(g)
	if !haveDigest {
		return fmt.Errorf("%w: no digest for %s", ErrUnknownGLSN, g)
	}
	if !haveSig {
		return fmt.Errorf("cluster: record %s carries no provenance signature", g)
	}
	if !verifyStatement(writer, ProvenanceStatement(g, digest), sig) {
		return fmt.Errorf("cluster: provenance of %s does not verify", g)
	}
	return nil
}

// GLSNs returns every stored glsn in ascending order.
func (n *Node) GLSNs() []logmodel.GLSN {
	n.mu.RLock()
	defer n.mu.RUnlock()
	out := make([]logmodel.GLSN, 0, n.frags.len())
	n.frags.each(func(g logmodel.GLSN, _ []byte) { out = append(out, g) })
	return out
}

// TamperFragment overwrites a stored fragment's attribute value without
// any authorization — a test-only hook simulating a compromised node
// (paper §4.1). It holds a fresh run re-encoded with the new value; the
// record's digest exponent, and the digest element already
// materialized from it, are left as they were. It returns false if the
// glsn or attribute is absent.
func (n *Node) TamperFragment(g logmodel.GLSN, attr logmodel.Attr, val logmodel.Value) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	run, ok := n.frags.get(g)
	if !ok {
		return false
	}
	v := heldView(run)
	frag := fragmentOf(run)
	if _, ok := frag.Values[attr]; !ok {
		return false
	}
	frag.Values[attr] = val
	item := batchItem{Fragment: frag, DigestExp: bigOf(v.dexp), Provenance: v.prov}
	tv, _, err := viewItem(appendBatchItem(nil, &item), nil)
	if err != nil || n.admitItem(&tv) != nil {
		return false
	}
	n.frags.set(g, tv.run, tv.keys)
	return true
}

// AccessTable exposes the node's replicated ACL for consistency checks.
func (n *Node) AccessTable() *ticket.AccessTable { return n.acl }

// Sign signs arbitrary bytes under the node's cluster signing key; used
// by the audit engine to certify query results.
func (n *Node) Sign(data []byte) []byte { return ed25519.Sign(n.signer, data) }

// TicketAllows checks that a registered ticket permits the operation
// class, without reference to a particular glsn. The audit engine uses
// it to admit query requests.
func (n *Node) TicketAllows(ticketID string, op ticket.Op) error {
	tk, ok := n.acl.Ticket(ticketID)
	if !ok {
		return fmt.Errorf("%w: %q", ticket.ErrUnknownTicket, ticketID)
	}
	if !tk.Allows(op) {
		return fmt.Errorf("%w: ticket %q lacks %v", ticket.ErrNotAuthorized, ticketID, op)
	}
	return nil
}
