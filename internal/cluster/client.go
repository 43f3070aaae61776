package cluster

import (
	"context"
	"crypto/ed25519"
	"errors"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"confaudit/internal/crypto/accumulator"
	"confaudit/internal/logmodel"
	"confaudit/internal/resilience"
	"confaudit/internal/telemetry"
	"confaudit/internal/ticket"
	"confaudit/internal/transport"
)

// Client is an application-subsystem node u_j's handle on the DLA
// cluster: it registers its ticket, obtains glsns from the sequencer,
// splits records into per-node fragments, and distributes them together
// with the one-way-accumulator digest (paper §2, §4.1).
//
// A client can optionally run a failure detector (ClientConfig.Health)
// and a durable outbox (ClientConfig.OutboxPath): fragments destined for
// a node the detector considers dead are spooled instead of erroring,
// and replayed when the node comes back, so Log degrades to eventual
// delivery under node loss instead of failing.
type Client struct {
	mb     *transport.Mailbox
	roster []string
	part   *logmodel.Partition
	acc    *accumulator.Params
	tk     *ticket.Ticket
	enc    *recordEncoder

	outbox *resilience.Outbox
	det    *resilience.Detector
	cancel context.CancelFunc // stops the detector and replay loops; nil without one
	wg     sync.WaitGroup

	session atomic.Uint64
}

// ClientConfig configures a cluster client for OpenClient, the only
// way to build one: every optional facility is installed there, before
// the client can send anything.
type ClientConfig struct {
	// Roster lists the DLA node IDs (required, non-empty). The first
	// entry is the sequencer leader.
	Roster []string
	// Partition maps record attributes to roster nodes (required).
	Partition *logmodel.Partition
	// Accumulator holds the one-way accumulator parameters used for
	// record digests (required).
	Accumulator *accumulator.Params
	// Ticket authorizes this client's operations (required).
	Ticket *ticket.Ticket
	// Signer, when set, signs every stored record's digest with this
	// Ed25519 key for non-repudiation (optional).
	Signer ed25519.PrivateKey
	// OutboxPath, when non-empty, opens a durable spool at that path so
	// fragments bound for dead nodes are journaled and replayed instead
	// of failing the store (optional).
	OutboxPath string
	// Health, when set, runs a heartbeat failure detector over the
	// roster from OpenClient until Close; with an outbox, a peer seen
	// alive again gets its spooled fragments replayed (optional).
	Health *resilience.DetectorConfig
}

// Validate checks the required fields.
func (cfg ClientConfig) Validate() error {
	if cfg.Partition == nil {
		return errors.New("cluster: ClientConfig.Partition is required")
	}
	if cfg.Accumulator == nil {
		return errors.New("cluster: ClientConfig.Accumulator is required")
	}
	if cfg.Ticket == nil {
		return errors.New("cluster: ClientConfig.Ticket is required")
	}
	if len(cfg.Roster) == 0 {
		return errors.New("cluster: ClientConfig.Roster must not be empty")
	}
	if cfg.Signer != nil && len(cfg.Signer) != ed25519.PrivateKeySize {
		return fmt.Errorf("cluster: ClientConfig.Signer is %d bytes, want %d", len(cfg.Signer), ed25519.PrivateKeySize)
	}
	return nil
}

// OpenClient builds a cluster client from a validated configuration,
// opening the outbox and starting the health detector when configured.
// A client with either must be closed with Close; the caller keeps
// ownership of mb.
func OpenClient(mb *transport.Mailbox, cfg ClientConfig) (*Client, error) {
	if mb == nil {
		return nil, errors.New("cluster: nil mailbox")
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	c := &Client{
		mb:     mb,
		roster: append([]string(nil), cfg.Roster...),
		part:   cfg.Partition,
		acc:    cfg.Accumulator,
		tk:     cfg.Ticket,
		enc:    newRecordEncoder(cfg.Partition, cfg.Accumulator, cfg.Signer),
	}
	if cfg.OutboxPath != "" {
		ob, err := resilience.OpenOutbox(cfg.OutboxPath)
		if err != nil {
			return nil, err
		}
		c.outbox = ob
	}
	if cfg.Health != nil {
		ctx, cancel := context.WithCancel(context.Background())
		c.cancel = cancel
		c.det = resilience.NewDetector(c.mb, c.roster, *cfg.Health)
		trs := c.det.Subscribe(4 * len(c.roster))
		c.det.Start(ctx)
		c.wg.Add(1)
		go func() {
			defer c.wg.Done()
			c.replayLoop(ctx, trs)
		}()
	}
	return c, nil
}

// Close stops the health detector and the outbox replay loop, waits for
// them to exit, and then flushes and closes the outbox. Unacknowledged
// entries stay on disk for the next client opened on the same path.
func (c *Client) Close() error {
	if c.cancel != nil {
		c.cancel()
		c.det.Wait()
	}
	c.wg.Wait()
	if c.outbox == nil {
		return nil
	}
	return c.outbox.Close()
}

// OutboxLen reports the number of spooled fragments (0 without an
// outbox).
func (c *Client) OutboxLen() int {
	if c.outbox == nil {
		return 0
	}
	return c.outbox.Len()
}

// HealthView snapshots the roster's liveness as seen by this client's
// detector (nil without ClientConfig.Health).
func (c *Client) HealthView() resilience.HealthView {
	if c.det == nil {
		return nil
	}
	return c.det.View()
}

// replayLoop watches liveness transitions and replays the outbox to
// peers that come back. A failed replay keeps its entries spooled; the
// next alive transition (or an explicit ReplayOutbox call) retries.
func (c *Client) replayLoop(ctx context.Context, trs <-chan resilience.Transition) {
	for {
		select {
		case <-ctx.Done():
			return
		case tr := <-trs:
			if tr.To != resilience.StatusAlive || c.outbox == nil {
				continue
			}
			c.ReplayOutbox(ctx, tr.Peer) //nolint:errcheck // retried on next transition
		}
	}
}

// ReplayOutbox resends every spooled entry addressed to peer. Each entry
// goes through the store round's delivery (deliverStore) under the
// default AppendOptions, so an admission refusal backs off and retries
// and a failed send or missing ack is resent. Replay stops at the first
// failure, leaving the rest spooled. The entries delivered are then
// removed in one spool rewrite, on the failure path too: a rewrite costs
// two fsyncs, far more than a resend. A crash before that rewrite only
// replays them again, and a replayed store is an idempotent overwrite.
// Returns the number delivered.
func (c *Client) ReplayOutbox(ctx context.Context, peer string) (int, error) {
	if c.outbox == nil {
		return 0, nil
	}
	opts := AppendOptions{}.withDefaults()
	var delivered []uint64
	var err error
	for _, e := range c.outbox.For(peer) {
		first, _ := strconv.ParseUint(e.Tag, 10, 64)
		msg := transport.Message{To: e.To, Type: e.Type, Payload: e.Payload}
		if err = c.deliverStore(ctx, msg, logmodel.GLSN(first), 0, opts, false); err != nil {
			err = fmt.Errorf("cluster: replaying to %s: %w", peer, err)
			break
		}
		delivered = append(delivered, e.Seq)
		telemetry.M.Counter(telemetry.CtrOutboxReplay).Add(1)
	}
	if len(delivered) > 0 {
		if rerr := c.outbox.Remove(delivered...); err == nil {
			err = rerr
		}
	}
	return len(delivered), err
}

// spool journals one store message for later replay to msg.To, as its
// binary payload bytes: replay resends them verbatim under the original
// message type and awaits the node's single MsgLogAck.
func (c *Client) spool(msg transport.Message, g logmodel.GLSN) error {
	_, err := c.outbox.Append(resilience.OutboxEntry{
		To:      msg.To,
		Type:    msg.Type,
		Payload: msg.Payload,
		Tag:     strconv.FormatUint(uint64(g), 10),
	})
	if err != nil {
		return fmt.Errorf("cluster: spooling fragment for %s: %w", msg.To, err)
	}
	telemetry.M.Counter(telemetry.CtrOutboxSpooled).Add(1)
	return nil
}

// Ticket returns the client's ticket.
func (c *Client) Ticket() *ticket.Ticket { return c.tk }

func (c *Client) nextSession(prefix string) string {
	return prefix + "/" + c.mb.ID() + "/" + strconv.FormatUint(c.session.Add(1), 10)
}

// RegisterTicket registers the client's ticket on every DLA node.
func (c *Client) RegisterTicket(ctx context.Context) error {
	session := c.nextSession("reg")
	body := ticketRegisterBody{Ticket: ToWire(c.tk)}
	for _, node := range c.roster {
		if err := c.mb.SendBody(ctx, node, MsgTicketRegister, session, body); err != nil {
			return err
		}
	}
	for range c.roster {
		msg, err := c.mb.Expect(ctx, MsgTicketAck, session)
		if err != nil {
			return fmt.Errorf("cluster: awaiting ticket ack: %w", err)
		}
		var ack ackBody
		if err := transport.Unmarshal(msg.Payload, &ack); err != nil {
			return err
		}
		if !ack.OK {
			return fmt.Errorf("cluster: node %s refused ticket: %s", msg.From, ack.Error)
		}
	}
	return nil
}

// RequestGLSNRange reserves count contiguous glsns from the sequencer
// leader in a single agreement round, returning the first. It is the
// only sequencer request; a single glsn is a range of one.
func (c *Client) RequestGLSNRange(ctx context.Context, count int) (logmodel.GLSN, error) {
	defer telemetry.M.Histogram(telemetry.HistClientGLSN).Since(time.Now())
	session := c.nextSession("glsnrange")
	if err := c.mb.SendBody(ctx, c.roster[0], MsgGLSNRange, session, &glsnRangeReqBody{TicketID: c.tk.ID, Count: count}); err != nil {
		return 0, err
	}
	resp, err := c.mb.Expect(ctx, MsgGLSNRangeResp, session)
	if err != nil {
		return 0, fmt.Errorf("cluster: awaiting glsn range: %w", err)
	}
	var body glsnRangeRespBody
	if err := transport.Unmarshal(resp.Payload, &body); err != nil {
		return 0, err
	}
	if body.Error != "" {
		return 0, fmt.Errorf("cluster: sequencer refused range: %s", body.Error)
	}
	return body.First, nil
}

// Log writes one event record to the cluster: obtain a glsn, fragment
// the record per the partition, and store each fragment with the
// record's accumulator material on its node. Returns the assigned glsn.
// It is the batch-of-one case of LogBatch.
func (c *Client) Log(ctx context.Context, values map[logmodel.Attr]logmodel.Value) (logmodel.GLSN, error) {
	gs, err := c.LogBatch(ctx, []map[logmodel.Attr]logmodel.Value{values})
	if err != nil {
		return 0, err
	}
	return gs[0], nil
}

// LogBatch writes several event records along the one write path every
// writer shares: a single sequencer agreement reserves a contiguous glsn
// range (RequestGLSNRange), then one store round (storeRange) sends each
// DLA node one message carrying all of its fragments, which the node
// stores under one lock with one journal group commit and answers with
// one ack. The round runs under the Appender's default policy
// (AppendOptions zero value): an ErrOverloaded refusal backs off (2ms,
// doubling to 250ms) and retries until ctx ends, while a batch beyond a
// node's admission capacity fails at once; a failed send or an ack
// missing for 10s is resent, under the same glsns, up to 8 times. With an
// outbox enabled, a node's whole batch spools for replay when the node is
// dead or the send fails. Returns the assigned glsns in input order.
func (c *Client) LogBatch(ctx context.Context, records []map[logmodel.Attr]logmodel.Value) (glsns []logmodel.GLSN, err error) {
	if len(records) == 0 {
		return nil, nil
	}
	defer telemetry.M.Histogram(telemetry.HistClientLogBatch).Since(time.Now())
	sp, ctx := telemetry.StartSpan(ctx, c.nextSession("logbatch"), c.mb.ID(), "cluster.log_batch")
	sp.SetCount(len(records))
	defer func() { sp.End(err) }()
	first, err := c.RequestGLSNRange(ctx, len(records))
	if err != nil {
		return nil, err
	}
	return c.storeRange(ctx, first, records, AppendOptions{}.withDefaults())
}

// storeRange is the write path's one store round, shared by LogBatch and
// the Appender: it stores records under their already-granted glsns
// [first, first+len(records)) and returns those glsns once every node
// has acked (or spooled) its slice. The client's recordEncoder makes
// one pass over each record: every node is shipped its fragment and the
// record's digest exponent, and materializes the digest element
// lazily, keeping the fixed-base evaluation off the write path. Provenance signs the digest group element, so only a
// signing writer computes it, to sign it; it still ships the exponent,
// and every node re-derives the element from it. Each node then
// receives one MsgLogStoreBatch with all of its items, the nodes
// concurrently (see deliverStore). Reused glsns make resends idempotent
// — a node that already stored the items overwrites them with
// identical content — so a lost ack never double-assigns or
// double-counts a record (at-most-once-per-glsn).
func (c *Client) storeRange(ctx context.Context, first logmodel.GLSN, records []map[logmodel.Attr]logmodel.Value, opts AppendOptions) ([]logmodel.GLSN, error) {
	glsns := make([]logmodel.GLSN, len(records))
	for i := range glsns {
		glsns[i] = first + logmodel.GLSN(i)
	}
	msgs, err := c.enc.messages(c.tk.ID, first, records)
	if err != nil {
		return nil, fmt.Errorf("cluster: encoding store batch: %w", err)
	}
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
	)
	for _, msg := range msgs {
		wg.Add(1)
		go func(msg transport.Message) {
			defer wg.Done()
			if err := c.deliverStore(ctx, msg, first, len(records), opts, true); err != nil {
				mu.Lock()
				if firstErr == nil {
					firstErr = fmt.Errorf("cluster: storing batch on %s: %w", msg.To, err)
				}
				mu.Unlock()
			}
		}(msg)
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	telemetry.M.Gauge(telemetry.GaugeGLSNAcked).Max(int64(glsns[len(glsns)-1]))
	telemetry.M.Counter(telemetry.CtrRecordsLogged).Add(int64(len(records)))
	return glsns, nil
}

// deliverStore sends one store message to msg.To and waits for the
// node's ack: a node's slice of a store round, or a spooled one that
// ReplayOutbox resends verbatim. It is the write path's only store-ack
// wait, and it absorbs admission refusals and transient failures:
//
//   - ErrOverloaded: exponential backoff, retry without bound (the
//     context is the only stop);
//   - transient send/ack failures: retry up to maxStoreRetries, each
//     ack wait bounded by opts.AckTimeout; with spool set and an outbox
//     enabled, spool the message instead (eventual delivery). Replay
//     clears spool: its message is already spooled;
//   - every retry resends the same glsns under a fresh session, so a
//     duplicate store is an idempotent overwrite and a stale ack can
//     never be credited to a newer attempt.
//
// first and count, the message's glsn range, label flight events and the
// spool entry; count is 0 for a replay.
func (c *Client) deliverStore(ctx context.Context, msg transport.Message, first logmodel.GLSN, count int, opts AppendOptions, spool bool) error {
	node := msg.To
	spool = spool && c.outbox != nil
	backoff := storeRetryBackoff
	transient := 0
	resend := func(outcome string) {
		telemetry.F.Record(telemetry.FlightEvent{
			Kind: telemetry.FlightResend, Peer: node,
			GLSN: uint64(first), Count: count, Outcome: outcome,
		})
	}
	for {
		msg.Session = c.nextSession("store")
		if spool && c.det != nil && c.det.Status(node) == resilience.StatusDead {
			return c.spool(msg, first)
		}
		roundStart := time.Now()
		if err := c.mb.Send(ctx, msg); err != nil {
			if ctx.Err() != nil || errors.Is(err, transport.ErrUnknownNode) {
				return err
			}
			if spool {
				return c.spool(msg, first)
			}
			if transient++; transient > maxStoreRetries {
				return err
			}
			resend(telemetry.ErrClass(err))
			if err := sleepBackoff(ctx, &backoff); err != nil {
				return err
			}
			continue
		}
		actx, cancel := context.WithTimeout(ctx, opts.AckTimeout)
		resp, err := c.mb.Expect(actx, MsgLogAck, msg.Session)
		cancel()
		if err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			if transient++; transient > maxStoreRetries {
				return fmt.Errorf("cluster: awaiting batch ack: %w", err)
			}
			resend(telemetry.ErrClass(err))
			if err := sleepBackoff(ctx, &backoff); err != nil {
				return err
			}
			continue
		}
		var ack ackBody
		if err := transport.Unmarshal(resp.Payload, &ack); err != nil {
			return err
		}
		rtt := time.Since(roundStart)
		telemetry.M.Histogram(telemetry.HistIngestStoreRTT).Observe(rtt)
		telemetry.M.Histogram(telemetry.HistIngestStoreRTT + "." + node).Observe(rtt)
		switch {
		case ack.OK:
			return nil
		case ack.Overloaded:
			telemetry.M.Counter(telemetry.CtrIngestRetries).Add(1)
			resend("overloaded")
			if err := sleepBackoff(ctx, &backoff); err != nil {
				return err
			}
		default:
			return fmt.Errorf("node refused batch: %s", ack.Error)
		}
	}
}

// sleepBackoff waits one backoff step (doubling, capped at 250ms) or
// until ctx ends.
func sleepBackoff(ctx context.Context, backoff *time.Duration) error {
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-time.After(*backoff):
	}
	if *backoff *= 2; *backoff > 250*time.Millisecond {
		*backoff = 250 * time.Millisecond
	}
	return nil
}

// Delete removes the client's record from every node. Requires the
// ticket to carry the delete operation and the per-glsn grant.
func (c *Client) Delete(ctx context.Context, g logmodel.GLSN) error {
	session := c.nextSession("del")
	for _, node := range c.roster {
		if err := c.mb.SendBody(ctx, node, MsgLogDelete, session, readBody{TicketID: c.tk.ID, GLSN: g}); err != nil {
			return err
		}
	}
	for range c.roster {
		msg, err := c.mb.Expect(ctx, MsgLogAck, session)
		if err != nil {
			return fmt.Errorf("cluster: awaiting delete ack: %w", err)
		}
		var ack ackBody
		if err := transport.Unmarshal(msg.Payload, &ack); err != nil {
			return err
		}
		if !ack.OK {
			return fmt.Errorf("cluster: node %s refused delete: %s", msg.From, ack.Error)
		}
	}
	return nil
}

// Read fetches the client's own record back from the cluster by reading
// every node's fragment and reassembling (requires per-glsn read
// authorization, i.e. the record was logged under this ticket).
func (c *Client) Read(ctx context.Context, g logmodel.GLSN) (logmodel.Record, error) {
	session := c.nextSession("read")
	for _, node := range c.roster {
		if err := c.mb.SendBody(ctx, node, MsgLogRead, session, readBody{TicketID: c.tk.ID, GLSN: g}); err != nil {
			return logmodel.Record{}, err
		}
	}
	frags := make([]logmodel.Fragment, 0, len(c.roster))
	for range c.roster {
		msg, err := c.mb.Expect(ctx, MsgLogFragment, session)
		if err != nil {
			return logmodel.Record{}, fmt.Errorf("cluster: awaiting fragment: %w", err)
		}
		var resp fragResponseBody
		if err := transport.Unmarshal(msg.Payload, &resp); err != nil {
			return logmodel.Record{}, err
		}
		if resp.Error != "" {
			return logmodel.Record{}, fmt.Errorf("cluster: node %s refused read: %s", msg.From, resp.Error)
		}
		frags = append(frags, resp.Fragment)
	}
	return logmodel.Reassemble(frags)
}
