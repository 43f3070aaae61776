// Package dla is the public surface of the confidential distributed
// log-auditing system. It wraps the internal cluster client and auditor
// behind a small, stable API: Deploy a cluster (or attach to one an
// operator already runs), Connect a Session, then Log records and run
// confidential queries.
//
//	cl, _ := dla.Deploy(dla.ClusterOptions{Partition: part})
//	defer cl.Close()
//	s, _ := dla.Connect(ctx, cl, dla.SessionConfig{ID: "u0", TicketID: "T1"})
//	defer s.Close()
//	g, _ := s.Log(ctx, map[dla.Attr]dla.Value{"id": dla.String("U1")})
//	matches, _ := s.Query(ctx, `id = "U1"`)
//
// Session.Log is one full quorum round trip per record — right for
// occasional events, wrong for a firehose. Callers with many records in
// hand should use Session.LogBatch (one glsn reservation and one store
// round per node for the whole slice). Callers ingesting a continuous
// stream should open a Session.Appender, which batches concurrent
// Appends client-side and pipelines several batches through the quorum
// machinery. A node over its ingest admission budget refuses a batch;
// the Appender backs off and retries it, so the refusal reaches callers
// only as backpressure, an Append that blocks:
//
//	ap, _ := s.Appender(ctx, dla.AppendOptions{})
//	ack, _ := ap.Append(ctx, map[dla.Attr]dla.Value{"id": dla.String("U1")})
//	g, _ := ack.GLSN() // resolves once the record is stored everywhere
//	_ = ap.Close(ctx)  // drains: every ack resolves before Close returns
//
// Everything underneath stays in internal/ packages; the type aliases
// below re-export the vocabulary types so callers never import them.
package dla

import (
	"context"
	"crypto/ed25519"
	"errors"
	"fmt"

	"confaudit/internal/audit"
	"confaudit/internal/cluster"
	"confaudit/internal/core"
	"confaudit/internal/integrity"
	"confaudit/internal/logmodel"
	"confaudit/internal/resilience"
	"confaudit/internal/ticket"
)

// Vocabulary types re-exported from the internal packages. Aliases keep
// the internal packages out of caller import paths while preserving
// type identity with the rest of the module.
type (
	// Attr names a log-record attribute.
	Attr = logmodel.Attr
	// Value is a typed attribute value; build with String, Int, Float.
	Value = logmodel.Value
	// GLSN is a global log sequence number.
	GLSN = logmodel.GLSN
	// Record is a reassembled log record.
	Record = logmodel.Record
	// Partition assigns schema attributes to DLA nodes.
	Partition = logmodel.Partition
	// AggKind selects an aggregate function for Session.Aggregate.
	AggKind = audit.AggKind
	// ResultCert certifies a query result; check with VerifyResult.
	ResultCert = audit.ResultCert
	// TransactionReport is the outcome of Session.CheckTransaction.
	TransactionReport = audit.TransactionReport
	// IntegrityReport is the outcome of Cluster.CheckIntegrity.
	IntegrityReport = integrity.Report
	// HealthConfig tunes the client-side failure detector.
	HealthConfig = resilience.DetectorConfig
	// HealthView is a point-in-time snapshot of peer health.
	HealthView = resilience.HealthView
	// Op is a ticket capability.
	Op = ticket.Op
	// PublicKey is a node's Ed25519 key; it verifies node signatures on
	// certified results.
	PublicKey = ed25519.PublicKey
	// Appender is the streaming write path; open one with
	// Session.Appender.
	Appender = cluster.Appender
	// AppendOptions tune an Appender (batch size, linger, inflight
	// window, ack timeout).
	AppendOptions = cluster.AppendOptions
	// Ack is the per-record future an Appender.Append returns.
	Ack = cluster.Ack
	// AdmissionConfig bounds a node's ingest admission; set on
	// ClusterOptions.Admission.
	AdmissionConfig = cluster.AdmissionConfig
	// AdmissionStatus snapshots a node's admission state (token fill,
	// inflight bytes, rejection counts).
	AdmissionStatus = cluster.AdmissionStatus
)

// ErrAppenderClosed is returned by Appender.Append after Close began.
var ErrAppenderClosed = cluster.ErrAppenderClosed

// Aggregate kinds for Session.Aggregate.
const (
	AggCount = audit.AggCount
	AggSum   = audit.AggSum
	AggMax   = audit.AggMax
	AggMin   = audit.AggMin
	AggAvg   = audit.AggAvg
)

// Ticket capabilities for SessionConfig.Ops.
const (
	OpRead  = ticket.OpRead
	OpWrite = ticket.OpWrite
)

// String builds a string attribute value.
func String(s string) Value { return logmodel.String(s) }

// Int builds an integer attribute value.
func Int(i int64) Value { return logmodel.Int(i) }

// Float builds a floating-point attribute value.
func Float(f float64) Value { return logmodel.Float(f) }

// VerifyResult checks a certified query result against the cluster's
// node verification keys (Cluster.PeerKeys). A single compromised
// responder cannot forge a certificate that verifies.
func VerifyResult(keys map[string]PublicKey, session string, glsns []GLSN, cert *ResultCert) error {
	return audit.VerifyResult(keys, session, glsns, cert)
}

// ClusterOptions configure Deploy.
type ClusterOptions struct {
	// Partition is the attribute partition over the DLA nodes; required.
	Partition *Partition
	// DataDir, when set, journals node state for durable redeploys.
	DataDir string
	// Admission bounds every node's ingest admission (token-bucket
	// records/sec + inflight payload bytes). The zero value admits
	// everything; with bounds set, an overloaded node refuses a store
	// instead of queueing it, and the writer backs off and retries.
	Admission AdmissionConfig
}

// Cluster is a running DLA deployment.
type Cluster struct {
	d *core.Deployment
}

// Deploy provisions keys, starts every DLA node in-process, and
// launches the audit and integrity services.
func Deploy(opts ClusterOptions) (*Cluster, error) {
	d, err := core.Deploy(core.Options{Partition: opts.Partition, DataDir: opts.DataDir, Admission: opts.Admission})
	if err != nil {
		return nil, err
	}
	return &Cluster{d: d}, nil
}

// Close stops every node and releases the cluster's resources.
func (c *Cluster) Close() error { return c.d.Close() }

// Roster returns the DLA node IDs in order.
func (c *Cluster) Roster() []string { return c.d.Roster() }

// PeerKeys returns each node's public verification key, for checking
// certified query results with VerifyResult.
func (c *Cluster) PeerKeys() map[string]PublicKey { return c.d.Bootstrap().PeerKeys }

// CheckIntegrity runs the accumulator circulation sweep from the given
// node over the listed glsns (all stored glsns when none are given).
func (c *Cluster) CheckIntegrity(ctx context.Context, nodeID string, glsns ...GLSN) (*IntegrityReport, error) {
	return c.d.CheckIntegrity(ctx, nodeID, glsns...)
}

// Deployment exposes the underlying deployment for tooling and tests
// that need node-level access (e.g. fault injection). Application code
// should not need it.
func (c *Cluster) Deployment() *core.Deployment { return c.d }

// SessionConfig configures Connect.
type SessionConfig struct {
	// ID is the session's network identity; required.
	ID string
	// TicketID names the capability ticket issued for this session;
	// required.
	TicketID string
	// Ops are the ticket capabilities (default: read + write).
	Ops []Op
	// OutboxPath, when set, spools writes to dead nodes on disk and
	// replays them when the peer recovers. Requires Health.
	OutboxPath string
	// Health, when set, runs the client-side failure detector from
	// Connect until the session closes.
	Health *HealthConfig
}

// Session is a connected client: it logs records under its ticket and
// runs confidential auditing queries against the cluster.
type Session struct {
	c *core.Client
}

// Connect attaches a session to the cluster: it opens an endpoint,
// issues and registers the ticket, and — when configured — starts the
// health detector and outbox before any traffic flows.
func Connect(ctx context.Context, cl *Cluster, cfg SessionConfig) (*Session, error) {
	if cl == nil {
		return nil, errors.New("dla: nil cluster")
	}
	if cfg.ID == "" || cfg.TicketID == "" {
		return nil, errors.New("dla: SessionConfig.ID and TicketID are required")
	}
	ep, err := cl.d.Network().Endpoint(cfg.ID)
	if err != nil {
		return nil, fmt.Errorf("dla: attaching %s: %w", cfg.ID, err)
	}
	c, err := core.Connect(ctx, ep, cl.d.Bootstrap(), cluster.ClientConfig{OutboxPath: cfg.OutboxPath, Health: cfg.Health}, cfg.TicketID, cfg.Ops...)
	if err != nil {
		return nil, err
	}
	return &Session{c: c}, nil
}

// Log writes one record; the record is fragmented across the cluster
// so no single DLA node sees it whole. It is LogBatch with one record
// and shares its retry semantics.
func (s *Session) Log(ctx context.Context, values map[Attr]Value) (GLSN, error) {
	return s.c.Log(ctx, values)
}

// LogBatch writes records under one glsn reservation and one store
// round per node — the right call when a slice of records is already in
// hand. For continuous streams, use Appender.
//
// The store round is the Appender's, run with the zero AppendOptions.
// A batch a node refuses while over its admission budget is retried
// after a backoff of 2ms, doubling to at most 250ms, until ctx ends. A failed
// send or an ack missing for 10s is resent up to 8 times. Every resend
// reuses the reserved glsns, so it overwrites with identical content
// and never duplicates a record. Any other refusal fails the call,
// including a batch larger than a node's admission Burst or inflight
// byte cap, which no wait could admit; the reserved glsns are then
// burned.
func (s *Session) LogBatch(ctx context.Context, records []map[Attr]Value) ([]GLSN, error) {
	return s.c.LogBatch(ctx, records)
}

// Appender opens the streaming write path: concurrent Appends batch
// client-side (sealed by count, bytes, or linger time), batches
// pipeline through the quorum machinery up to AppendOptions.MaxInflight
// deep, most taking their glsns from a lease an earlier sequencer round
// granted, and each record's Ack future resolves with its glsn. A node's
// admission refusal is backed off and retried, so overload becomes
// backpressure on Append. The context bounds the appender's lifetime;
// Close drains it.
func (s *Session) Appender(ctx context.Context, opts AppendOptions) (*Appender, error) {
	return s.c.NewAppender(ctx, opts)
}

// Read reassembles a record this session's ticket grants access to.
func (s *Session) Read(ctx context.Context, g GLSN) (Record, error) {
	return s.c.Read(ctx, g)
}

// Query runs a confidential auditing criterion and returns the
// matching glsns; the session never sees non-matching fragments.
func (s *Session) Query(ctx context.Context, criteria string) ([]GLSN, error) {
	return s.c.Auditor().Query(ctx, criteria)
}

// QueryCertified runs a criterion and additionally returns the result
// certificate and the session it binds; check with VerifyResult.
func (s *Session) QueryCertified(ctx context.Context, criteria string) ([]GLSN, string, *ResultCert, error) {
	return s.c.Auditor().QueryCertified(ctx, criteria)
}

// Aggregate computes an aggregate over the records matching the
// criterion without revealing the matching records themselves.
func (s *Session) Aggregate(ctx context.Context, criteria string, kind AggKind, attr Attr) (float64, error) {
	return s.c.Auditor().Aggregate(ctx, criteria, kind, attr)
}

// CheckTransaction audits a transaction's events against its
// specification rule set R_T (paper eq. 2).
func (s *Session) CheckTransaction(ctx context.Context, tidAttr Attr, tidValue string, rules []string) (*TransactionReport, error) {
	return s.c.Auditor().CheckTransaction(ctx, tidAttr, tidValue, rules)
}

// Health reports the failure detector's view of the cluster, or nil
// when the session was connected without a HealthConfig.
func (s *Session) Health() HealthView { return s.c.HealthView() }

// Close stops the health detector, flushes the outbox, and releases
// the session's endpoint.
func (s *Session) Close() error { return s.c.Close() }
