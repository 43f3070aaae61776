// Package core is the one place a DLA node is assembled and a client
// attached. StartNode builds a node — fragment store + sequencer + audit
// executor + integrity ring, optionally journaled to a segment store —
// over a caller's endpoint and stops it in one fixed order; Connect
// attaches an application client or auditor under a freshly issued
// ticket. Deploy runs StartNode over every roster node of an
// in-process cluster, the paper's Figure 2 in miniature. The public
// facade pkg/dla, the dlad daemon and the chaos harness all build on
// these three functions.
package core

import (
	"context"
	"crypto/rand"
	"errors"
	"fmt"
	"path/filepath"
	"sync"

	"confaudit/internal/audit"
	"confaudit/internal/cluster"
	"confaudit/internal/integrity"
	"confaudit/internal/logmodel"
	"confaudit/internal/mathx"
	"confaudit/internal/storage"
	"confaudit/internal/storage/faultfs"
	"confaudit/internal/ticket"
	"confaudit/internal/transport"
)

// RunningNode is one started DLA node: the cluster node's server loops
// plus its audit and integrity services, all under one context.
type RunningNode struct {
	node   *cluster.Node
	cancel context.CancelFunc
	wg     sync.WaitGroup
}

// StartNode assembles and starts one DLA node over ep. cfg is the
// node's configuration (Bootstrap.NodeConfig plus the caller's Health
// and Admission); a non-nil store makes the node durable on the segment
// store those options describe, opened through fsys (nil means the real
// OS). On error everything StartNode opened, ep included, is closed
// again.
func StartNode(ep transport.Endpoint, cfg cluster.Config, store *storage.Options, fsys faultfs.FS) (*RunningNode, error) {
	mb := transport.NewMailbox(ep)
	if store != nil {
		sOpts := *store
		sOpts.Backend = storage.BackendDisk
		st, err := storage.Open(sOpts, cfg.AccParams, fsys)
		if err != nil {
			mb.Close() //nolint:errcheck // error path
			return nil, fmt.Errorf("core: node %s: %w", cfg.ID, err)
		}
		cfg.Storage = st
	}
	node, err := cluster.New(cfg, mb)
	if err != nil {
		if cfg.Storage != nil {
			cfg.Storage.Close() //nolint:errcheck // error path
		}
		mb.Close() //nolint:errcheck // error path
		return nil, fmt.Errorf("core: node %s: %w", cfg.ID, err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	n := &RunningNode{node: node, cancel: cancel}
	node.Start(ctx)
	n.wg.Add(3)
	go func() {
		defer n.wg.Done()
		audit.Serve(ctx, node)
	}()
	go func() {
		defer n.wg.Done()
		integrity.Serve(ctx, mb, cfg.Roster, cfg.AccParams, node) //nolint:errcheck
	}()
	go func() {
		defer n.wg.Done()
		integrity.ServeRequests(ctx, mb, cfg.Roster, cfg.AccParams, node, node.GLSNs) //nolint:errcheck
	}()
	return n, nil
}

// Node returns the running cluster node.
func (n *RunningNode) Node() *cluster.Node { return n.node }

// Stop shuts the node down: it cancels the node's context, closes its
// mailbox, waits for every node and service goroutine to exit, and only
// then closes the segment store, returning that error. A fault-poisoned
// store errors here by design; its handle is released either way.
func (n *RunningNode) Stop() error {
	n.cancel()
	n.node.Mailbox().Close() //nolint:errcheck // closing the endpoint is what stops the loops
	n.node.Wait()
	n.wg.Wait()
	return n.node.Close()
}

// Client is an attached client: the cluster client under its ticket,
// an auditor querying through the sequencer leader, and the mailbox
// both share.
type Client struct {
	*cluster.Client
	auditor *audit.Auditor
	mb      *transport.Mailbox
}

// Connect attaches a client over ep. It issues ticket ticketID with ops
// (read and write when none are given) to ep.ID() under boot's issuer,
// opens the cluster client with cfg — whose Roster, Partition,
// Accumulator and Ticket are filled from boot, so callers set only the
// optional fields — and registers the ticket on every node. ctx bounds
// the registration; a detector configured by cfg.Health runs until
// Close. On error ep is closed again.
func Connect(ctx context.Context, ep transport.Endpoint, boot *cluster.Bootstrap, cfg cluster.ClientConfig, ticketID string, ops ...ticket.Op) (*Client, error) {
	if len(ops) == 0 {
		ops = []ticket.Op{ticket.OpRead, ticket.OpWrite}
	}
	mb := transport.NewMailbox(ep)
	tk, err := boot.Issuer.Issue(ticketID, ep.ID(), ops...)
	if err != nil {
		mb.Close() //nolint:errcheck // error path
		return nil, err
	}
	cfg.Roster, cfg.Partition, cfg.Accumulator, cfg.Ticket = boot.Roster, boot.Partition, boot.AccParams, tk
	cl, err := cluster.OpenClient(mb, cfg)
	if err != nil {
		mb.Close() //nolint:errcheck // error path
		return nil, err
	}
	c := &Client{Client: cl, auditor: audit.NewAuditor(mb, boot.Roster[0], tk.ID), mb: mb}
	if err := cl.RegisterTicket(ctx); err != nil {
		c.Close() //nolint:errcheck // error path
		return nil, err
	}
	return c, nil
}

// Auditor returns the client's auditor, which runs confidential queries
// under the client's ticket.
func (c *Client) Auditor() *audit.Auditor { return c.auditor }

// Close closes the cluster client (stopping its health detector and
// flushing its outbox) and releases the client's endpoint.
func (c *Client) Close() error {
	err := c.Client.Close()
	if cerr := c.mb.Close(); err == nil {
		err = cerr
	}
	return err
}

// Options configure a deployment.
type Options struct {
	// Partition is the attribute partition; required.
	Partition *logmodel.Partition
	// Material optionally reuses existing provisioning material (keys,
	// accumulator parameters, issuer) instead of generating fresh keys.
	// Required when redeploying over a DataDir written by an earlier
	// deployment: journaled tickets verify only under the original
	// issuer key.
	Material *cluster.Bootstrap
	// Network hosts the deployment (default: fresh in-memory network).
	Network transport.Network
	// DataDir, when set, makes every node durable: node state is
	// journaled to a segment store under DataDir/<nodeID> and replayed
	// on redeploy.
	DataDir string
	// Admission bounds every node's ingest admission (token-bucket rate
	// + inflight bytes); the zero value admits everything.
	Admission cluster.AdmissionConfig
}

// Deployment is a running DLA cluster.
type Deployment struct {
	boot   *cluster.Bootstrap
	net    transport.Network
	memNet *transport.MemNetwork // non-nil when we own it
	nodes  map[string]*RunningNode
}

// Deploy provisions keys and parameters (the Oakley768 group, entropy
// from crypto/rand) unless opts.Material supplies them, and starts every
// DLA node. If a node fails to start, the nodes already started are
// stopped and an owned network is closed before the error is returned.
func Deploy(opts Options) (*Deployment, error) {
	if opts.Partition == nil {
		return nil, errors.New("core: nil partition")
	}
	boot := opts.Material
	if boot == nil {
		var err error
		if boot, err = cluster.NewBootstrap(rand.Reader, opts.Partition, mathx.Oakley768); err != nil {
			return nil, fmt.Errorf("core: bootstrap: %w", err)
		}
	}
	d := &Deployment{
		boot:  boot,
		net:   opts.Network,
		nodes: make(map[string]*RunningNode, len(boot.Roster)),
	}
	if d.net == nil {
		d.memNet = transport.NewMemNetwork()
		d.net = d.memNet
	}
	for _, id := range boot.Roster {
		if err := d.start(id, opts); err != nil {
			d.Close() //nolint:errcheck // the start error is the one to report
			return nil, err
		}
	}
	return d, nil
}

// start starts roster node id on the deployment's network.
func (d *Deployment) start(id string, opts Options) error {
	ep, err := d.net.Endpoint(id)
	if err != nil {
		return fmt.Errorf("core: attaching node %s: %w", id, err)
	}
	cfg := d.boot.NodeConfig(id)
	cfg.Admission = opts.Admission
	var store *storage.Options
	if opts.DataDir != "" {
		store = &storage.Options{Dir: filepath.Join(opts.DataDir, id)}
	}
	n, err := StartNode(ep, cfg, store, nil)
	if err != nil {
		return err
	}
	d.nodes[id] = n
	return nil
}

// Close stops every node, then releases the network (when owned). It
// returns the first error from closing a node's segment store.
func (d *Deployment) Close() error {
	var err error
	for _, id := range d.boot.Roster {
		if n, ok := d.nodes[id]; ok {
			if serr := n.Stop(); err == nil {
				err = serr
			}
		}
	}
	if d.memNet != nil {
		d.memNet.Close() //nolint:errcheck
	}
	return err
}

// Bootstrap exposes the cluster's provisioning material.
func (d *Deployment) Bootstrap() *cluster.Bootstrap { return d.boot }

// Network exposes the transport hosting the deployment so additional
// clients (users, auditors, tooling) can attach endpoints.
func (d *Deployment) Network() transport.Network { return d.net }

// Node returns a running node by ID (tests and tooling).
func (d *Deployment) Node(id string) (*cluster.Node, bool) {
	n, ok := d.nodes[id]
	if !ok {
		return nil, false
	}
	return n.node, true
}

// Roster returns the DLA node IDs in order.
func (d *Deployment) Roster() []string { return append([]string(nil), d.boot.Roster...) }

// CheckIntegrity runs the §4.1 circulation sweep from the given node
// over the listed glsns (all stored glsns when none are given).
func (d *Deployment) CheckIntegrity(ctx context.Context, nodeID string, glsns ...logmodel.GLSN) (*integrity.Report, error) {
	node, ok := d.Node(nodeID)
	if !ok {
		return nil, fmt.Errorf("core: unknown node %q", nodeID)
	}
	if len(glsns) == 0 {
		glsns = node.GLSNs()
	}
	return integrity.CheckAll(ctx, node.Mailbox(), d.boot.Roster, d.boot.AccParams, node, glsns), nil
}
