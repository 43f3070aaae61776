// Package core assembles the complete DLA system of the paper —
// transport, cluster nodes, audit service, and integrity service — into
// a single deployable unit with a small API. This is the entry point the
// examples and command-line tools build on.
//
// A Deployment is the paper's Figure 2 in miniature: n DLA nodes
// (fragment stores + sequencer + audit executors + integrity ring) over
// a network, application clients u_j that log records, and auditors that
// run confidential queries.
package core

import (
	"context"
	"crypto/rand"
	"errors"
	"fmt"
	"io"
	"path/filepath"
	"sync"

	"confaudit/internal/audit"
	"confaudit/internal/cluster"
	"confaudit/internal/integrity"
	"confaudit/internal/logmodel"
	"confaudit/internal/mathx"
	"confaudit/internal/storage"
	"confaudit/internal/ticket"
	"confaudit/internal/transport"
)

// Options configure a deployment.
type Options struct {
	// Partition is the attribute partition; required.
	Partition *logmodel.Partition
	// Group is the commutative-crypto group (default mathx.Oakley768).
	Group *mathx.Group
	// Bootstrap tunes key sizes and the first glsn.
	Bootstrap cluster.BootstrapOptions
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
	// Rand is the entropy source (default crypto/rand).
	Rand io.Reader
}

// Deployment is a running DLA cluster.
type Deployment struct {
	boot   *cluster.Bootstrap
	net    transport.Network
	memNet *transport.MemNetwork // non-nil when we own it
	nodes  map[string]*cluster.Node
	mbs    []*transport.Mailbox

	cancel context.CancelFunc
	wg     sync.WaitGroup
}

// Deploy provisions keys and parameters, starts every DLA node, and
// launches the audit and integrity services on each.
func Deploy(opts Options) (*Deployment, error) {
	if opts.Partition == nil {
		return nil, errors.New("core: nil partition")
	}
	group := opts.Group
	if group == nil {
		group = mathx.Oakley768
	}
	rng := opts.Rand
	if rng == nil {
		rng = rand.Reader
	}
	boot := opts.Material
	if boot == nil {
		var err error
		if boot, err = cluster.NewBootstrap(rng, opts.Partition, group, opts.Bootstrap); err != nil {
			return nil, fmt.Errorf("core: bootstrap: %w", err)
		}
	}
	d := &Deployment{
		boot:  boot,
		net:   opts.Network,
		nodes: make(map[string]*cluster.Node, len(boot.Roster)),
	}
	if d.net == nil {
		d.memNet = transport.NewMemNetwork()
		d.net = d.memNet
	}
	ctx, cancel := context.WithCancel(context.Background())
	d.cancel = cancel
	for _, id := range boot.Roster {
		ep, err := d.net.Endpoint(id)
		if err != nil {
			cancel()
			return nil, fmt.Errorf("core: attaching node %s: %w", id, err)
		}
		mb := transport.NewMailbox(ep)
		d.mbs = append(d.mbs, mb)
		cfg := boot.NodeConfig(id)
		if opts.DataDir != "" {
			sOpts := storage.Options{Backend: storage.BackendDisk, Dir: filepath.Join(opts.DataDir, id)}
			st, err := storage.Open(sOpts, boot.AccParams, nil)
			if err != nil {
				cancel()
				return nil, fmt.Errorf("core: node %s: %w", id, err)
			}
			cfg.Storage = st
		}
		cfg.Admission = opts.Admission
		node, err := cluster.New(cfg, mb)
		if err != nil {
			if cfg.Storage != nil {
				cfg.Storage.Close() //nolint:errcheck // error path
			}
			cancel()
			return nil, fmt.Errorf("core: node %s: %w", id, err)
		}
		node.Start(ctx)
		d.nodes[id] = node
		d.wg.Add(3)
		go func(node *cluster.Node) {
			defer d.wg.Done()
			audit.Serve(ctx, node)
		}(node)
		go func(node *cluster.Node) {
			defer d.wg.Done()
			integrity.Serve(ctx, node.Mailbox(), boot.Roster, boot.AccParams, node) //nolint:errcheck
		}(node)
		go func(node *cluster.Node) {
			defer d.wg.Done()
			integrity.ServeRequests(ctx, node.Mailbox(), boot.Roster, boot.AccParams, node, node.GLSNs) //nolint:errcheck
		}(node)
	}
	return d, nil
}

// Close stops every node and releases the network (when owned).
func (d *Deployment) Close() error {
	d.cancel()
	for _, mb := range d.mbs {
		mb.Close() //nolint:errcheck
	}
	if d.memNet != nil {
		d.memNet.Close() //nolint:errcheck
	}
	for _, n := range d.nodes {
		n.Wait()
		n.CloseStorage() //nolint:errcheck // best-effort flush on shutdown
	}
	d.wg.Wait()
	return nil
}

// Bootstrap exposes the cluster's provisioning material.
func (d *Deployment) Bootstrap() *cluster.Bootstrap { return d.boot }

// Network exposes the transport hosting the deployment so additional
// clients (users, auditors, tooling) can attach endpoints.
func (d *Deployment) Network() transport.Network { return d.net }

// Node returns a running node by ID (tests and tooling).
func (d *Deployment) Node(id string) (*cluster.Node, bool) {
	n, ok := d.nodes[id]
	return n, ok
}

// Roster returns the DLA node IDs in order.
func (d *Deployment) Roster() []string { return append([]string(nil), d.boot.Roster...) }

// NewUser attaches an application-subsystem client with a fresh ticket
// and registers it on the cluster.
func (d *Deployment) NewUser(ctx context.Context, id, ticketID string, ops ...ticket.Op) (*cluster.Client, error) {
	if len(ops) == 0 {
		ops = []ticket.Op{ticket.OpWrite, ticket.OpRead}
	}
	ep, err := d.net.Endpoint(id)
	if err != nil {
		return nil, fmt.Errorf("core: attaching user %s: %w", id, err)
	}
	mb := transport.NewMailbox(ep)
	tk, err := d.boot.Issuer.Issue(ticketID, id, ops...)
	if err != nil {
		mb.Close() //nolint:errcheck
		return nil, err
	}
	c, err := cluster.OpenClient(mb, cluster.ClientConfig{
		Roster:      d.boot.Roster,
		Partition:   d.boot.Partition,
		Accumulator: d.boot.AccParams,
		Ticket:      tk,
	})
	if err != nil {
		mb.Close() //nolint:errcheck
		return nil, err
	}
	if err := c.RegisterTicket(ctx); err != nil {
		mb.Close() //nolint:errcheck
		return nil, err
	}
	return c, nil
}

// NewAuditor attaches an auditing client with a read ticket registered
// on the cluster.
func (d *Deployment) NewAuditor(ctx context.Context, id, ticketID string) (*audit.Auditor, error) {
	ep, err := d.net.Endpoint(id)
	if err != nil {
		return nil, fmt.Errorf("core: attaching auditor %s: %w", id, err)
	}
	mb := transport.NewMailbox(ep)
	tk, err := d.boot.Issuer.Issue(ticketID, id, ticket.OpRead)
	if err != nil {
		mb.Close() //nolint:errcheck
		return nil, err
	}
	c, err := cluster.OpenClient(mb, cluster.ClientConfig{
		Roster:      d.boot.Roster,
		Partition:   d.boot.Partition,
		Accumulator: d.boot.AccParams,
		Ticket:      tk,
	})
	if err != nil {
		mb.Close() //nolint:errcheck
		return nil, err
	}
	if err := c.RegisterTicket(ctx); err != nil {
		mb.Close() //nolint:errcheck
		return nil, err
	}
	return audit.NewAuditor(mb, d.boot.Roster[0], tk.ID), nil
}

// CheckIntegrity runs the §4.1 circulation sweep from the given node
// over the listed glsns (all stored glsns when none are given).
func (d *Deployment) CheckIntegrity(ctx context.Context, nodeID string, glsns ...logmodel.GLSN) (*integrity.Report, error) {
	node, ok := d.nodes[nodeID]
	if !ok {
		return nil, fmt.Errorf("core: unknown node %q", nodeID)
	}
	if len(glsns) == 0 {
		glsns = node.GLSNs()
	}
	return integrity.CheckAll(ctx, node.Mailbox(), d.boot.Roster, d.boot.AccParams, node, glsns), nil
}
