// Package chaos is a deterministic fault-injection harness for the DLA
// cluster. It starts every roster node through core.StartNode — storage,
// audit, and integrity services on bare endpoints, exactly as dlad and
// core.Deploy attach them — over a MemNetwork configured with a seeded
// drop rate and latency jitter, and scripts node crashes and restarts
// mid-workload.
// Nodes journal to per-node segment stores so a restarted node recovers
// the state it held at the crash.
//
// The fault-schedule test suite lives behind the `chaos` build tag so
// the tier-1 run stays fast:
//
//	go test -run Chaos -tags chaos ./internal/chaos/
package chaos

import (
	"context"
	"fmt"
	"io"
	"path/filepath"
	"sync"
	"time"

	"confaudit/internal/cluster"
	"confaudit/internal/core"
	"confaudit/internal/logmodel"
	"confaudit/internal/mathx"
	"confaudit/internal/resilience"
	"confaudit/internal/storage"
	"confaudit/internal/storage/faultfs"
	"confaudit/internal/ticket"
	"confaudit/internal/transport"
	"confaudit/internal/workload"
)

// Options configure a chaos cluster.
type Options struct {
	// Nodes is the roster size (default 5).
	Nodes int
	// Undefined is the number of application-private schema attributes
	// (default 6).
	Undefined int
	// Seed drives drop decisions and latency jitter; a given seed
	// reproduces the same fault pattern run to run.
	Seed int64
	// DropRate is the per-message drop probability.
	DropRate float64
	// Jitter is the maximum extra delivery latency.
	Jitter time.Duration
	// DataRoot is where per-node segment stores (and client outboxes)
	// live; required for nodes to survive a Crash/Restart cycle.
	DataRoot string
	// Health tunes every participant's failure detector.
	Health resilience.DetectorConfig
	// Admission bounds every node's ingest admission (token-bucket rate
	// + inflight bytes); the zero value admits everything.
	Admission cluster.AdmissionConfig
	// Disk tunes each node's segment store (Backend and Dir are filled
	// per node).
	Disk storage.Options
	// NewFS, when set, supplies the filesystem seam for each node's
	// segment store — the torture suites hand back per-node
	// faultfs.Injectors here. nil means the real OS.
	NewFS func(id string) faultfs.FS
}

// Cluster is a running chaos deployment.
type Cluster struct {
	Boot   *cluster.Bootstrap
	Net    *transport.MemNetwork
	Schema *logmodel.Schema
	opts   Options

	mu      sync.Mutex
	nodes   map[string]*core.RunningNode // running nodes only
	clients []*core.Client
}

// New provisions a chaos cluster: schema, round-robin partition, node
// keys, and the fault-injecting network. No node is started; call
// StartAll or StartNode.
func New(rng io.Reader, opts Options) (*Cluster, error) {
	if opts.Nodes <= 0 {
		opts.Nodes = 5
	}
	if opts.Undefined <= 0 {
		opts.Undefined = 6
	}
	schema, err := workload.ECommerceSchema(opts.Undefined)
	if err != nil {
		return nil, err
	}
	part, err := workload.RoundRobinPartition(schema, opts.Nodes)
	if err != nil {
		return nil, err
	}
	boot, err := cluster.NewBootstrap(rng, part, mathx.Oakley768)
	if err != nil {
		return nil, err
	}
	memOpts := []transport.MemOption{transport.WithSeed(opts.Seed)}
	if opts.DropRate > 0 {
		memOpts = append(memOpts, transport.WithDropRate(opts.DropRate, opts.Seed))
	}
	if opts.Jitter > 0 {
		memOpts = append(memOpts, transport.WithLatencyJitter(opts.Jitter))
	}
	return &Cluster{
		Boot:   boot,
		Net:    transport.NewMemNetwork(memOpts...),
		Schema: schema,
		opts:   opts,
		nodes:  make(map[string]*core.RunningNode),
	}, nil
}

// StartAll boots every roster node.
func (c *Cluster) StartAll() error {
	for _, id := range c.Boot.Roster {
		if err := c.StartNode(id); err != nil {
			return err
		}
	}
	return nil
}

// StartNode boots (or, after a Crash, reboots) one roster node through
// core.StartNode: an endpoint on the chaos network, a segment store
// under DataRoot, and the storage, audit, and integrity services.
func (c *Cluster) StartNode(id string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.nodes[id]; ok {
		return fmt.Errorf("chaos: node %s already running", id)
	}
	ep, err := c.Net.Endpoint(id)
	if err != nil {
		return err
	}
	cfg := c.Boot.NodeConfig(id)
	cfg.Health = c.opts.Health
	cfg.Admission = c.opts.Admission
	var (
		store *storage.Options
		fsys  faultfs.FS
	)
	if c.opts.DataRoot != "" {
		sOpts := c.opts.Disk
		sOpts.Dir = filepath.Join(c.opts.DataRoot, id)
		store = &sOpts
		if c.opts.NewFS != nil {
			fsys = c.opts.NewFS(id)
		}
	}
	n, err := core.StartNode(ep, cfg, store, fsys)
	if err != nil {
		return err
	}
	c.nodes[id] = n
	return nil
}

// Node returns a running node's handle, or nil while it is down.
func (c *Cluster) Node(id string) *cluster.Node {
	c.mu.Lock()
	defer c.mu.Unlock()
	if n, ok := c.nodes[id]; ok {
		return n.Node()
	}
	return nil
}

// Crash kills one running node mid-flight (RunningNode.Stop) and
// returns once every node goroutine has exited and its store is
// released, so a Restart can reopen the journal.
func (c *Cluster) Crash(id string) error {
	c.mu.Lock()
	n, ok := c.nodes[id]
	delete(c.nodes, id)
	c.mu.Unlock()
	if !ok {
		return fmt.Errorf("chaos: node %s is not running", id)
	}
	// A fault-poisoned store errors on close by design; the handle is
	// released either way and Restart recovers from disk, so the crash
	// itself still succeeded.
	n.Stop() //nolint:errcheck
	return nil
}

// Restart boots a crashed node again; the journal replays the state it
// held at the crash.
func (c *Cluster) Restart(id string) error { return c.StartNode(id) }

// StopAll tears the whole deployment down: clients, running nodes, and
// the network.
func (c *Cluster) StopAll() {
	c.mu.Lock()
	clients := c.clients
	c.clients = nil
	ids := make([]string, 0, len(c.nodes))
	for id := range c.nodes {
		ids = append(ids, id)
	}
	c.mu.Unlock()
	for _, cl := range clients {
		cl.Close() //nolint:errcheck // teardown
	}
	for _, id := range ids {
		c.Crash(id) //nolint:errcheck // a node crashed meanwhile is fine
	}
	c.Net.Close() //nolint:errcheck
}

// NewClient attaches an application client through core.Connect under a
// fresh, registered ticket, with a durable outbox under DataRoot and a
// running failure detector (so fragments for dead nodes spool and
// replay). StopAll closes it.
func (c *Cluster) NewClient(ctx context.Context, clientID, ticketID string, ops ...ticket.Op) (*core.Client, error) {
	ep, err := c.Net.Endpoint(clientID)
	if err != nil {
		return nil, err
	}
	cfg := cluster.ClientConfig{Health: &c.opts.Health}
	if c.opts.DataRoot != "" {
		cfg.OutboxPath = filepath.Join(c.opts.DataRoot, clientID+".outbox")
	}
	cl, err := core.Connect(ctx, ep, c.Boot, cfg, ticketID, ops...)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	c.clients = append(c.clients, cl)
	c.mu.Unlock()
	return cl, nil
}

// Event is one step of a scripted fault schedule.
type Event struct {
	// After is the delay since schedule start.
	After time.Duration
	// Name labels the step in error reports.
	Name string
	// Run performs the step (crash a node, push workload, assert).
	Run func() error
}

// RunSchedule fires the events in order at their offsets. An event that
// comes due while an earlier one is still running fires immediately
// after it.
func RunSchedule(ctx context.Context, events []Event) error {
	start := time.Now()
	for _, ev := range events {
		if wait := ev.After - time.Since(start); wait > 0 {
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(wait):
			}
		}
		if err := ev.Run(); err != nil {
			return fmt.Errorf("chaos: event %q: %w", ev.Name, err)
		}
	}
	return nil
}
