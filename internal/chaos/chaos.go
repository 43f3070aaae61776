// Package chaos is a deterministic fault-injection harness for the DLA
// cluster. It assembles a full in-memory deployment — storage, audit,
// and integrity-circulation services on every roster node, all speaking
// through retrying endpoints — over a MemNetwork configured with a
// seeded drop rate and latency jitter, and scripts node crashes and
// restarts mid-workload. Nodes journal to per-node segment stores so a
// restarted node recovers the state it held at the crash.
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

	"confaudit/internal/audit"
	"confaudit/internal/cluster"
	"confaudit/internal/integrity"
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
	// Policy is the retry/circuit-breaker policy wrapped around every
	// endpoint.
	Policy resilience.Policy
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

	mu    sync.Mutex
	procs map[string]*proc
}

// proc is one running node and its service goroutines.
type proc struct {
	node   *cluster.Node
	mb     *transport.Mailbox
	cancel context.CancelFunc
	done   chan struct{}
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
	boot, err := cluster.NewBootstrap(rng, part, mathx.Oakley768, cluster.BootstrapOptions{})
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
		procs:  make(map[string]*proc),
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

// StartNode boots (or, after a Crash, reboots) one roster node: a
// retrying endpoint, a segment store under DataRoot, and the storage,
// audit, and integrity services.
func (c *Cluster) StartNode(id string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if p, ok := c.procs[id]; ok {
		select {
		case <-p.done:
		default:
			return fmt.Errorf("chaos: node %s already running", id)
		}
	}
	ep, err := c.Net.Endpoint(id)
	if err != nil {
		return err
	}
	mb := transport.NewMailbox(resilience.Wrap(ep, c.opts.Policy))
	cfg := c.Boot.NodeConfig(id)
	if c.opts.DataRoot != "" {
		// The segment store: opened (and thereby recovered) here, handed
		// to the node, closed by the node's CloseStorage on Crash.
		sOpts := c.opts.Disk
		sOpts.Backend = storage.BackendDisk
		sOpts.Dir = filepath.Join(c.opts.DataRoot, id)
		var fsys faultfs.FS
		if c.opts.NewFS != nil {
			fsys = c.opts.NewFS(id)
		}
		st, err := storage.Open(sOpts, c.Boot.AccParams, fsys)
		if err != nil {
			mb.Close() //nolint:errcheck
			return err
		}
		cfg.Storage = st
	}
	cfg.Health = c.opts.Health
	cfg.Admission = c.opts.Admission
	node, err := cluster.New(cfg, mb)
	if err != nil {
		if cfg.Storage != nil {
			cfg.Storage.Close() //nolint:errcheck
		}
		mb.Close() //nolint:errcheck
		return err
	}
	ctx, cancel := context.WithCancel(context.Background())
	node.Start(ctx)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); audit.Serve(ctx, node) }()
	go func() {
		defer wg.Done()
		integrity.Serve(ctx, node.Mailbox(), c.Boot.Roster, c.Boot.AccParams, node) //nolint:errcheck
	}()
	done := make(chan struct{})
	go func() {
		node.Wait()
		wg.Wait()
		close(done)
	}()
	c.procs[id] = &proc{node: node, mb: mb, cancel: cancel, done: done}
	return nil
}

// Node returns a running node's handle, or nil while it is down.
func (c *Cluster) Node(id string) *cluster.Node {
	c.mu.Lock()
	defer c.mu.Unlock()
	p, ok := c.procs[id]
	if !ok {
		return nil
	}
	select {
	case <-p.done:
		return nil
	default:
		return p.node
	}
}

// Crash kills one node mid-flight: its context is cancelled and its
// mailbox (hence endpoint) closed, then its store is released so a
// Restart can reopen the journal. Blocks until every node goroutine has
// exited.
func (c *Cluster) Crash(id string) error {
	c.mu.Lock()
	p, ok := c.procs[id]
	c.mu.Unlock()
	if !ok {
		return fmt.Errorf("chaos: node %s was never started", id)
	}
	p.cancel()
	p.mb.Close() //nolint:errcheck
	<-p.done
	// A fault-poisoned store errors on close by design; the handle is
	// released either way and Restart recovers from disk, so the crash
	// itself still succeeded.
	p.node.CloseStorage() //nolint:errcheck
	return nil
}

// Restart boots a crashed node again; the journal replays the state it
// held at the crash.
func (c *Cluster) Restart(id string) error { return c.StartNode(id) }

// StopAll tears the whole deployment down, network included.
func (c *Cluster) StopAll() {
	c.mu.Lock()
	ids := make([]string, 0, len(c.procs))
	for id := range c.procs {
		ids = append(ids, id)
	}
	c.mu.Unlock()
	for _, id := range ids {
		c.Crash(id) //nolint:errcheck // already-crashed nodes are fine
	}
	c.Net.Close() //nolint:errcheck
}

// NewClient attaches an application client under a fresh ticket, with a
// retrying endpoint, a durable outbox under DataRoot, and a running
// failure detector (so fragments for dead nodes spool and replay).
func (c *Cluster) NewClient(ctx context.Context, clientID, ticketID string, ops ...ticket.Op) (*cluster.Client, *transport.Mailbox, error) {
	ep, err := c.Net.Endpoint(clientID)
	if err != nil {
		return nil, nil, err
	}
	mb := transport.NewMailbox(resilience.Wrap(ep, c.opts.Policy))
	tk, err := c.Boot.Issuer.Issue(ticketID, clientID, ops...)
	if err != nil {
		mb.Close() //nolint:errcheck
		return nil, nil, err
	}
	cfg := cluster.ClientConfig{
		Roster:      c.Boot.Roster,
		Partition:   c.Boot.Partition,
		Accumulator: c.Boot.AccParams,
		Ticket:      tk,
	}
	if c.opts.DataRoot != "" {
		cfg.OutboxPath = filepath.Join(c.opts.DataRoot, clientID+".outbox")
	}
	cl, err := cluster.OpenClient(mb, cfg)
	if err != nil {
		mb.Close() //nolint:errcheck
		return nil, nil, err
	}
	if err := cl.StartHealth(ctx, c.opts.Health); err != nil {
		mb.Close() //nolint:errcheck
		return nil, nil, err
	}
	return cl, mb, nil
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
