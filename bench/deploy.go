package main

import (
	"context"
	"fmt"

	"confaudit/internal/audit"
	"confaudit/internal/cluster"
	"confaudit/internal/core"
	"confaudit/internal/logmodel"
	"confaudit/internal/transport"
	"confaudit/internal/workload"
	"confaudit/pkg/dla"
)

const nodes = 4

func partition() (*logmodel.Partition, error) {
	schema, err := workload.ECommerceSchema(3)
	if err != nil {
		return nil, err
	}
	return workload.RoundRobinPartition(schema, nodes)
}

// session is the part of dla.Session the workloads drive. *dla.Session
// satisfies it; coreSession stands in where the facade cannot express
// the deployment (see deploy).
type session interface {
	Appender(ctx context.Context, opts dla.AppendOptions) (*dla.Appender, error)
	Read(ctx context.Context, g dla.GLSN) (dla.Record, error)
	Query(ctx context.Context, criteria string) ([]dla.GLSN, error)
	QueryCertified(ctx context.Context, criteria string) ([]dla.GLSN, string, *dla.ResultCert, error)
	Aggregate(ctx context.Context, criteria string, kind dla.AggKind, attr dla.Attr) (float64, error)
	Close() error
}

// coreSession is dla.Connect re-done over a core.Deployment.
type coreSession struct {
	mb      *transport.Mailbox
	client  *cluster.Client
	auditor *audit.Auditor
}

func (s *coreSession) Appender(ctx context.Context, opts dla.AppendOptions) (*dla.Appender, error) {
	return s.client.NewAppender(ctx, opts)
}
func (s *coreSession) Read(ctx context.Context, g dla.GLSN) (dla.Record, error) {
	return s.client.Read(ctx, g)
}
func (s *coreSession) Query(ctx context.Context, criteria string) ([]dla.GLSN, error) {
	return s.auditor.Query(ctx, criteria)
}
func (s *coreSession) QueryCertified(ctx context.Context, criteria string) ([]dla.GLSN, string, *dla.ResultCert, error) {
	return s.auditor.QueryCertified(ctx, criteria)
}
func (s *coreSession) Aggregate(ctx context.Context, criteria string, kind dla.AggKind, attr dla.Attr) (float64, error) {
	return s.auditor.Aggregate(ctx, criteria, kind, attr)
}
func (s *coreSession) Close() error { return s.mb.Close() }

// deployment is one running 4-node cluster.
type deployment struct {
	core   *core.Deployment
	facade *dla.Cluster          // nil when core.Deploy was needed
	tcp    *transport.TCPNetwork // non-nil on loopback TCP
}

// deploy starts the cluster. pkg/dla is used whenever it can express
// the options; loopback TCP (core.Options.Network) and a redeploy over
// an existing DataDir (core.Options.Material) are not reachable through
// ClusterOptions, so those go to core.Deploy directly.
func deploy(w workloadSpec, dataDir string, material *cluster.Bootstrap) (*deployment, error) {
	part, err := partition()
	if err != nil {
		return nil, err
	}
	if !w.TCP && material == nil {
		cl, err := dla.Deploy(dla.ClusterOptions{Partition: part, DataDir: dataDir})
		if err != nil {
			return nil, err
		}
		return &deployment{core: cl.Deployment(), facade: cl}, nil
	}
	opts := core.Options{Partition: part, DataDir: dataDir, Material: material}
	d := &deployment{}
	if w.TCP {
		addrs := make(map[string]string, nodes)
		for _, id := range part.Nodes() {
			addrs[id] = "127.0.0.1:0"
		}
		d.tcp = transport.NewTCPNetwork(addrs)
		opts.Network = d.tcp
	}
	if d.core, err = core.Deploy(opts); err != nil {
		return nil, err
	}
	return d, nil
}

func (d *deployment) close() error {
	if d.facade != nil {
		return d.facade.Close()
	}
	return d.core.Close()
}

// connect attaches a session named id with ticket "T-"+id. register is
// false only after a redeploy, where the journal already holds the
// ticket and a second registration would be refused as a duplicate.
func (d *deployment) connect(ctx context.Context, id string, register bool) (session, error) {
	if d.facade != nil && register {
		return dla.Connect(ctx, d.facade, dla.SessionConfig{ID: id, TicketID: "T-" + id})
	}
	boot := d.core.Bootstrap()
	if d.tcp != nil {
		d.tcp.Register(id, "127.0.0.1:0")
	}
	ep, err := d.core.Network().Endpoint(id)
	if err != nil {
		return nil, fmt.Errorf("attaching %s: %w", id, err)
	}
	mb := transport.NewMailbox(ep)
	tk, err := boot.Issuer.Issue("T-"+id, id, dla.OpRead, dla.OpWrite)
	if err != nil {
		mb.Close() //nolint:errcheck // error path
		return nil, err
	}
	c, err := cluster.OpenClient(mb, cluster.ClientConfig{
		Roster: boot.Roster, Partition: boot.Partition, Accumulator: boot.AccParams, Ticket: tk,
	})
	if err != nil {
		mb.Close() //nolint:errcheck // error path
		return nil, err
	}
	if register {
		if err := c.RegisterTicket(ctx); err != nil {
			mb.Close() //nolint:errcheck // error path
			return nil, err
		}
	}
	return &coreSession{mb: mb, client: c, auditor: audit.NewAuditor(mb, boot.Roster[0], tk.ID)}, nil
}

// lostAcks counts acked glsns missing a fragment on any node.
func (d *deployment) lostAcks(acked []dla.GLSN) int {
	var ns []*cluster.Node
	for _, id := range d.core.Roster() {
		n, ok := d.core.Node(id)
		if !ok {
			return len(acked)
		}
		ns = append(ns, n)
	}
	lost := 0
	for _, g := range acked {
		for _, n := range ns {
			if _, ok := n.Fragment(g); !ok {
				lost++
				break
			}
		}
	}
	return lost
}

// journalKind reports the storage backend and flush policy the facade
// chose for a DataDir ("wal/always" today), or "memory".
func (d *deployment) journalKind() string {
	n, ok := d.core.Node(d.core.Roster()[0])
	if !ok {
		return "unknown"
	}
	st := n.StorageStatus()
	if st.Dir == "" {
		return st.Backend
	}
	// cluster.Config.WALSync is left empty by core.Deploy, which the
	// node documents as storage.SyncAlways.
	return st.Backend + "/always"
}
