package cluster

import (
	"path/filepath"
	"strings"
	"testing"

	"confaudit/internal/logmodel"
	"confaudit/internal/resilience"
	"confaudit/internal/ticket"
	"confaudit/internal/transport"
)

func TestClientConfigValidate(t *testing.T) {
	boot := sharedBootstrap(t)
	full := ClientConfig{
		Roster:      boot.Roster,
		Partition:   boot.Partition,
		Accumulator: boot.AccParams,
		Ticket:      &ticket.Ticket{ID: "T"},
	}
	if err := full.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	cases := []struct {
		name   string
		mutate func(*ClientConfig)
		want   string
	}{
		{"no partition", func(c *ClientConfig) { c.Partition = nil }, "Partition"},
		{"no accumulator", func(c *ClientConfig) { c.Accumulator = nil }, "Accumulator"},
		{"no ticket", func(c *ClientConfig) { c.Ticket = nil }, "Ticket"},
		{"empty roster", func(c *ClientConfig) { c.Roster = nil }, "Roster"},
		{"short signer", func(c *ClientConfig) { c.Signer = boot.Signers["P0"][:63] }, "Signer"},
	}
	for _, tc := range cases {
		cfg := full
		tc.mutate(&cfg)
		err := cfg.Validate()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Validate() = %v, want error naming %s", tc.name, err, tc.want)
		}
	}
	if _, err := OpenClient(nil, full); err == nil {
		t.Error("OpenClient accepted a nil mailbox")
	}
}

func TestOpenClientWithOutboxAndHealth(t *testing.T) {
	tc := startCluster(t)
	ctx := testCtx(t)
	ep, err := tc.net.Endpoint("cfg-u")
	if err != nil {
		t.Fatal(err)
	}
	mb := transport.NewMailbox(ep)
	t.Cleanup(func() { mb.Close() }) //nolint:errcheck
	tk, err := tc.boot.Issuer.Issue("T-cfg", "cfg-u", ticket.OpWrite, ticket.OpRead)
	if err != nil {
		t.Fatal(err)
	}
	c, err := OpenClient(mb, ClientConfig{
		Roster:      tc.boot.Roster,
		Partition:   tc.boot.Partition,
		Accumulator: tc.boot.AccParams,
		Ticket:      tk,
		OutboxPath:  filepath.Join(t.TempDir(), "outbox"),
		Health:      &resilience.DetectorConfig{},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() }) //nolint:errcheck
	if c.OutboxLen() != 0 {
		t.Fatalf("fresh outbox reports %d entries", c.OutboxLen())
	}
	if c.HealthView() == nil {
		t.Fatal("configured health detector did not start")
	}
	if err := c.RegisterTicket(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Log(ctx, map[logmodel.Attr]logmodel.Value{"name": logmodel.String("n1")}); err != nil {
		t.Fatal(err)
	}
}
