package main

import (
	"crypto/rand"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"confaudit/internal/cluster"
	"confaudit/internal/logmodel"
	"confaudit/internal/mathx"
	"confaudit/internal/ticket"
)

func TestParseValueKinds(t *testing.T) {
	cases := []struct {
		in   string
		kind logmodel.Kind
	}{
		{"42", logmodel.KindInt},
		{"-7", logmodel.KindInt},
		{"3.14", logmodel.KindFloat},
		{"UDP", logmodel.KindString},
		{"12abc", logmodel.KindString},
		{"", logmodel.KindString},
	}
	for _, tc := range cases {
		if got := parseValue(tc.in); got.Kind != tc.kind {
			t.Errorf("parseValue(%q).Kind = %v, want %v", tc.in, got.Kind, tc.kind)
		}
	}
}

func newTestBootstrap(ex *logmodel.PaperExample) (*cluster.Bootstrap, error) {
	return cluster.NewBootstrap(rand.Reader, ex.Partition, mathx.Oakley768)
}

func TestCmdIssueEndToEnd(t *testing.T) {
	dir := t.TempDir()
	// Reuse dlad's provisioning logic shape: build a bootstrap and save.
	ex, err := logmodel.NewPaperExample()
	if err != nil {
		t.Fatal(err)
	}
	boot, err := newTestBootstrap(ex)
	if err != nil {
		t.Fatal(err)
	}
	common, nodes, issuer := boot.Provision(map[string]string{"P0": "a", "P1": "b", "P2": "c", "P3": "d"})
	if err := cluster.SaveProvision(dir, common, nodes, issuer); err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(dir, "ticket.json")
	if err := cmdIssue([]string{"-dir", dir, "-ticket-id", "T1", "-holder", "u0", "-ops", "WRD", "-out", out}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var wt wireTicket
	if err := json.Unmarshal(data, &wt); err != nil {
		t.Fatal(err)
	}
	tk := &ticket.Ticket{ID: wt.ID, Holder: wt.Holder, Sig: wt.Sig}
	for _, o := range wt.Ops {
		tk.Ops = append(tk.Ops, ticket.Op(o))
	}
	if err := ticket.Verify(boot.Issuer.Public(), tk); err != nil {
		t.Fatalf("issued ticket does not verify: %v", err)
	}
	if len(tk.Ops) != 3 {
		t.Fatalf("ops = %v", tk.Ops)
	}
	// Validation failures.
	if err := cmdIssue([]string{"-dir", dir, "-ticket-id", "T2", "-holder", "u0", "-ops", "X", "-out", out}); err == nil {
		t.Fatal("unknown op accepted")
	}
	if err := cmdIssue([]string{"-dir", dir}); err == nil {
		t.Fatal("missing flags accepted")
	}
}
