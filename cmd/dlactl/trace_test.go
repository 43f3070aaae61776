package main

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"confaudit/internal/logmodel"
	"confaudit/internal/telemetry"
	"confaudit/pkg/dla"
)

// TestTraceRendersConjunctionQuery drives a conjunction query across
// the cluster, then renders its trace the way `dlactl trace` does —
// through the HTTP debug endpoint — and checks the span tree is
// complete (coordinator -> subqueries -> ring-relay chunks) and free of
// plaintext attribute values.
func TestTraceRendersConjunctionQuery(t *testing.T) {
	ex, err := logmodel.NewPaperExample()
	if err != nil {
		t.Fatal(err)
	}
	cl, err := dla.Deploy(dla.ClusterOptions{Partition: ex.Partition})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close() //nolint:errcheck
	ctx, cancel := context.WithTimeout(context.Background(), 90*time.Second)
	defer cancel()
	s, err := dla.Connect(ctx, cl, dla.SessionConfig{ID: "ctl-u", TicketID: "T-ctl"})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close() //nolint:errcheck
	for _, rec := range ex.Records {
		if _, err := s.Log(ctx, rec.Values); err != nil {
			t.Fatal(err)
		}
	}
	// A conjunction over all four nodes leaves no third node as blind
	// TTP, so its final conjunction runs the ring relay.
	matches, session, _, err := s.QueryCertified(ctx, `protocl = "UDP" AND id = "U1" AND Tid = "T1100265" AND time > "20:00"`)
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) == 0 {
		t.Fatal("conjunction query found no matches")
	}

	mux := http.NewServeMux()
	telemetry.Mount(mux)
	srv := httptest.NewServer(mux)
	defer srv.Close()

	var list strings.Builder
	if err := fetchTrace(&list, srv.URL, ""); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(list.String(), session) {
		t.Fatalf("session list does not mention %q:\n%s", session, list.String())
	}

	var tree strings.Builder
	if err := fetchTrace(&tree, srv.URL, session); err != nil {
		t.Fatal(err)
	}
	out := tree.String()
	t.Logf("rendered trace:\n%s", out)
	for _, want := range []string{"audit.query", "audit.exec", "audit.subquery.", "smc.relay_chunk", "smc.intersect.run"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered tree missing %q:\n%s", want, out)
		}
	}
	// Plaintext from the criterion must never appear in the trace.
	for _, leak := range []string{"UDP", "U1", "protocl"} {
		if strings.Contains(out, leak) {
			t.Errorf("rendered tree leaks %q:\n%s", leak, out)
		}
	}

	if err := fetchTrace(&tree, srv.URL, "no-such-session"); err == nil {
		t.Error("fetchTrace succeeded for an unknown session")
	}
}
