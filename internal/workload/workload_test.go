package workload

import (
	"strconv"
	"testing"

	"confaudit/internal/logmodel"
	"confaudit/internal/query"
)

func TestECommerceSchema(t *testing.T) {
	s, err := ECommerceSchema(3)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Attrs) != 7 {
		t.Fatalf("attrs = %d, want 7", len(s.Attrs))
	}
	if len(s.Undefined) != 3 {
		t.Fatalf("undefined = %d, want 3", len(s.Undefined))
	}
	if !s.Undefined["C2"] || s.Undefined["id"] {
		t.Fatal("undefined set wrong")
	}
}

func TestRoundRobinPartitionCoversSchema(t *testing.T) {
	s, err := ECommerceSchema(4)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{1, 2, 3, 4, 8} {
		part, err := RoundRobinPartition(s, n)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if len(part.Nodes()) != n {
			t.Fatalf("n=%d: %d nodes", n, len(part.Nodes()))
		}
		for _, a := range s.Attrs {
			if part.Owner(a) == "" {
				t.Fatalf("n=%d: attribute %q uncovered", n, a)
			}
		}
	}
	if _, err := RoundRobinPartition(s, 0); err == nil {
		t.Fatal("zero nodes accepted")
	}
}

func TestTransactionsDeterministic(t *testing.T) {
	s, err := ECommerceSchema(3)
	if err != nil {
		t.Fatal(err)
	}
	a := New(42).Transactions(s, 50, 5)
	b := New(42).Transactions(s, 50, 5)
	if len(a) != 50 || len(b) != 50 {
		t.Fatalf("lengths %d, %d", len(a), len(b))
	}
	for i := range a {
		for attr, v := range a[i] {
			if !b[i][attr].Equal(v) {
				t.Fatalf("record %d attr %q differs across same-seed runs", i, attr)
			}
		}
	}
	c := New(43).Transactions(s, 50, 5)
	same := true
	for i := range a {
		for attr, v := range a[i] {
			if !c[i][attr].Equal(v) {
				same = false
			}
		}
	}
	if same {
		t.Fatal("different seeds produced identical workloads")
	}
}

func TestTransactionsShape(t *testing.T) {
	s, err := ECommerceSchema(2)
	if err != nil {
		t.Fatal(err)
	}
	recs := New(7).Transactions(s, 100, 3)
	users := make(map[string]struct{})
	protos := make(map[string]struct{})
	for _, r := range recs {
		if len(r) != len(s.Attrs) {
			t.Fatalf("record has %d attrs, want %d", len(r), len(s.Attrs))
		}
		users[r["id"].S] = struct{}{}
		protos[r["protocl"].S] = struct{}{}
	}
	if len(users) > 3 {
		t.Fatalf("more distinct users (%d) than requested (3)", len(users))
	}
	if len(protos) != 2 {
		t.Fatalf("protocols = %v, want UDP and TCP", protos)
	}
	// Degenerate users parameter clamps to 1.
	one := New(7).Transactions(s, 10, 0)
	for _, r := range one {
		if r["id"].S != "U1" {
			t.Fatal("users=0 should clamp to a single user")
		}
	}
}

// TestTransactionsKinds checks that C<k> takes its kind from k, as
// Transactions documents: int, float, string, then round again.
func TestTransactionsKinds(t *testing.T) {
	s, err := ECommerceSchema(12)
	if err != nil {
		t.Fatal(err)
	}
	kinds := []logmodel.Kind{logmodel.KindString, logmodel.KindInt, logmodel.KindFloat}
	for _, r := range New(5).Transactions(s, 10, 3) {
		for k := 1; k <= 12; k++ {
			a := logmodel.Attr("C" + strconv.Itoa(k))
			if got, want := r[a].Kind, kinds[k%3]; got != want {
				t.Fatalf("%s has kind %v, want %v", a, got, want)
			}
		}
	}
}

func TestIntrusionEventsBurst(t *testing.T) {
	s, err := ECommerceSchema(2)
	if err != nil {
		t.Fatal(err)
	}
	const hosts = 4
	events := New(9).IntrusionEvents(s, 200, hosts, 117)
	if len(events) != 200+hosts {
		t.Fatalf("events = %d, want %d", len(events), 200+hosts)
	}
	// The burst leaves one login-fail on every host at tick 117.
	burstHosts := make(map[string]struct{})
	for _, e := range events {
		if e["time"].S == "tick-000117" && e["Tid"].S == "login-fail" {
			burstHosts[e["id"].S] = struct{}{}
		}
	}
	if len(burstHosts) != hosts {
		t.Fatalf("burst touched %d hosts, want %d", len(burstHosts), hosts)
	}
}

func TestQueryMixParses(t *testing.T) {
	s, err := ECommerceSchema(3)
	if err != nil {
		t.Fatal(err)
	}
	part, err := RoundRobinPartition(s, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, und := range []int{0, 1, 2, 3} {
		for _, src := range QueryMix(und) {
			e, err := query.Parse(src)
			if err != nil {
				t.Fatalf("QueryMix(%d) produced unparseable %q: %v", und, src, err)
			}
			n, err := query.Normalize(e)
			if err != nil {
				t.Fatalf("normalize %q: %v", src, err)
			}
			if und >= 3 {
				if _, err := query.Classify(n, part); err != nil {
					t.Fatalf("classify %q: %v", src, err)
				}
			}
		}
	}
}

func TestRecordsFitSchema(t *testing.T) {
	s, err := ECommerceSchema(5)
	if err != nil {
		t.Fatal(err)
	}
	recs := New(1).Transactions(s, 20, 4)
	for _, r := range recs {
		for a := range r {
			if !s.Has(logmodel.Attr(a)) {
				t.Fatalf("record attribute %q outside schema", a)
			}
		}
	}
}
