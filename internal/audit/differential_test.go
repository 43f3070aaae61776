package audit_test

import (
	"context"
	"crypto/rand"
	"fmt"
	"math"
	"slices"
	"testing"
	"time"

	"confaudit/internal/audit"
	"confaudit/internal/cluster"
	"confaudit/internal/core"
	"confaudit/internal/logmodel"
	"confaudit/internal/mathx"
	"confaudit/internal/workload"
)

// TestDifferentialAgainstCentralized stores generated e-commerce
// records in a three-node round-robin deployment and in the
// centralized baseline, then requires the same glsn list, count and
// sum from both for every query shape the engine plans: the standard
// query mix (local, same-node and cross-node conjunction, negation,
// disjunction), the wildcard, cross-node string equality and
// inequality, int/float cross-node equality (plain and negated) and
// order comparison, disjunctions across two nodes and across three
// (the first skips ∪s, the second runs it) and a negated cross-node
// conjunction.
//
// The partition puts time, Tid, C3 on P0; id, C1, C4 on P1; protocl,
// C2 on P2. The generator makes C1 an int, C2 a float and C3 a string.
// C3 is rewritten to equal id on every third record and C2 to equal C1
// on every fourth, so `id = C3` and `C1 = C2` have matches.
func TestDifferentialAgainstCentralized(t *testing.T) {
	schema, err := workload.ECommerceSchema(4)
	if err != nil {
		t.Fatal(err)
	}
	part, err := workload.RoundRobinPartition(schema, 3)
	if err != nil {
		t.Fatal(err)
	}
	boot, err := cluster.NewBootstrap(rand.Reader, part, mathx.Oakley768)
	if err != nil {
		t.Fatal(err)
	}
	shapes := append(workload.QueryMix(2),
		`*`,
		`id = C3`,
		`id != C3`,
		`C1 = C2`,
		`NOT (C1 = C2)`,
		`C1 < C2`,
		`id = "U1" OR protocl = "TCP"`,
		`id = "U1" OR protocl = "TCP" OR C3 = "U2"`,
		`NOT (protocl = "UDP" AND id = "U2")`,
	)
	for _, seed := range []uint64{1, 2, 3} {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
			defer cancel()
			d, err := core.Deploy(core.Options{Partition: part, Material: boot})
			if err != nil {
				t.Fatal(err)
			}
			defer d.Close() //nolint:errcheck
			ep, err := d.Network().Endpoint("diff")
			if err != nil {
				t.Fatal(err)
			}
			c, err := core.Connect(ctx, ep, boot, cluster.ClientConfig{}, "TD")
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close() //nolint:errcheck

			central := audit.NewCentralized()
			for i, vals := range workload.New(seed).Transactions(schema, 30, 4) {
				if i%3 == 0 {
					vals["C3"] = vals["id"]
				}
				if i%4 == 0 {
					vals["C2"] = logmodel.Float(float64(vals["C1"].I))
				}
				g, err := c.Log(ctx, vals)
				if err != nil {
					t.Fatal(err)
				}
				central.Store(logmodel.Record{GLSN: g, Values: vals})
			}

			for _, crit := range shapes {
				want, err := central.Query(crit)
				if err != nil {
					t.Fatalf("centralized %q: %v", crit, err)
				}
				if len(want) == 0 && (crit == `id = C3` || crit == `C1 = C2` || crit == `id = "U1" OR protocl = "TCP" OR C3 = "U2"`) {
					t.Fatalf("%q matches no record", crit)
				}
				got, err := c.Auditor().Query(ctx, crit)
				if err != nil {
					t.Fatalf("DLA %q: %v", crit, err)
				}
				if !slices.Equal(got, want) {
					t.Errorf("%q: DLA %v, centralized %v", crit, got, want)
				}
				for _, kind := range []audit.AggKind{audit.AggCount, audit.AggSum} {
					want, err := central.Aggregate(crit, kind, "C2")
					if err != nil {
						t.Fatalf("centralized %s %q: %v", kind, crit, err)
					}
					got, err := c.Auditor().Aggregate(ctx, crit, kind, "C2")
					if err != nil {
						t.Fatalf("DLA %s %q: %v", kind, crit, err)
					}
					if math.Abs(got-want) > 1e-9*math.Max(1, math.Abs(want)) {
						t.Errorf("%s %q: DLA %v, centralized %v", kind, crit, got, want)
					}
				}
			}
		})
	}
}
