// Package workload generates the synthetic inputs of the benchmark
// harness: e-commerce transaction streams shaped like the paper's
// Table 1, distributed intrusion-detection event streams (the paper's
// §1 motivation of "distributed event correlation for intrusion
// detection"), attribute partitions of configurable width, and auditing
// query mixes.
//
// All generation is deterministic in the seed, so benchmark rows are
// reproducible run to run.
package workload

import (
	"fmt"
	"math/rand/v2"
	"strconv"
	"strings"

	"confaudit/internal/logmodel"
)

// Gen is a seeded workload generator.
type Gen struct {
	rng *rand.Rand
}

// New creates a generator with the given seed.
func New(seed uint64) *Gen {
	return &Gen{rng: rand.New(rand.NewPCG(seed, 0x5eed))}
}

// ECommerceSchema returns a Table 1-shaped schema: defined attributes
// (time, id, protocl, Tid) plus `undefined` application-private
// attributes C1..Cn.
func ECommerceSchema(undefined int) (*logmodel.Schema, error) {
	attrs := []logmodel.Attr{"time", "id", "protocl", "Tid"}
	und := make([]logmodel.Attr, 0, undefined)
	for i := 1; i <= undefined; i++ {
		a := logmodel.Attr("C" + strconv.Itoa(i))
		attrs = append(attrs, a)
		und = append(und, a)
	}
	return logmodel.NewSchema(attrs, und...)
}

// RoundRobinPartition assigns the schema's attributes to n nodes P0..
// P(n-1) in round-robin order — the paper's "evenly spread" fragmenting.
func RoundRobinPartition(schema *logmodel.Schema, n int) (*logmodel.Partition, error) {
	if n < 1 {
		return nil, fmt.Errorf("workload: need at least one node, got %d", n)
	}
	nodes := make([]string, n)
	sets := make(map[string][]logmodel.Attr, n)
	for i := range nodes {
		nodes[i] = "P" + strconv.Itoa(i)
	}
	for i, a := range schema.Attrs {
		node := nodes[i%n]
		sets[node] = append(sets[node], a)
	}
	for _, node := range nodes {
		if _, ok := sets[node]; !ok {
			sets[node] = nil
		}
	}
	return logmodel.NewPartition(schema, nodes, sets)
}

// Transactions generates count e-commerce transaction records over the
// schema. Values: id drawn from `users` distinct users, Tid from
// count/3 transactions (so several records correlate per transaction),
// protocl UDP/TCP, C1 integer volumes, C2 float amounts, C3 string
// tags, and further C_k cycling through those three kinds by k.
func (g *Gen) Transactions(schema *logmodel.Schema, count, users int) []map[logmodel.Attr]logmodel.Value {
	if users < 1 {
		users = 1
	}
	tids := count/3 + 1
	out := make([]map[logmodel.Attr]logmodel.Value, count)
	for i := range out {
		vals := make(map[logmodel.Attr]logmodel.Value, len(schema.Attrs))
		for _, a := range schema.Attrs {
			switch a {
			case "time":
				vals[a] = logmodel.String(fmt.Sprintf("20:%02d:%02d/05/12/2002", i/60%60, i%60))
			case "id":
				vals[a] = logmodel.String("U" + strconv.Itoa(g.rng.IntN(users)+1))
			case "protocl":
				if g.rng.IntN(2) == 0 {
					vals[a] = logmodel.String("UDP")
				} else {
					vals[a] = logmodel.String("TCP")
				}
			case "Tid":
				vals[a] = logmodel.String("T" + strconv.Itoa(1100265+g.rng.IntN(tids)))
			default:
				// Undefined attributes C<k> cycle through the kinds by
				// k: C1 int, C2 float, C3 string, C4 int, and so on.
				k, _ := strconv.Atoi(strings.TrimPrefix(string(a), "C"))
				switch k % 3 {
				case 1:
					vals[a] = logmodel.Int(int64(g.rng.IntN(10000)))
				case 2:
					vals[a] = logmodel.Float(float64(g.rng.IntN(100000)) / 100.0)
				default:
					vals[a] = logmodel.String("blob-" + strconv.Itoa(g.rng.IntN(1000)))
				}
			}
		}
		out[i] = vals
	}
	return out
}

// IntrusionEvents generates count security events across `hosts`
// application hosts: a low base rate of "failed login" events per host
// with an injected coordinated burst (the distributed attack that no
// single host's log reveals, §1's motivating scenario). The burst
// touches every host within a narrow window.
func (g *Gen) IntrusionEvents(schema *logmodel.Schema, count, hosts int, burstAt int) []map[logmodel.Attr]logmodel.Value {
	if hosts < 1 {
		hosts = 1
	}
	out := make([]map[logmodel.Attr]logmodel.Value, 0, count+hosts)
	for i := 0; i < count; i++ {
		vals := make(map[logmodel.Attr]logmodel.Value, len(schema.Attrs))
		host := g.rng.IntN(hosts)
		event := "login-ok"
		if g.rng.IntN(10) == 0 {
			event = "login-fail"
		}
		g.fillEvent(schema, vals, i, host, event, g.rng.IntN(3))
		out = append(out, vals)
	}
	// Coordinated burst: one failed probe on every host at burstAt.
	for h := 0; h < hosts; h++ {
		vals := make(map[logmodel.Attr]logmodel.Value, len(schema.Attrs))
		g.fillEvent(schema, vals, burstAt, h, "login-fail", 9)
		out = append(out, vals)
	}
	return out
}

func (g *Gen) fillEvent(schema *logmodel.Schema, vals map[logmodel.Attr]logmodel.Value, tick, host int, event string, severity int) {
	for _, a := range schema.Attrs {
		switch a {
		case "time":
			vals[a] = logmodel.String(fmt.Sprintf("tick-%06d", tick))
		case "id":
			vals[a] = logmodel.String("host-" + strconv.Itoa(host))
		case "protocl":
			vals[a] = logmodel.String("TCP")
		case "Tid":
			vals[a] = logmodel.String(event)
		default:
			if len(a)%2 == 0 {
				vals[a] = logmodel.Int(int64(severity))
			} else {
				vals[a] = logmodel.String(event + "-" + strconv.Itoa(severity))
			}
		}
	}
}

// QueryMix returns a deterministic mix of auditing criteria over the
// e-commerce schema, spanning local, conjunctive, disjunctive, and
// cross-node shapes — the averaging domain of C_DLA (eq. 13).
func QueryMix(undefined int) []string {
	mix := []string{
		`protocl = "UDP"`,
		`id = "U1"`,
		`protocl = "TCP" AND id = "U2"`,
		`NOT (protocl = "UDP")`,
	}
	if undefined >= 1 {
		mix = append(mix,
			`C1 > 5000`,
			`C1 >= 0 AND protocl = "UDP"`,
		)
	}
	if undefined >= 2 {
		mix = append(mix,
			`C1 < 100 OR id = "U3"`,
			`C2 <= 500.0 AND C1 > 10`,
		)
	}
	return mix
}
