package telemetry

import (
	"fmt"
	"strings"
)

// FormatTree renders a trace view as an indented span tree, one line
// per span:
//
//	trace q/aud/7 (3 session keys, started 2026-08-06T10:00:00Z)
//	├─ audit.query P0 14.2ms ok
//	│  ├─ audit.parse_plan P0 0.1ms ok
//	│  └─ audit.dispatch P0 0.3ms n=3 ok
//	├─ audit.exec P1 13.8ms ok
//	│  └─ smc.intersect.run P1 [q/aud/7/sq0] 12.9ms n=40 ok
//	│     └─ smc.relay_chunk P1→P2 1/2 0.8ms 4.1KB ok
//
// The renderer consumes only the redaction-safe SpanView schema, so
// its output inherits the zero-plaintext guarantee.
func FormatTree(v TraceView) string {
	var b strings.Builder
	fmt.Fprintf(&b, "trace %s (%d session key(s), started %s)\n",
		v.Session, v.Sessions, v.Started.UTC().Format("2006-01-02T15:04:05.000Z"))
	if len(v.Nodes) > 0 {
		fmt.Fprintf(&b, "  nodes: %s\n", strings.Join(v.Nodes, ", "))
	}
	if v.Dropped > 0 {
		fmt.Fprintf(&b, "  [%d span(s) dropped by the per-session cap]\n", v.Dropped)
	}
	for i, sp := range v.Spans {
		renderSpan(&b, sp, v.Session, "", i == len(v.Spans)-1)
	}
	return b.String()
}

func renderSpan(b *strings.Builder, sp SpanView, rootSession, prefix string, last bool) {
	branch, childPrefix := "├─ ", prefix+"│  "
	if last {
		branch, childPrefix = "└─ ", prefix+"   "
	}
	b.WriteString(prefix)
	b.WriteString(branch)
	b.WriteString(sp.Name)
	if sp.Node != "" {
		b.WriteString(" ")
		b.WriteString(sp.Node)
		if sp.Peer != "" {
			b.WriteString("→")
			b.WriteString(sp.Peer)
		}
	} else if sp.Peer != "" {
		b.WriteString(" →")
		b.WriteString(sp.Peer)
	}
	// Sub-session annotation only when it adds information.
	if sp.Session != "" && sp.Session != rootSession {
		fmt.Fprintf(b, " [%s]", sp.Session)
	}
	if sp.Total > 0 {
		fmt.Fprintf(b, " %d/%d", sp.Seq+1, sp.Total)
	}
	fmt.Fprintf(b, " %.1fms", sp.DurMS)
	if sp.Bytes > 0 {
		fmt.Fprintf(b, " %s", formatBytes(sp.Bytes))
	}
	if sp.Count > 0 {
		fmt.Fprintf(b, " n=%d", sp.Count)
	}
	if sp.Open {
		b.WriteString(" open")
	} else if sp.Outcome != "" {
		b.WriteString(" ")
		b.WriteString(sp.Outcome)
	}
	b.WriteString("\n")
	for i, c := range sp.Children {
		renderSpan(b, c, rootSession, childPrefix, i == len(sp.Children)-1)
	}
}

// FormatLedger renders a leak-ledger snapshot: the rolling C_DLA, then
// each querier's cumulative spend and per-session disclosure entries.
// Like FormatTree, it consumes only snapshot types, so the output is
// identifiers and numbers by construction.
func FormatLedger(s LedgerSnapshot) string {
	var b strings.Builder
	fmt.Fprintf(&b, "leak ledger: %d queries by %d querier(s), rolling C_DLA %.4f\n",
		s.Queries, len(s.Queriers), s.CDLA)
	for _, q := range s.Queriers {
		fmt.Fprintf(&b, "querier %s: %d queries, mean C_auditing %.4f, mean C_query %.4f, leakage %.4f",
			q.Querier, q.Queries, q.MeanCAud, q.MeanCQuery, q.Leakage)
		if q.Budget > 0 {
			fmt.Fprintf(&b, ", budget %.2f", q.Budget)
		}
		if q.Alarmed {
			b.WriteString(" [ALARM: budget exceeded]")
		}
		b.WriteString("\n")
		for _, e := range q.Entries {
			fmt.Fprintf(&b, "  %s: C_auditing %.4f, C_query %.4f, leakage %.4f\n",
				e.Session, e.CAuditing, e.CQuery, e.Leakage)
			for _, d := range e.Disclosures {
				b.WriteString("    ")
				b.WriteString(d.Kind)
				if d.Plan != "" {
					fmt.Fprintf(&b, "[%s]", d.Plan)
				}
				if d.Node != "" {
					fmt.Fprintf(&b, " @%s", d.Node)
				}
				fmt.Fprintf(&b, " n=%d\n", d.N)
			}
		}
	}
	return b.String()
}

func formatBytes(n int64) string {
	switch {
	case n >= 1<<20:
		return fmt.Sprintf("%.1fMB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1fKB", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%dB", n)
	}
}
