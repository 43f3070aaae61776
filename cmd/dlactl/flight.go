package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net/url"
	"os"
	"sort"
	"strings"
	"time"

	"confaudit/internal/telemetry"
)

// cmdFlight fetches the flight recorder — the bounded ring of anomaly
// events (breaker trips, admission sheds, journal poisonings, fsync
// stalls, …) every node keeps — from one or more dlad -pprof
// addresses and renders the merged incident timeline.
func cmdFlight(args []string) error {
	fs := flag.NewFlagSet("flight", flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:6060", "dlad -pprof address serving /debug/dla")
	addrs := fs.String("addrs", "", "comma-separated dlad -pprof addresses; fan out and merge every node's events")
	since := fs.Duration("since", 0, "only events recorded within this window (e.g. 10m; 0 means everything retained)")
	asJSON := fs.Bool("json", false, "emit each node's FlightSnapshot as JSON")
	if err := fs.Parse(args); err != nil {
		return err
	}
	targets := splitAddrs(*addrs)
	if len(targets) == 0 {
		targets = []string{*addr}
	}
	var cutoff time.Time
	if *since > 0 {
		cutoff = time.Now().Add(-*since)
	}
	return fetchClusterFlight(os.Stdout, targets, cutoff, *asJSON)
}

// fetchClusterFlight pulls every target's flight snapshot, merges the
// events into one time-ordered incident log, and renders it.
// Unreachable nodes are warned about and skipped; the command fails
// only if no node answered at all.
func fetchClusterFlight(w io.Writer, targets []string, cutoff time.Time, asJSON bool) error {
	var events []telemetry.FlightEvent
	var dropped uint64
	// With a cutoff the nodes filter server-side.
	query := ""
	if !cutoff.IsZero() {
		query = "?since=" + url.QueryEscape(cutoff.Format(time.RFC3339Nano))
	}
	ok := 0
	for _, a := range targets {
		var snap telemetry.FlightSnapshot
		if err := getJSON("http://"+a+"/debug/dla/flight"+query, &snap); err != nil {
			log.Printf("warning: %s: %v", a, err)
			continue
		}
		ok++
		if asJSON {
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			if err := enc.Encode(snap); err != nil {
				return err
			}
			continue
		}
		events = append(events, snap.Events...)
		dropped += snap.Dropped
	}
	if ok == 0 {
		return fmt.Errorf("no node returned a flight snapshot")
	}
	if asJSON {
		return nil
	}
	_, err := io.WriteString(w, formatFlightEvents(events, dropped))
	return err
}

// formatFlightEvents renders the merged incident timeline, oldest
// first. Every column is flight-schema data: timestamps, constant
// kinds, node IDs, glsn positions, counts, durations, outcome flags.
func formatFlightEvents(events []telemetry.FlightEvent, dropped uint64) string {
	var b strings.Builder
	if len(events) == 0 {
		b.WriteString("no flight events recorded\n")
		return b.String()
	}
	sort.SliceStable(events, func(i, j int) bool { return events[i].Time.Before(events[j].Time) })
	fmt.Fprintf(&b, "%-15s %-18s %-6s %-6s %-10s %6s %9s %s\n",
		"TIME", "KIND", "NODE", "PEER", "GLSN", "COUNT", "DUR(ms)", "OUTCOME")
	for _, e := range events {
		glsn, count, dur := "-", "-", "-"
		if e.GLSN != 0 {
			glsn = fmt.Sprintf("%x", e.GLSN)
		}
		if e.Count != 0 {
			count = fmt.Sprintf("%d", e.Count)
		}
		if e.DurMS != 0 {
			dur = fmt.Sprintf("%.2f", e.DurMS)
		}
		fmt.Fprintf(&b, "%-15s %-18s %-6s %-6s %-10s %6s %9s %s\n",
			e.Time.Format("15:04:05.000"), e.Kind, orDash(e.Node), orDash(e.Peer),
			glsn, count, dur, orDash(e.Outcome))
	}
	if dropped > 0 {
		fmt.Fprintf(&b, "(%d older events dropped by the bounded ring)\n", dropped)
	}
	return b.String()
}

func orDash(s string) string {
	if s == "" {
		return "-"
	}
	return s
}
