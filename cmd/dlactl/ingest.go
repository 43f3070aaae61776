package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strings"

	"confaudit/internal/cluster"
)

// cmdIngest dispatches `dlactl ingest <verb>`. The only verb so far is
// status: fetch /debug/dla/ingest from one or more dlad -pprof
// addresses and render each node's admission boundary — configured
// bounds, current bucket fill and inflight bytes, and the
// admitted/rejected split that shows whether writers are being shed.
func cmdIngest(args []string) error {
	if len(args) < 1 || args[0] != "status" {
		return fmt.Errorf("usage: dlactl ingest status [-addr host:port | -addrs a,b,c] [-json]")
	}
	fs := flag.NewFlagSet("ingest status", flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:6060", "dlad -pprof address serving /debug/dla")
	addrs := fs.String("addrs", "", "comma-separated dlad -pprof addresses; fan out and report every node")
	asJSON := fs.Bool("json", false, "emit each node's AdmissionStatus as JSON")
	if err := fs.Parse(args[1:]); err != nil {
		return err
	}
	targets := splitAddrs(*addrs)
	if len(targets) == 0 {
		targets = []string{*addr}
	}
	return fetchIngestStatus(os.Stdout, targets, *asJSON)
}

// fetchIngestStatus pulls every target's admission status. Unreachable
// nodes are warned about and skipped; the command fails only if no node
// answered at all.
func fetchIngestStatus(w io.Writer, targets []string, asJSON bool) error {
	ok := 0
	for _, a := range targets {
		var st cluster.AdmissionStatus
		if err := getJSON("http://"+a+"/debug/dla/ingest", &st); err != nil {
			log.Printf("warning: %s: %v", a, err)
			continue
		}
		ok++
		if asJSON {
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			if err := enc.Encode(st); err != nil {
				return err
			}
			continue
		}
		if _, err := io.WriteString(w, formatIngestStatus(a, st)); err != nil {
			return err
		}
	}
	if ok == 0 {
		return fmt.Errorf("no node returned ingest status")
	}
	return nil
}

// formatIngestStatus renders one node's admission boundary for the
// terminal.
func formatIngestStatus(addr string, st cluster.AdmissionStatus) string {
	var b strings.Builder
	if !st.Enabled {
		fmt.Fprintf(&b, "%s: admission disabled (every store admitted)\n", addr)
		return b.String()
	}
	fmt.Fprintf(&b, "%s: admitted=%d rejected=%d\n", addr, st.Admitted, st.Rejected)
	if st.RecordsPerSec > 0 {
		fmt.Fprintf(&b, "  rate: %.0f records/sec, bucket %.0f/%d tokens\n",
			st.RecordsPerSec, st.Tokens, st.Burst)
	}
	if st.MaxInflightBytes > 0 {
		fmt.Fprintf(&b, "  inflight: %d/%d bytes\n", st.InflightBytes, st.MaxInflightBytes)
	}
	return b.String()
}
