package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strings"

	"confaudit/internal/storage"
)

// cmdStorage dispatches `dlactl storage <verb>`. The only verb so far
// is status: fetch /debug/dla/storage from one or more dlad -pprof
// addresses and render each node's engine shape.
func cmdStorage(args []string) error {
	if len(args) < 1 || args[0] != "status" {
		return fmt.Errorf("usage: dlactl storage status [-addr host:port | -addrs a,b,c] [-json]")
	}
	fs := flag.NewFlagSet("storage status", flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:6060", "dlad -pprof address serving /debug/dla")
	addrs := fs.String("addrs", "", "comma-separated dlad -pprof addresses; fan out and report every node")
	asJSON := fs.Bool("json", false, "emit each node's Status as JSON")
	if err := fs.Parse(args[1:]); err != nil {
		return err
	}
	targets := splitAddrs(*addrs)
	if len(targets) == 0 {
		targets = []string{*addr}
	}
	return fetchStorageStatus(os.Stdout, targets, *asJSON)
}

// fetchStorageStatus pulls every target's engine status. Unreachable
// nodes are warned about and skipped; the command fails only if no node
// answered at all.
func fetchStorageStatus(w io.Writer, targets []string, asJSON bool) error {
	ok := 0
	for _, a := range targets {
		var st storage.Status
		if err := getJSON("http://"+a+"/debug/dla/storage", &st); err != nil {
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
		if _, err := io.WriteString(w, formatStorageStatus(a, st)); err != nil {
			return err
		}
	}
	if ok == 0 {
		return fmt.Errorf("no node returned storage status")
	}
	return nil
}

// formatStorageStatus renders one node's Status for the terminal.
func formatStorageStatus(addr string, st storage.Status) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: backend=%s", addr, st.Backend)
	if st.Dir != "" {
		fmt.Fprintf(&b, " dir=%s", st.Dir)
	}
	fmt.Fprintf(&b, " records=%d appended=%dB fsyncs=%d rotations=%d checkpoints=%d\n",
		st.Records, st.AppendedBytes, st.Fsyncs, st.Rotations, st.Checkpoints)
	if st.Failed != "" {
		fmt.Fprintf(&b, "  FAILED: %s\n", st.Failed)
	}
	if st.RecoveryScannedRecords > 0 || st.RecoveryHashedSegments > 0 {
		fmt.Fprintf(&b, "  recovery: scanned %d records, fast-verified %d segments\n",
			st.RecoveryScannedRecords, st.RecoveryHashedSegments)
	}
	if cp := st.Checkpoint; cp != nil {
		acc := cp.Acc
		if len(acc) > 16 {
			acc = acc[:16] + "…"
		}
		fmt.Fprintf(&b, "  checkpoint: base seq %d, through seq %d, %d records, acc %s\n",
			cp.BaseSeq, cp.LastSeq, cp.Records, acc)
	}
	for _, s := range st.Segments {
		state := "active"
		if s.Sealed {
			state = "sealed"
		}
		if s.Checkpointed {
			state += "+ckpt"
		}
		fmt.Fprintf(&b, "  seg %d: %s, %d records, %d bytes", s.Seq, state, s.Records, s.Bytes)
		if s.GLSNLo != 0 || s.GLSNHi != 0 {
			fmt.Fprintf(&b, ", glsn %x-%x", s.GLSNLo, s.GLSNHi)
		}
		b.WriteByte('\n')
	}
	for _, q := range st.Quarantined {
		fmt.Fprintf(&b, "  QUARANTINED seg %d (%s): %s\n", q.Seq, q.Reason, q.Extent())
	}
	return b.String()
}
