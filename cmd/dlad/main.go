// Command dlad is the DLA node daemon. It has two modes:
//
//	dlad provision -out <dir> [-nodes 4] [-undefined 4] [-paper]
//	    [-addr-base 127.0.0.1:7100]
//		generate cluster keys, accumulator parameters, the attribute
//		partition, and the TCP address book, writing one common file,
//		one private file per node, and the ticket-issuer key.
//
//	dlad run -dir <dir> -id P0 [-data <dir>]
//	    [-sync always|interval|never] [-segment-bytes N]
//	    [-checkpoint-every N] [-pprof 127.0.0.1:6060]
//	    [-ingest-rate N] [-ingest-burst N] [-ingest-inflight-bytes N]
//		start one DLA node (core.StartNode): fragment store, glsn
//		sequencer/voter, audit executor, and integrity responder,
//		serving over TCP until SIGINT or SIGTERM. Shutdown cancels
//		the node, closes its endpoint, waits for every node and
//		service goroutine to exit, and only then closes the segment
//		store. -data makes the node durable: it journals to the
//		crash-safe segment store in that directory, tuned by -sync
//		and the segment flags. The -ingest-* flags bound ingest
//		admission (token-bucket rate and inflight bytes); a refused
//		store is acked as overloaded and the writer backs off and
//		retries.
//		With -pprof, an HTTP server exposes net/http/pprof
//		profiles, the /debug/dla telemetry endpoints (metrics,
//		traces, leak ledger, flight recorder; all JSON), and the
//		/debug/dla/storage and /debug/dla/ingest status endpoints for
//		live diagnosis (`dlactl top`, `dlactl storage|ingest status`).
package main

import (
	"context"
	"crypto/rand"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof on DefaultServeMux
	"os"
	"os/signal"
	"strconv"
	"syscall"

	"confaudit/internal/cluster"
	"confaudit/internal/core"
	"confaudit/internal/logmodel"
	"confaudit/internal/mathx"
	"confaudit/internal/storage"
	"confaudit/internal/telemetry"
	"confaudit/internal/transport"
	"confaudit/internal/workload"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("dlad: ")
	if len(os.Args) < 2 {
		usage()
	}
	var err error
	switch os.Args[1] {
	case "provision":
		err = provision(os.Args[2:])
	case "run":
		err = run(os.Args[2:])
	default:
		usage()
	}
	if err != nil {
		log.Fatal(err)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: dlad provision|run [flags]")
	os.Exit(2)
}

func provision(args []string) error {
	fs := flag.NewFlagSet("provision", flag.ExitOnError)
	var (
		out       = fs.String("out", "provision", "output directory")
		nodes     = fs.Int("nodes", 4, "DLA cluster size")
		undefined = fs.Int("undefined", 4, "number of undefined attributes C1..Cn")
		paper     = fs.Bool("paper", false, "use the paper's exact Tables 2-5 partition instead of a generated one")
		addrBase  = fs.String("addr-base", "127.0.0.1:7100", "first node address; subsequent nodes use consecutive ports")
		groupBits = fs.Int("group-bits", 1024, "commutative-crypto group size (768, 1024, 1536, 2048)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	var part *logmodel.Partition
	if *paper {
		ex, err := logmodel.NewPaperExample()
		if err != nil {
			return err
		}
		part = ex.Partition
	} else {
		schema, err := workload.ECommerceSchema(*undefined)
		if err != nil {
			return err
		}
		if part, err = workload.RoundRobinPartition(schema, *nodes); err != nil {
			return err
		}
	}
	group, err := mathx.StandardGroup(*groupBits)
	if err != nil {
		return err
	}
	log.Printf("generating keys for %d nodes (Ed25519 node and issuer keys, accumulator 512)...", len(part.Nodes()))
	boot, err := cluster.NewBootstrap(rand.Reader, part, group)
	if err != nil {
		return err
	}
	host, portStr, err := net.SplitHostPort(*addrBase)
	if err != nil {
		return fmt.Errorf("bad -addr-base: %w", err)
	}
	port, err := strconv.Atoi(portStr)
	if err != nil {
		return fmt.Errorf("bad -addr-base port: %w", err)
	}
	addrs := make(map[string]string, len(boot.Roster))
	for i, id := range boot.Roster {
		addrs[id] = net.JoinHostPort(host, strconv.Itoa(port+i))
	}
	common, nodeProv, issuer := boot.Provision(addrs)
	if err := cluster.SaveProvision(*out, common, nodeProv, issuer); err != nil {
		return err
	}
	log.Printf("provisioned cluster %v into %s", boot.Roster, *out)
	for id, a := range addrs {
		log.Printf("  %s -> %s", id, a)
	}
	return nil
}

func run(args []string) error {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	var (
		dir        = fs.String("dir", "provision", "provisioning directory")
		id         = fs.String("id", "", "this node's ID (required)")
		data       = fs.String("data", "", "segment-store directory for durable state (empty = in-memory only)")
		sync       = fs.String("sync", string(storage.SyncAlways), "fsync policy for acked appends: always, interval, or never")
		syncEvery  = fs.Duration("sync-every", 0, "fsync interval under -sync interval (0 = 50ms)")
		segBytes   = fs.Int64("segment-bytes", 0, "seal the active segment at this size (0 = 4MiB)")
		cpEvery    = fs.Int("checkpoint-every", 0, "checkpoint after this many sealed segments (0 = 4)")
		compactAt  = fs.Int("compact-segments", 0, "sealed-segment count that triggers compaction (0 = 8)")
		pprof      = fs.String("pprof", "", "serve net/http/pprof and /debug/dla on this address (empty = disabled)")
		leakBudget = fs.Float64("leak-budget", 0, "default per-querier leak budget (sum of 1-C_query); 0 disables the alarm")
		ingestRPS  = fs.Float64("ingest-rate", 0, "ingest admission: records/sec token-bucket refill (0 = unbounded)")
		ingestBst  = fs.Int("ingest-burst", 0, "ingest admission: token-bucket capacity in records (0 = one second's refill)")
		ingestInfl = fs.Int64("ingest-inflight-bytes", 0, "ingest admission: cap on store bytes concurrently being processed (0 = unbounded)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *id == "" {
		return fmt.Errorf("-id is required")
	}
	if *leakBudget > 0 {
		telemetry.L.SetDefaultBudget(*leakBudget)
	}
	// One node per dlad process: stamp its ID on flight events recorded
	// deep in the pipeline (journal, breaker) that don't know who owns them.
	telemetry.F.SetDefaultNode(*id)
	common, err := cluster.LoadCommon(*dir)
	if err != nil {
		return err
	}
	nodeProv, err := cluster.LoadNode(*dir, *id)
	if err != nil {
		return err
	}
	boot, err := cluster.RestoreBootstrap(common, map[string]*cluster.NodeProvision{*id: nodeProv}, nil)
	if err != nil {
		return err
	}
	tcp := transport.NewTCPNetwork(common.Addresses)
	ep, err := tcp.Endpoint(*id)
	if err != nil {
		return err
	}
	cfg := boot.NodeConfig(*id)
	cfg.Admission = cluster.AdmissionConfig{
		RecordsPerSec:    *ingestRPS,
		Burst:            *ingestBst,
		MaxInflightBytes: *ingestInfl,
	}
	var store *storage.Options
	if *data != "" {
		store = &storage.Options{
			Dir:             *data,
			Sync:            storage.SyncPolicy(*sync),
			SyncEvery:       *syncEvery,
			SegmentBytes:    *segBytes,
			CheckpointEvery: *cpEvery,
			CompactSegments: *compactAt,
		}
	}
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()
	rn, err := core.StartNode(ep, cfg, store, nil)
	if err != nil {
		return err
	}
	node := rn.Node()
	if store != nil {
		log.Printf("segment store open in %s (sync=%s)", *data, *sync)
	}
	if q := node.QuarantinedExtents(); len(q) > 0 {
		log.Printf("WARNING: recovered degraded; quarantined extents: %v", q)
	}
	if *pprof != "" {
		telemetry.Mount(http.DefaultServeMux)
		// Live storage-engine status (backend, segments, checkpoint,
		// recovery work, quarantine) next to the telemetry endpoints.
		http.HandleFunc("/debug/dla/storage", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			enc.Encode(node.StorageStatus()) //nolint:errcheck
		})
		// Live ingest-admission state (bounds, bucket fill, inflight
		// bytes, admit/reject counts) for `dlactl ingest status`.
		http.HandleFunc("/debug/dla/ingest", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			enc.Encode(node.AdmissionStatus()) //nolint:errcheck
		})
		srv := &http.Server{Addr: *pprof} // DefaultServeMux: pprof + /debug/dla
		go func() {
			if err := srv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				log.Printf("pprof server: %v", err)
			}
		}()
		go func() {
			<-ctx.Done()
			srv.Close() //nolint:errcheck
		}()
		log.Printf("pprof on http://%s/debug/pprof/, telemetry on /debug/dla/", *pprof)
	}
	log.Printf("node %s serving on %s (roster %v)", *id, common.Addresses[*id], boot.Roster)
	<-ctx.Done()
	log.Printf("shutting down")
	return rn.Stop()
}
