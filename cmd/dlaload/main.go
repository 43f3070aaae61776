// Command dlaload is the workload simulator: it deploys an in-process
// DLA cluster, drives one of the built-in scenarios (burst, mixed,
// hotkey, slownode) through the streaming Appender path at a sweep of
// offered loads, and prints the throughput/latency knee of curve next
// to the synchronous LogBatch baseline measured in the same run.
//
//	dlaload -scenario burst -records 5000 -rates 1000,4000,0
//	dlaload -scenario burst -crash P1 -dataroot /tmp/dlaload
//	dlaload -list
//	dlaload -json -out ingest.json
//
// A rate of 0 means unpaced: append as fast as backpressure admits —
// the right-hand end of the knee. With -crash the named node is killed
// and restarted mid-run; the report's lost_acks row audits every acked
// glsn against the recovered cluster and must be zero.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"
	"strings"
	"time"

	"confaudit/internal/cluster"
	"confaudit/internal/loadgen"
	"confaudit/internal/workload"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("dlaload: ")
	if err := run(os.Args[1:]); err != nil {
		log.Fatal(err)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("dlaload", flag.ContinueOnError)
	var (
		list      = fs.Bool("list", false, "list scenarios and exit")
		scenario  = fs.String("scenario", "burst", "scenario name (see -list)")
		nodes     = fs.Int("nodes", 4, "cluster size")
		producers = fs.Int("producers", 4, "concurrent appender sessions")
		records   = fs.Int("records", 2000, "records per offered-load point")
		rates     = fs.String("rates", "1000,4000,0", "offered loads in records/sec (0 = unpaced)")
		seed      = fs.Uint64("seed", 42, "workload seed")
		batch     = fs.Int("batch", 128, "appender max batch records")
		inflight  = fs.Int("inflight", 4, "appender max inflight batches")
		linger    = fs.Duration("linger", 2*time.Millisecond, "appender linger")
		baseBatch = fs.Int("baseline-batch", 1, "records per synchronous LogBatch in the baseline run")
		admitRPS  = fs.Float64("admit-rps", 0, "per-node admission records/sec (0 = unbounded)")
		admitMB   = fs.Int64("admit-inflight-bytes", 0, "per-node admission inflight-bytes cap (0 = unbounded)")
		crash     = fs.String("crash", "", "crash+restart this node mid-run (needs -dataroot)")
		dataroot  = fs.String("dataroot", "", "per-node segment-store root (enables durability)")
		timeout   = fs.Duration("timeout", 5*time.Minute, "whole-run timeout")
		jsonOut   = fs.Bool("json", false, "emit the report as JSON")
		out       = fs.String("out", "", "also write the JSON report to this file")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *list {
		for _, sc := range workload.Scenarios() {
			fmt.Printf("%-10s %s\n", sc.Name, sc.Description)
		}
		return nil
	}
	sc, err := workload.ScenarioByName(*scenario)
	if err != nil {
		return err
	}
	var rateList []float64
	for _, f := range strings.Split(*rates, ",") {
		f = strings.TrimSpace(f)
		if f == "" {
			continue
		}
		r, err := strconv.ParseFloat(f, 64)
		if err != nil {
			return fmt.Errorf("bad -rates entry %q: %w", f, err)
		}
		rateList = append(rateList, r)
	}
	if *crash != "" && *dataroot == "" {
		return fmt.Errorf("-crash needs -dataroot so the node can recover its journal")
	}

	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()
	cfg := loadgen.Config{
		Scenario:  sc,
		Nodes:     *nodes,
		Producers: *producers,
		Records:   *records,
		Rates:     rateList,
		Seed:      *seed,
		Admission: cluster.AdmissionConfig{RecordsPerSec: *admitRPS, MaxInflightBytes: *admitMB},
		Append: cluster.AppendOptions{
			MaxBatchRecords: *batch,
			MaxInflight:     *inflight,
			Linger:          *linger,
		},
		BaselineBatch: *baseBatch,
		DataRoot:      *dataroot,
		CrashNode:     *crash,
	}
	rep, err := loadgen.Run(ctx, cfg)
	if err != nil {
		return err
	}
	if *out != "" {
		buf, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*out, append(buf, '\n'), 0o644); err != nil {
			return err
		}
	}
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(rep)
	}
	printReport(rep)
	return nil
}

func printReport(rep *loadgen.Report) {
	fmt.Printf("scenario %s: %d nodes, %d producers, %d records/point\n",
		rep.Scenario, rep.Nodes, rep.Producers, rep.Records)
	fmt.Printf("%-12s %-12s %-8s %-8s %8s %8s %8s %8s\n",
		"offered", "achieved", "acked", "failed", "p50ms", "p95ms", "p99ms", "maxms")
	for _, p := range rep.Points {
		offered := "unpaced"
		if p.OfferedRPS > 0 {
			offered = fmt.Sprintf("%.0f/s", p.OfferedRPS)
		}
		fmt.Printf("%-12s %-12s %-8d %-8d %8.2f %8.2f %8.2f %8.2f\n",
			offered, fmt.Sprintf("%.0f/s", p.AchievedRPS), p.Acked, p.Failed,
			p.P50Ms, p.P95Ms, p.P99Ms, p.MaxMs)
	}
	if rep.Baseline != nil {
		b := rep.Baseline
		fmt.Printf("%-12s %-12s %-8d %-8d %8.2f %8.2f %8.2f %8.2f\n",
			"sync-base", fmt.Sprintf("%.0f/s", b.AchievedRPS), b.Acked, b.Failed,
			b.P50Ms, b.P95Ms, b.P99Ms, b.MaxMs)
		fmt.Printf("appender speedup over sync LogBatch: %.1fx\n", rep.Speedup)
	}
	if rep.Crashed != "" {
		fmt.Printf("crash/restart cycle on %s survived\n", rep.Crashed)
	}
	if rep.Queries > 0 {
		fmt.Printf("queries: %d, p95 %.2fms\n", rep.Queries, rep.QueryP95Ms)
	}
	fmt.Printf("lost acks: %d\n", rep.LostAcks)
}
