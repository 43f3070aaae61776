package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"math"
	"os"
	"strings"
	"time"

	"confaudit/internal/telemetry"
)

// cmdTop is the cluster's live ingest-health view: it polls
// /debug/dla/metrics on every -addrs target and renders one refreshing
// row per node — ingest rate (from successive snapshots), fsync
// p50/p99, the reserved/durable watermark lag, admission headroom,
// breaker trips, and flight-event counts. Everything shown is read
// from the zero-plaintext metrics snapshot; dlactl adds no channel of
// its own.
func cmdTop(args []string) error {
	fs := flag.NewFlagSet("top", flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:6060", "dlad -pprof address serving /debug/dla")
	addrs := fs.String("addrs", "", "comma-separated dlad -pprof addresses; one table row per node")
	interval := fs.Duration("interval", 2*time.Second, "refresh interval")
	rounds := fs.Int("n", 0, "number of refreshes before exiting (0 means run until interrupted)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	targets := splitAddrs(*addrs)
	if len(targets) == 0 {
		targets = []string{*addr}
	}
	var prev map[string]topSample
	for i := 0; *rounds == 0 || i < *rounds; i++ {
		if i > 0 {
			time.Sleep(*interval)
			// Redraw in place: clear screen, home the cursor.
			fmt.Print("\x1b[2J\x1b[H")
		}
		cur, err := topFrame(os.Stdout, targets, prev)
		if err != nil {
			return err
		}
		prev = cur
	}
	return nil
}

// topSample is one node's metrics snapshot plus when it was taken,
// kept between frames so counters can be turned into rates.
type topSample struct {
	snap telemetry.MetricsSnapshot
	at   time.Time
}

// topFrame polls every target once and renders one table. It returns
// the snapshots so the next frame can compute rates; prev may be nil
// (first frame shows "-" rates). A node whose record counter went
// backwards since prev (it restarted) also shows "-". Unreachable
// nodes are warned about and skipped; the frame fails only if no node
// answered.
func topFrame(w io.Writer, targets []string, prev map[string]topSample) (map[string]topSample, error) {
	cur := make(map[string]topSample, len(targets))
	var b strings.Builder
	fmt.Fprintf(&b, "%-21s %8s %9s %9s %8s %8s %6s %6s %8s %4s %4s\n",
		"NODE", "REC/S", "P50FS(ms)", "P99FS(ms)", "RESV", "DURB", "LAG", "ACKD", "TOKENS", "BRK", "FLT")
	ok := 0
	for _, a := range targets {
		var snap telemetry.MetricsSnapshot
		err := getJSON("http://"+a+"/debug/dla/metrics", &snap)
		now := time.Now()
		if err != nil {
			log.Printf("warning: %s: %v", a, err)
			continue
		}
		ok++
		cur[a] = topSample{snap: snap, at: now}
		rate := "-"
		if p, found := prev[a]; found {
			delta := snap.Counters[telemetry.CtrStoreRecords] - p.snap.Counters[telemetry.CtrStoreRecords]
			if dt := now.Sub(p.at).Seconds(); dt > 0 && delta >= 0 {
				rate = fmt.Sprintf("%.0f", float64(delta)/dt)
			}
		}
		reserved := snap.Gauges[telemetry.GaugeGLSNReserved]
		durable := snap.Gauges[telemetry.GaugeGLSNDurable]
		tokens := "-"
		if v, found := snap.Gauges[telemetry.GaugeAdmissionTokens]; found {
			tokens = fmt.Sprintf("%d", v)
			if ib := snap.Gauges[telemetry.GaugeAdmissionBytes]; ib > 0 {
				tokens += fmt.Sprintf("/%dB", ib)
			}
		}
		fsync := snap.Histograms[telemetry.HistWALFsync]
		fmt.Fprintf(&b, "%-21s %8s %9s %9s %8d %8d %6d %6d %8s %4d %4d\n",
			a, rate, fmtQuantile(fsync, 0.5), fmtQuantile(fsync, 0.99),
			reserved, durable, reserved-durable, snap.Gauges[telemetry.GaugeGLSNAcked],
			tokens, snap.Counters[telemetry.CtrBreakerTrips], snap.Counters[telemetry.CtrFlightEvents])
	}
	if ok == 0 {
		return nil, fmt.Errorf("no node returned metrics")
	}
	_, err := io.WriteString(w, b.String())
	return cur, err
}

// fmtQuantile renders a bucket-estimated quantile in ms, "-" when the
// histogram is absent or empty.
func fmtQuantile(h telemetry.HistogramSnapshot, q float64) string {
	v := h.Quantile(q)
	if math.IsNaN(v) {
		return "-"
	}
	return fmt.Sprintf("%.3g", v)
}
