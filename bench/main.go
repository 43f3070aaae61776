// Command bench is the repository's benchmark: four fixed-work
// workloads driven in-process against a 4-node DLA cluster, five gated
// end-to-end metrics, and (with -trace 1) a traced pass plus layer
// probes that yield the per-layer metrics and a CPU budget table. The
// names it prints are the ones BENCHMARK.json declares; README.md
// explains each.
//
//	bash bench/run.sh --workload ingest-mem --seed 1 --seconds 15 --trace 0
//	bash bench/run.sh --workload all --trace 1 --trace-out spans.json
//	bash bench/run.sh --noise-check --sets 2 --runs 5
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	var (
		workload = fs.String("workload", "all", "workload name, or all")
		seed     = fs.Uint64("seed", 1, "seed of the generated schedule")
		seconds  = fs.Float64("seconds", runSeconds, "window the schedule is sized for; the frozen counts apply at the default")
		trace    = fs.Int("trace", 0, "1 adds the traced pass and the layer probes, and prints per-layer metrics")
		scale    = fs.Float64("scale", 1, "multiplies every operation count (the smoke test uses 0.01)")
		traceOut = fs.String("trace-out", "", "with -trace 1, write the spans here as JSON")
		workdir  = fs.String("workdir", ".bench_build/work", "scratch directory for DataDirs; created if missing")
		noise    = fs.Bool("noise-check", false, "run sets of runs of this binary and compare them")
		sets     = fs.Int("sets", 2, "noise check: sets of runs")
		runs     = fs.Int("runs", 5, "noise check: runs per set")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *seconds <= 0 || *scale <= 0 {
		return fmt.Errorf("-seconds and -scale must be positive")
	}
	var specs []workloadSpec
	if *workload == "all" {
		specs = workloads
	} else if w, ok := workloadByName(*workload); ok {
		specs = []workloadSpec{w}
	} else {
		return fmt.Errorf("unknown workload %q", *workload)
	}
	if *noise {
		return noiseCheck(specs, *sets, *runs, *seconds)
	}
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 170*time.Second*time.Duration(len(specs)))
	defer cancel()
	traced := *trace == 1
	for _, w := range specs {
		res, err := runWorkload(ctx, w.scaled(*scale, *seconds/runSeconds), runOpts{seed: *seed, trace: traced, workdir: *workdir})
		if err != nil {
			return fmt.Errorf("%s: %w", w.Name, err)
		}
		line, err := res.line(traced)
		if err != nil {
			return fmt.Errorf("%s: %w", w.Name, err)
		}
		res.print(os.Stdout, res.record(*seed, *scale, *seconds), line, traced)
		if *traceOut != "" && traced {
			path := *traceOut
			if len(specs) > 1 {
				ext := filepath.Ext(path)
				path = path[:len(path)-len(ext)] + "." + w.Name + ext
			}
			if err := writeSpans(path, res.spans); err != nil {
				return err
			}
		}
		buf, err := json.Marshal(line)
		if err != nil {
			return err
		}
		fmt.Println(string(buf))
	}
	return nil
}
