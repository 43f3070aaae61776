// Command benchtab regenerates every table and figure of the paper
// ("On the Confidential Auditing of Distributed Computing Systems",
// Shen, Liu, Zhao — TAMU TR 2003-8-2 / ICDCS 2004) from the running
// implementation, plus the confidentiality metric sweeps. The measured
// comparisons behind the paper's qualitative claims are the root
// package's BenchmarkClaim* benchmarks. See EXPERIMENTS.md for the
// index.
//
// Usage:
//
//	benchtab -table all        # Tables 1-6
//	benchtab -figure all       # Figures 1-7
//	benchtab -metrics          # eqs. 10-13 sweeps
//	benchtab -all
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
)

func main() {
	log.SetFlags(0)
	var (
		table   = flag.String("table", "", "regenerate a paper table: 1..6 or all")
		figure  = flag.String("figure", "", "regenerate a paper figure: 1..7 or all")
		metrics = flag.Bool("metrics", false, "sweep the confidentiality metrics (eqs. 10-13)")
		all     = flag.Bool("all", false, "everything")
	)
	flag.Parse()

	if *all {
		*table, *figure, *metrics = "all", "all", true
	}
	if *table == "" && *figure == "" && !*metrics {
		flag.Usage()
		os.Exit(2)
	}
	if *table != "" {
		if err := runTables(*table); err != nil {
			log.Fatalf("tables: %v", err)
		}
	}
	if *figure != "" {
		if err := runFigures(*figure); err != nil {
			log.Fatalf("figures: %v", err)
		}
	}
	if *metrics {
		if err := runMetrics(); err != nil {
			log.Fatalf("metrics: %v", err)
		}
	}
}

func section(title string) {
	fmt.Printf("\n==================================================================\n")
	fmt.Printf("%s\n", title)
	fmt.Printf("==================================================================\n")
}
