package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"
)

// noiseCheck is the driver's acceptance test run at home: it alternates
// sets of runs of this same binary, each run with another seed, and for
// every (workload, end-to-end metric) prints each set's median and
// quartile spread, the worsening from the first set's median to the
// last's, and the metric's bound. Any spread (setup_s excepted) or
// worsening beyond the bound is a breach and a non-zero exit.
func noiseCheck(specs []workloadSpec, sets, runs int, seconds float64) error {
	if sets < 2 || runs < 2 {
		return fmt.Errorf("noise check needs at least 2 sets of 2 runs")
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	fmt.Printf("noise check: %d sets x %d runs per workload, -seconds %g, one seed per run\n\n", sets, runs, seconds)
	fmt.Printf("| workload | metric | set | median | spread | worsening vs set 1 | bound | |\n|---|---|---|---|---|---|---|---|\n")
	breaches := 0
	for _, w := range specs {
		// samples[set][metric] collects one value per run. Sets alternate
		// run by run, so slow minutes of the box fall on both.
		samples := make([]map[string][]float64, sets)
		for s := range samples {
			samples[s] = make(map[string][]float64)
		}
		for i := 0; i < runs; i++ {
			for s := 0; s < sets; s++ {
				seed := 1 + i*sets + s
				line, err := runSelf(self, w.Name, seed, seconds)
				if err != nil {
					return fmt.Errorf("%s seed %d: %w", w.Name, seed, err)
				}
				if !line.Correct || line.Failed > 0 {
					return fmt.Errorf("%s seed %d: %d of %d operations failed", w.Name, seed, line.Failed, line.Attempted)
				}
				fmt.Fprintf(os.Stderr, "%s set %d run %d (seed %d) done\n", w.Name, s+1, i+1, seed)
				for name, v := range line.Metrics {
					samples[s][name] = append(samples[s][name], v.Value)
				}
			}
		}
		for _, m := range endToEnd {
			first := median(samples[0][m.Name])
			for s := range samples {
				xs := samples[s][m.Name]
				med, spread := median(xs), iqr(xs)/median(xs)
				worse := (med - first) / first
				if m.Better == "higher" {
					worse = -worse
				}
				verdict := "ok"
				if (m.Name != "setup_s" && spread > m.Bound) || worse > m.Bound {
					verdict = "BREACH"
					breaches++
				}
				fmt.Printf("| %s | %s | %d | %.4f | %.1f%% | %+.1f%% | %.0f%% | %s |\n",
					w.Name, m.Name, s+1, med, 100*spread, 100*worse, 100*m.Bound, verdict)
			}
		}
	}
	if breaches > 0 {
		return fmt.Errorf("%d breaches", breaches)
	}
	fmt.Println("\nno breach")
	return nil
}

// runSelf runs one untraced workload run and parses its result line.
func runSelf(self, workload string, seed int, seconds float64) (resultLine, error) {
	var line resultLine
	cmd := exec.Command(self, "-workload", workload, "-seed", strconv.Itoa(seed),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", "0")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return line, err
	}
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		last = append(last[:0], sc.Bytes()...)
	}
	return line, json.Unmarshal(last, &line)
}
