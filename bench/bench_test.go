package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"testing"
	"time"
)

const smokeScale = 0.01

// benchmarkJSON mirrors the root BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestBenchmarkJSONMatchesProgram pins the declared contract to what the
// program emits: same workloads with the same rationale (which freezes
// the operation counts), same metrics with the same units and bounds.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	buf, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(buf, &b); err != nil {
		t.Fatal(err)
	}
	if b.RunSeconds != runSeconds {
		t.Errorf("run_seconds = %d, program sizes its schedules for %d", b.RunSeconds, runSeconds)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, program has %d", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.Name || b.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: declared %q / %q, program has %q / %q", i, b.Workloads[i].Name, b.Workloads[i].Why, w.Name, w.Why)
		}
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters, the contract allows 200", w.Name, len(w.Why))
		}
	}
	same := func(kind string, declared, program []metricSpec) {
		if len(declared) != len(program) {
			t.Fatalf("%s: %d declared, program has %d", kind, len(declared), len(program))
		}
		for i := range program {
			if declared[i] != program[i] {
				t.Errorf("%s %d: declared %+v, program has %+v", kind, i, declared[i], program[i])
			}
		}
	}
	same("end_to_end", b.EndToEnd, endToEnd)
	same("per_layer", b.PerLayer, perLayer)
	seen := map[string]bool{}
	for _, m := range append(append([]metricSpec(nil), endToEnd...), perLayer...) {
		if !nameRE.MatchString(m.Name) {
			t.Errorf("metric name %q is outside the contract's alphabet", m.Name)
		}
		if seen[m.Name] {
			t.Errorf("metric name %q is used twice", m.Name)
		}
		seen[m.Name] = true
	}
}

// TestSmoke runs every workload at a hundredth of its size, traced, and
// checks the shape of what comes out. It asserts nothing about timing.
func TestSmoke(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	for _, w := range workloads {
		t.Run(w.Name, func(t *testing.T) {
			res, err := runWorkload(ctx, w.scaled(smokeScale, 1), runOpts{seed: 7, trace: true, workdir: t.TempDir()})
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range append(append([]*pass(nil), res.reps...), res.traced) {
				if p.failed != 0 || p.attempted == 0 {
					t.Errorf("attempted %d, failed %d: %v", p.attempted, p.failed, p.firstErr)
				}
			}
			for _, trace := range []bool{false, true} {
				specs := endToEnd
				if trace {
					specs = perLayer
				}
				line, err := res.line(trace)
				if err != nil {
					t.Fatal(err)
				}
				if len(line.Metrics) != len(specs) {
					t.Errorf("trace=%t: %d metrics emitted, %d declared", trace, len(line.Metrics), len(specs))
				}
				for _, s := range specs {
					v, ok := line.Metrics[s.Name]
					switch {
					case !ok:
						t.Errorf("trace=%t: %s is declared but not emitted", trace, s.Name)
					case math.IsNaN(v.Value) || math.IsInf(v.Value, 0):
						t.Errorf("%s = %v", s.Name, v.Value)
					case !trace && v.Value <= 0:
						t.Errorf("end-to-end metric %s = %v, the contract wants it above 0", s.Name, v.Value)
					case v.Unit != s.Unit:
						t.Errorf("%s: unit %q, declared %q", s.Name, v.Unit, s.Unit)
					}
				}
			}
			checkSpans(t, res.spans)
			path := filepath.Join(t.TempDir(), "spans.json")
			if err := writeSpans(path, res.spans); err != nil {
				t.Fatal(err)
			}
			buf, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			var back []span
			if err := json.Unmarshal(buf, &back); err != nil || len(back) != len(res.spans) {
				t.Errorf("span file does not load back: %d of %d spans, %v", len(back), len(res.spans), err)
			}
		})
	}
}

// checkSpans: every child lies inside its parent, self times are never
// negative, and the spans of one request id hang together: apart from
// those nested under a span of the same id, they share one parent.
func checkSpans(t *testing.T, spans []span) {
	t.Helper()
	if len(spans) == 0 {
		t.Fatal("traced pass recorded no spans")
	}
	byNum := make(map[int64]span, len(spans))
	for _, s := range spans {
		if s.End < s.Start {
			t.Errorf("span %d %s/%s ends before it starts", s.Span, s.Layer, s.Name)
		}
		if _, dup := byNum[s.Span]; dup {
			t.Errorf("span number %d is used twice", s.Span)
		}
		byNum[s.Span] = s
	}
	parentOf := map[string]int64{}
	for _, s := range spans {
		if s.Parent != 0 {
			p, ok := byNum[s.Parent]
			if !ok {
				t.Errorf("span %d names parent %d, which was never recorded", s.Span, s.Parent)
			} else if s.Start < p.Start || s.End > p.End {
				t.Errorf("span %d %s/%s [%d,%d] is not inside its parent %s/%s [%d,%d]",
					s.Span, s.Layer, s.Name, s.Start, s.End, p.Layer, p.Name, p.Start, p.End)
			}
		}
		if s.ID == "" {
			t.Errorf("span %d %s/%s has no request id", s.Span, s.Layer, s.Name)
		}
		if byNum[s.Parent].ID == s.ID {
			continue
		}
		if prev, ok := parentOf[s.ID]; ok && prev != s.Parent {
			t.Errorf("request id %q appears under parents %d and %d", s.ID, prev, s.Parent)
		}
		parentOf[s.ID] = s.Parent
	}
	for num, self := range selfTimes(spans) {
		if self < 0 {
			t.Errorf("span %d has negative self time %v", num, self)
		}
	}
}

func TestScheduleIsAFunctionOfTheSeed(t *testing.T) {
	for _, w := range workloads {
		w = w.scaled(smokeScale, 1)
		a, b, c := generate(w, 1).digest(), generate(w, 1).digest(), generate(w, 2).digest()
		if a != b {
			t.Errorf("%s: seed 1 generated two different schedules", w.Name)
		}
		if a == c {
			t.Errorf("%s: seeds 1 and 2 generated the same schedule", w.Name)
		}
	}
}

func TestNoConsecutiveRoundsRepeatACriterion(t *testing.T) {
	for _, w := range workloads {
		rounds := generate(w.scaled(smokeScale, 1), 3).Rounds
		for r := 1; r < len(rounds); r++ {
			for i, q := range rounds[r] {
				if q.String() == rounds[r-1][i].String() {
					t.Errorf("%s: rounds %d and %d both ask %s", w.Name, r-1, r, q)
				}
			}
		}
	}
}

// TestQuantileMatchesPython pins quantile to statistics.quantiles(n=4).
func TestQuantileMatchesPython(t *testing.T) {
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	for q, want := range map[float64]float64{0.25: 2.75, 0.5: 5.5, 0.75: 8.25} {
		if got := quantile(xs, q); math.Abs(got-want) > 1e-12 {
			t.Errorf("quantile(%v) = %v, want %v", q, got, want)
		}
	}
}
