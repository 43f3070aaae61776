package main

import "testing"

// TestAll runs every section `benchtab -all` prints — the paper's
// tables and figures, the eqs. 10-13 sweeps and the claim C1-C3
// measurements — and fails on any error.
func TestAll(t *testing.T) {
	for _, s := range []struct {
		name string
		run  func() error
	}{
		{"tables", func() error { return runTables("all") }},
		{"figures", func() error { return runFigures("all") }},
		{"metrics", runMetrics},
		{"compare", runCompare},
	} {
		t.Run(s.name, func(t *testing.T) {
			if err := s.run(); err != nil {
				t.Fatal(err)
			}
		})
	}
}
