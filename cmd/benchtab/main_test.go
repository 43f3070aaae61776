package main

import "testing"

// TestAll runs every section `benchtab -all` prints — the paper's
// tables and figures and the eqs. 10-13 sweeps — and fails on any
// error.
func TestAll(t *testing.T) {
	for _, s := range []struct {
		name string
		run  func() error
	}{
		{"tables", func() error { return runTables("all") }},
		{"figures", func() error { return runFigures("all") }},
		{"metrics", runMetrics},
	} {
		t.Run(s.name, func(t *testing.T) {
			if err := s.run(); err != nil {
				t.Fatal(err)
			}
		})
	}
}
