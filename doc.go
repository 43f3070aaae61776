// Package confaudit is a from-scratch Go implementation of the
// confidential distributed logging and auditing (DLA) system of
// "On the Confidential Auditing of Distributed Computing Systems"
// (Shen, Liu, Zhao — Texas A&M TR 2003-8-2 / ICDCS 2004).
//
// The implementation lives under internal/ (see DESIGN.md for the
// system inventory); examples/ holds runnable applications, cmd/ the
// node daemon (dlad), client (dlactl), and the paper-artifact
// regenerator (benchtab). The benchmarks in bench_test.go measure the
// paper's tables, figures and cost claims recorded in EXPERIMENTS.md;
// the end-to-end benchmark of the running cluster is the bench/ module,
// declared in BENCHMARK.json.
package confaudit
