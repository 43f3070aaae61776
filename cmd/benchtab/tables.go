package main

import (
	"fmt"
	"strings"

	"confaudit/internal/logmodel"
)

// runTables regenerates Tables 1-6 from the embedded paper fixture.
func runTables(which string) error {
	ex, err := logmodel.NewPaperExample()
	if err != nil {
		return err
	}
	want := func(n string) bool { return which == "all" || which == n }
	if want("1") {
		printTable1(ex)
	}
	for i, node := range []string{"P0", "P1", "P2", "P3"} {
		n := fmt.Sprint(i + 2)
		if want(n) {
			printFragmentTable(ex, i+2, node)
		}
	}
	if want("6") {
		printTable6(ex)
	}
	return nil
}

func printRow(widths []int, cells []string) {
	parts := make([]string, len(cells))
	for i, c := range cells {
		parts[i] = pad(c, widths[i])
	}
	fmt.Println("| " + strings.Join(parts, " | ") + " |")
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
}

func printTable1(ex *logmodel.PaperExample) {
	section("TABLE 1 — AN EXAMPLE OF THE GLOBAL EVENT LOG")
	cols := []logmodel.Attr{"time", "id", "protocl", "Tid", "C1", "C2", "C3"}
	widths := []int{8, 19, 4, 7, 8, 4, 7, 10}
	header := append([]string{"glsn"}, attrsToStrings(cols)...)
	printRow(widths, header)
	for _, rec := range ex.Records {
		cells := []string{rec.GLSN.String()}
		for _, a := range cols {
			cells = append(cells, rec.Values[a].Render())
		}
		printRow(widths, cells)
	}
}

func printFragmentTable(ex *logmodel.PaperExample, tableNo int, node string) {
	section(fmt.Sprintf("TABLE %d — EVENT LOG FRAGMENTS STORED IN DLA NODE %s", tableNo, node))
	cols := ex.Partition.NodeAttrs(node)
	widths := make([]int, len(cols)+1)
	widths[0] = 8
	for i, a := range cols {
		widths[i+1] = max(len(string(a)), 19)
	}
	printRow(widths, append([]string{"glsn"}, attrsToStrings(cols)...))
	for _, rec := range ex.Records {
		frag := ex.Partition.Split(rec)[node]
		cells := []string{frag.GLSN.String()}
		for _, a := range cols {
			if v, ok := frag.Values[a]; ok {
				cells = append(cells, v.Render())
			} else {
				cells = append(cells, "") // empty column, as in the paper
			}
		}
		printRow(widths, cells)
	}
}

func printTable6(ex *logmodel.PaperExample) {
	section("TABLE 6 — ACCESS CONTROL TABLE")
	widths := []int{9, 4, 20}
	printRow(widths, []string{"Ticket ID", "Type", "glsn"})
	for _, id := range []string{"T1", "T2", "T3"} {
		glsns := make([]string, 0, len(ex.TicketGrants[id]))
		for _, g := range ex.TicketGrants[id] {
			glsns = append(glsns, g.String())
		}
		printRow(widths, []string{id, "W/R", strings.Join(glsns, ", ")})
	}
}

func attrsToStrings(attrs []logmodel.Attr) []string {
	out := make([]string, len(attrs))
	for i, a := range attrs {
		out[i] = string(a)
	}
	return out
}
