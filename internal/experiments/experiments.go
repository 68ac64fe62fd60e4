// Package experiments regenerates every figure of the paper as a
// quantitative experiment (see README.md for the experiment index).
// Each RunEx function returns a Table whose rows cmd/fixd-bench prints;
// bench_test.go at the repository root exposes the same code as testing.B
// benchmarks.
package experiments

import (
	"fmt"
	"strings"
)

// Table is one experiment's printable result.
type Table struct {
	ID     string // experiment id, e.g. "E1"
	Title  string // paper anchor, e.g. "Figure 1: the Scroll"
	Header []string
	Rows   [][]string
	Notes  []string
}

// Add appends a row, formatting each cell with %v.
func (t *Table) Add(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.2f", v)
		default:
			row[i] = fmt.Sprint(v)
		}
	}
	t.Rows = append(t.Rows, row)
}

// Note appends a free-text note shown under the table.
func (t *Table) Note(format string, args ...any) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// Format renders the table with aligned columns.
func (t *Table) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s — %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	line(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// MatrixWorkers is the worker-pool width E9, E10 and E12 use for their
// sweeps. 0/1 runs sequentially; cmd/fixd-bench sets it from
// -shard.workers. The tables are identical either way — sharding only
// changes wall time.
var MatrixWorkers int

// Suite runs every experiment. quick mode shrinks parameters for tests.
func Suite(quick bool) []*Table {
	return []*Table{
		RunE1(quick),
		RunE2(quick),
		RunE3(quick),
		RunE4(quick),
		RunE5(quick),
		RunE6(quick),
		RunE7(quick),
		RunE8(quick),
		RunE9(quick),
		RunE10(quick),
		RunE11(quick),
		RunE12(quick),
		RunAblations(quick),
	}
}
