// Package experiments regenerates the paper's figures as tables (see
// README.md for the experiment index). Every table is a pure function of
// its fixed parameters and seeds — no clock, no worker count — so each is
// committed as a golden under testdata/<ID>.txt, which cmd/fixd-bench
// prints byte for byte. What the figures cost in time is measured by the
// testing.B benchmarks (bench_test.go at the repository root, e7_test.go)
// and the performance ledger (bench/run.sh), not here.
package experiments

import (
	"fmt"
	"slices"
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

// experiment is one table and the ID it is asked for by.
type experiment struct {
	id  string
	run func() *Table
}

// experiments lists every table, in print order.
var experiments = []experiment{
	{"E1", runE1},
	{"E3", runE3},
	{"E4", runE4},
	{"E5", runE5},
	{"E6", runE6},
	{"E7", runE7},
	{"E8", runE8},
	{"E9", runE9},
	{"ABL", runAblations},
}

// Suite runs the named experiments in print order, or every experiment
// when none is named. An unknown ID is an error.
func Suite(ids ...string) ([]*Table, error) {
	for _, id := range ids {
		if !slices.ContainsFunc(experiments, func(e experiment) bool { return e.id == id }) {
			return nil, fmt.Errorf("unknown experiment %q (want E1, E3..E9 or ABL)", id)
		}
	}
	var out []*Table
	for _, e := range experiments {
		if len(ids) == 0 || slices.Contains(ids, e.id) {
			out = append(out, e.run())
		}
	}
	return out, nil
}
