// fixd-bench regenerates the paper's figures as tables and prints them
// (see README.md for the experiment index). Every table is deterministic:
// `fixd-bench -only <ID>` prints exactly internal/experiments/testdata/<ID>.txt.
// The tables reproduce the paper's claims; the performance ledger is
// `bash bench/run.sh` (BENCHMARK.json).
//
// Usage:
//
//	fixd-bench           # every table
//	fixd-bench -only E3  # a single table
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/experiments"
)

func main() {
	only := flag.String("only", "", "run a single experiment (E1, E3..E9 or ABL)")
	flag.Parse()

	var ids []string
	if *only != "" {
		ids = []string{strings.ToUpper(*only)}
	}
	tables, err := experiments.Suite(ids...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fixd-bench:", err)
		os.Exit(2)
	}
	for i, tbl := range tables {
		if i > 0 {
			fmt.Println()
		}
		fmt.Print(tbl.Format())
	}
}
