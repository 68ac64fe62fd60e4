// fixd-bench regenerates every figure of the paper as a quantitative
// experiment and prints the result tables (see README.md for the
// experiment index). The tables reproduce the paper's claims; the
// performance ledger is `bash bench/run.sh` (BENCHMARK.json).
//
// Usage:
//
//	fixd-bench                  # full parameter sweeps
//	fixd-bench -quick           # reduced sweeps (seconds, for CI)
//	fixd-bench -only E3         # a single experiment
//	fixd-bench -shard.workers 8 # worker pool for the chaos matrix
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"

	"repro/internal/experiments"
)

// runners maps experiment IDs to their table generators.
var runners = map[string]func(bool) *experiments.Table{
	"E1":  experiments.RunE1,
	"E2":  experiments.RunE2,
	"E3":  experiments.RunE3,
	"E4":  experiments.RunE4,
	"E5":  experiments.RunE5,
	"E6":  experiments.RunE6,
	"E7":  experiments.RunE7,
	"E8":  experiments.RunE8,
	"E9":  experiments.RunE9,
	"E10": experiments.RunE10,
	"E11": experiments.RunE11,
	"E12": experiments.RunE12,
	"ABL": experiments.RunAblations,
}

func main() {
	quick := flag.Bool("quick", false, "reduced parameter sweeps")
	only := flag.String("only", "", "run a single experiment (E1..E12 or ABL)")
	workers := flag.Int("shard.workers", runtime.NumCPU(), "worker pool width for the chaos matrix sweep")
	flag.Parse()

	experiments.MatrixWorkers = *workers

	if *only != "" {
		run, ok := runners[strings.ToUpper(*only)]
		if !ok {
			fmt.Fprintf(os.Stderr, "fixd-bench: unknown experiment %q (want E1..E12 or ABL)\n", *only)
			os.Exit(2)
		}
		fmt.Print(run(*quick).Format())
		return
	}
	for _, tbl := range experiments.Suite(*quick) {
		fmt.Print(tbl.Format())
		fmt.Println()
	}
}
