// Command bench is FixD's perf ledger: four closed-loop workloads over the
// public API of the repo's packages, four end-to-end metrics measured with
// tracing off, and a per-layer decomposition taken from outside by timing
// calls into each package and by wrapping the dsim.Machine/dsim.Context
// values the benchmark itself constructs. See README.md.
//
//	go run ./bench -workload <name|all> -seed <n> [-seconds s] [-trace 1] [-out f.json]
//	go run ./bench -compare a.json b.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"
)

// processStart anchors setup_s: the first set-up round is timed from here,
// so package initialisation and flag parsing count as set-up.
var processStart = time.Now()

type options struct {
	seed      int64
	scaleName string
	seconds   float64
	trace     bool
	scale     scale
	root      string // checkout root: the directory holding BENCHMARK.json
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	workload := fs.String("workload", "all", "workload name, or all")
	seed := fs.Int64("seed", 1, "base seed S; every input is derived from it")
	seconds := fs.Float64("seconds", 0, "keep adding timed reps until this much time is measured")
	trace := fs.Int("trace", 0, "1: also run the traced rep and report the per-layer metrics")
	scaleName := fs.String("scale", "full", "rep size: full or tiny")
	out := fs.String("out", "", "write the full result document to this file")
	compare := fs.Bool("compare", false, "compare two result documents: -compare a.json b.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if os.Getenv(probeChildEnv) != "" {
		if err := serveProbe(os.Stdin, stdout); err != nil {
			fmt.Fprintln(os.Stderr, "bench: probe child:", err)
			return 2
		}
		return 0
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "bench: -compare needs two result files")
			return 2
		}
		return runCompare(fs.Arg(0), fs.Arg(1), stdout)
	}
	sc, ok := scales[*scaleName]
	if !ok {
		fmt.Fprintf(os.Stderr, "bench: unknown scale %q\n", *scaleName)
		return 2
	}
	root, err := findRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	decl, err := loadDeclared(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	names := decl.workloadNames()
	if *workload != "all" {
		if !slices.Contains(names, *workload) {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q (have %v)\n", *workload, names)
			return 2
		}
		names = []string{*workload}
	}
	runtime.GOMAXPROCS(runtime.NumCPU())
	opt := options{seed: *seed, scaleName: *scaleName, seconds: *seconds, trace: *trace != 0, scale: sc, root: root}
	if os.Getenv(setupChildEnv) != "" {
		if err := runSetupChild(names[0], opt, stdout); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 2
		}
		return 0
	}

	doc := &Document{Env: envStamp(opt)}
	srv := &probeServer{}
	defer srv.stop()
	start := processStart
	for i, name := range names {
		if i > 0 {
			start = time.Now() // only the first workload pays process start
		}
		res, err := runWorkload(name, opt, decl, start, srv)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", name, err)
			return 2
		}
		doc.Workloads = append(doc.Workloads, res)
		res.print(stdout)
	}
	if *out != "" {
		b, err := json.MarshalIndent(doc, "", "  ")
		if err == nil {
			err = os.WriteFile(*out, append(b, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 2
		}
	}
	line, correct := doc.contractLine(opt.trace)
	fmt.Fprintln(stdout, line)
	if !correct {
		return 1
	}
	return 0
}

// findRoot walks up from the working directory to the checkout root, so the
// harness runs the same from the root (bench/run.sh, go run ./bench) and
// from bench/ (go test). Everything it writes goes under that root.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no BENCHMARK.json in the working directory or above it")
		}
		dir = parent
	}
}
