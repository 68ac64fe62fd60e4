// fixd-fleet runs the distributed chaos-search fleet: a coordinator that
// owns the seeded candidate frontier and leases evaluation batches to
// stateless workers over a length-prefixed TCP protocol (see
// internal/fleet for the frame layout). For a fixed (seed, budget) the
// fleet's report is byte-identical to the in-process search
// (fixd.SearchChaos) at any worker count and across worker crashes.
//
// Usage:
//
//	fixd-fleet -local 4                      # all-in-one: coordinator + 4 loopback workers
//	fixd-fleet -coordinate -addr :9940       # coordinator only; workers join remotely
//	fixd-fleet -work -join host:9940         # one stateless worker
//
// Shared search knobs: -seed, -budget, -buggy, -apps a,b,c, -check-every.
// Coordinator knobs: -journal path (durable frontier; restart resumes
// without re-executing), -lease-timeout, -no-local-fallback. The report is
// printed as a summary table, or as full JSON with -json.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"time"

	"repro/internal/apps"
	"repro/internal/chaos"
	"repro/internal/fleet"
)

func main() {
	var (
		coordinate = flag.Bool("coordinate", false, "run a coordinator and wait for workers to join")
		work       = flag.Bool("work", false, "run a stateless worker; requires -join")
		local      = flag.Int("local", 0, "all-in-one mode: coordinator plus this many loopback workers")
		join       = flag.String("join", "", "coordinator address a worker dials")
		addr       = flag.String("addr", "127.0.0.1:0", "coordinator listen address")
		name       = flag.String("name", "", "worker name reported in its hello")
		slots      = flag.Int("slots", 1, "parallel lease sessions per worker")

		seed       = flag.Int64("seed", 1, "master search seed")
		budget     = flag.Int("budget", 48, "schedule executions per application")
		buggy      = flag.Bool("buggy", false, "search the seeded-bug app variants")
		appList    = flag.String("apps", "", "comma-separated app names (default: all registered)")
		checkEvery = flag.Uint64("check-every", 0, "early-exit invariant cadence (0 = quiescence only)")
		shrink     = flag.Int("shrink-budget", 0, "shrink budget per distinct failure (0 = default, <0 disables)")

		journal      = flag.String("journal", "", "JSONL frontier journal path (restart resumes from it)")
		leaseTimeout = flag.Duration("lease-timeout", 15*time.Second, "how long a worker may hold a lease")
		noFallback   = flag.Bool("no-local-fallback", false, "never evaluate leases on the coordinator")
		asJSON       = flag.Bool("json", false, "print the full report as JSON")
	)
	flag.Parse()

	modes := 0
	for _, m := range []bool{*coordinate, *work, *local > 0} {
		if m {
			modes++
		}
	}
	if modes != 1 {
		fmt.Fprintln(os.Stderr, "fixd-fleet: pick exactly one mode: -coordinate, -work -join addr, or -local n")
		flag.Usage()
		os.Exit(2)
	}

	if *work {
		if *join == "" {
			fmt.Fprintln(os.Stderr, "fixd-fleet: -work requires -join addr")
			os.Exit(2)
		}
		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
		defer stop()
		w := &fleet.Worker{Join: *join, Name: *name, Slots: *slots}
		if err := w.Run(ctx); err != nil {
			fmt.Fprintln(os.Stderr, "fixd-fleet:", err)
			os.Exit(1)
		}
		return
	}

	scfg := chaos.SearchConfig{
		Seed: *seed, Budget: *budget, Buggy: *buggy,
		CheckEvery: *checkEvery, ShrinkBudget: *shrink,
	}
	if *appList != "" {
		var specs []apps.AppSpec
		for _, nm := range strings.Split(*appList, ",") {
			spec, err := apps.Lookup(strings.TrimSpace(nm))
			if err != nil {
				fmt.Fprintln(os.Stderr, "fixd-fleet:", err)
				os.Exit(2)
			}
			specs = append(specs, spec)
		}
		scfg.Apps = specs
	}
	cfg := fleet.Config{
		Search: scfg, Addr: *addr, Journal: *journal,
		LeaseTimeout: *leaseTimeout, NoLocalFallback: *noFallback,
	}

	var (
		rep *chaos.SearchReport
		err error
	)
	if *local > 0 {
		cfg.Workers = *local
		rep, err = fleet.Search(cfg)
	} else {
		rep, err = runCoordinator(cfg)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "fixd-fleet:", err)
		os.Exit(1)
	}
	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			fmt.Fprintln(os.Stderr, "fixd-fleet:", err)
			os.Exit(1)
		}
		return
	}
	printSummary(rep)
}

// runCoordinator runs coordinator-only mode: bind, announce the address,
// and drive the search with whatever workers join.
func runCoordinator(cfg fleet.Config) (*chaos.SearchReport, error) {
	coord, err := fleet.NewCoordinator(cfg)
	if err != nil {
		return nil, err
	}
	defer coord.Close()
	fmt.Fprintf(os.Stderr, "fixd-fleet: coordinating on %s (join with: fixd-fleet -work -join %s)\n",
		coord.Addr(), coord.Addr())
	if n := coord.Recovered(); n > 0 {
		fmt.Fprintf(os.Stderr, "fixd-fleet: journal restored %d results; they will not be re-executed\n", n)
	}
	rep, err := coord.Run()
	if err != nil {
		return nil, err
	}
	reissues, locals := coord.Stats()
	fmt.Fprintf(os.Stderr, "fixd-fleet: done (%d leases reissued, %d evaluated locally)\n", reissues, locals)
	return rep, nil
}

// printSummary prints the per-app coverage and failure table.
func printSummary(rep *chaos.SearchReport) {
	fmt.Printf("fleet search  seed=%d budget=%d buggy=%v\n", rep.Seed, rep.Budget, rep.Buggy)
	fmt.Printf("%-10s %6s %7s %7s %7s %9s\n", "app", "execs", "corpus", "shapes", "digests", "failures")
	for _, a := range rep.Apps {
		fmt.Printf("%-10s %6d %7d %7d %7d %9d\n",
			a.App, a.Executions, len(a.Corpus), a.DistinctShapes, a.DistinctDigests, len(a.Failures))
	}
	shapes, digests := rep.Totals()
	fmt.Printf("%-10s %6s %7s %7d %7d %9d\n", "total", "", "", shapes, digests, len(rep.Failures()))
}
