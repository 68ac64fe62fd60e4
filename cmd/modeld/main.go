// modeld is the standalone ModelD model checker CLI (paper §4.3, Fig. 7).
// It explores one of the built-in guarded-command demonstration models and
// prints the exploration statistics and the shortest violation trail.
//
// Usage:
//
//	modeld -model mutex -n 4 -strategy bfs
//	modeld -model mutex-buggy -n 3 -strategy heuristic -first
//	modeld -model mutex-buggy -n 3 -strategy random -seed 7
//	modeld -model mutex -n 2 -strategy single -max-depth 50
//	modeld -model counter -max-states 100000
//
// -strategy picks one of the engine's five search orders: bfs, dfs and
// heuristic search the reachability graph; random runs 32 seeded walks of
// at most 200 steps, and single follows the first enabled action for at
// most 10,000 steps (-max-depth overrides either bound). The walks count
// and report each state once and set truncated when they hit the bound.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/guard"
	"repro/internal/modeld"
)

func main() {
	model := flag.String("model", "mutex", "built-in model: mutex | mutex-buggy | counter")
	n := flag.Int("n", 3, "number of processes in the model")
	strategy := flag.String("strategy", "bfs", "search order: bfs | dfs | heuristic | random | single")
	maxStates := flag.Int("max-states", 1_000_000, "state budget")
	maxDepth := flag.Int("max-depth", 0, "depth bound (0 = unbounded)")
	first := flag.Bool("first", false, "stop at the first violation")
	seed := flag.Int64("seed", 1, "seed for the random strategy")
	flag.Parse()

	strat, ok := map[string]modeld.Strategy{
		"bfs": modeld.BFS, "dfs": modeld.DFS, "heuristic": modeld.Heuristic,
		"random": modeld.RandomWalk, "single": modeld.SinglePath,
	}[*strategy]
	if !ok {
		fmt.Fprintf(os.Stderr, "modeld: unknown strategy %q\n", *strategy)
		os.Exit(2)
	}

	var (
		root   modeld.State
		engine *modeld.Engine
	)
	switch *model {
	case "mutex":
		root, engine = guard.Mutex(*n, false)
	case "mutex-buggy":
		root, engine = guard.Mutex(*n, true)
	case "counter":
		root, engine = buildCounter()
	default:
		fmt.Fprintf(os.Stderr, "modeld: unknown model %q\n", *model)
		os.Exit(2)
	}

	opts := modeld.Options{
		Strategy:             strat,
		MaxStates:            *maxStates,
		MaxDepth:             *maxDepth,
		StopAtFirstViolation: *first,
		Seed:                 *seed,
		CheckDeadlock:        true,
	}
	if strat == modeld.Heuristic {
		opts.Heuristic = func(s modeld.State, depth int) int { return depth } // BFS-like default
	}
	res := engine.Explore(root, opts)

	fmt.Printf("model=%s n=%d strategy=%s\n", *model, *n, strat)
	fmt.Printf("states=%d transitions=%d maxDepth=%d truncated=%v frontierPeak=%d graphBytes=%d\n",
		res.StatesVisited, res.Transitions, res.MaxDepthSeen, res.Truncated, res.FrontierPeak, res.GraphBytes)
	fmt.Printf("deadlocks=%d violations=%d\n", len(res.Deadlocks), len(res.Violations))
	if v := res.ShortestViolation(); v != nil {
		fmt.Printf("shortest violation: invariant=%q depth=%d\n", v.Invariant, v.Depth)
		for i, step := range v.Trail {
			fmt.Printf("  %3d. %s\n", i+1, step.Action)
		}
	}
}

// buildCounter is a trivial single-variable model for smoke testing.
func buildCounter() (modeld.State, *modeld.Engine) {
	m := guard.NewModel().Init("n", 0)
	m.Action("inc").When(func(v guard.Vars) bool { return v.Get("n") < 64 }).
		Do(func(v guard.Vars) { v.Set("n", v.Get("n")+1) })
	m.Action("dec").When(func(v guard.Vars) bool { return v.Get("n") > 0 }).
		Do(func(v guard.Vars) { v.Set("n", v.Get("n")-1) })
	m.Invariant("bounded", func(v guard.Vars) bool { return v.Get("n") <= 64 })
	return m.Build()
}
