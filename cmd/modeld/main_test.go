package main

import (
	"testing"

	"repro/internal/guard"
	"repro/internal/modeld"
)

// TestBuiltinModels exercises the CLI's built-in model constructors under
// every search order: the correct mutex verifies clean, the buggy one
// yields a violation trail (except on the single conventional path, whose
// first-action schedule never barges), and the counter explores.
func TestBuiltinModels(t *testing.T) {
	for _, s := range []modeld.Strategy{modeld.BFS, modeld.DFS, modeld.Heuristic, modeld.RandomWalk, modeld.SinglePath} {
		opts := modeld.Options{Strategy: s, MaxStates: 100_000, Seed: 1}
		walk := s == modeld.RandomWalk || s == modeld.SinglePath

		root, engine := guard.Mutex(3, false)
		res := engine.Explore(root, opts)
		if len(res.Violations) != 0 || res.Truncated != walk {
			t.Errorf("%s: correct mutex: %d violations, truncated=%v", s, len(res.Violations), res.Truncated)
		}

		root, engine = guard.Mutex(2, true)
		res = engine.Explore(root, opts)
		if found := len(res.Violations) > 0; found != (s != modeld.SinglePath) {
			t.Errorf("%s: buggy mutex: %d violations", s, len(res.Violations))
		}

		root, engine = buildCounter()
		res = engine.Explore(root, opts)
		if res.StatesVisited < 2 {
			t.Errorf("%s: counter model explored %d states", s, res.StatesVisited)
		}
	}
}
