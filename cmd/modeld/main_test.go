package main

import (
	"testing"

	"repro/internal/guard"
	"repro/internal/modeld"
)

// TestBuiltinModels exercises the CLI's built-in model constructors: the
// correct mutex verifies clean, the buggy one yields a violation trail.
func TestBuiltinModels(t *testing.T) {
	root, engine := guard.Mutex(3, false)
	res := engine.Explore(root, modeld.Options{Strategy: modeld.BFS, MaxStates: 100_000})
	if len(res.Violations) != 0 || res.Truncated {
		t.Errorf("correct mutex: %d violations, truncated=%v", len(res.Violations), res.Truncated)
	}

	root, engine = guard.Mutex(2, true)
	res = engine.Explore(root, modeld.Options{Strategy: modeld.BFS, MaxStates: 100_000})
	if len(res.Violations) == 0 {
		t.Error("buggy mutex: violation not found")
	}

	root, engine = buildCounter()
	res = engine.Explore(root, modeld.Options{Strategy: modeld.BFS, MaxStates: 100_000})
	if res.StatesVisited == 0 {
		t.Error("counter model explored nothing")
	}
}
