package modeld_test

import (
	"testing"

	"repro/internal/guard"
	"repro/internal/modeld"
)

var strategies = []modeld.Strategy{modeld.BFS, modeld.DFS, modeld.Heuristic, modeld.RandomWalk, modeld.SinglePath}

// TestEveryStrategyReportsViolatingRoot: the root is a state like any other,
// checked once by every search order.
func TestEveryStrategyReportsViolatingRoot(t *testing.T) {
	for _, s := range strategies {
		t.Run(s.String(), func(t *testing.T) {
			m := guard.NewModel().Init("n", 0)
			m.Action("inc").When(func(v guard.Vars) bool { return v.Get("n") < 5 }).
				Do(func(v guard.Vars) { v.Set("n", v.Get("n")+1) })
			m.Invariant("n>0", func(v guard.Vars) bool { return v.Get("n") > 0 })
			root, engine := m.Build()
			res := engine.Explore(root, modeld.Options{Strategy: s})
			if len(res.Violations) != 1 {
				t.Fatalf("violations = %d, want 1 (the root)", len(res.Violations))
			}
			if v := res.Violations[0]; v.Depth != 0 || len(v.Trail) != 0 || v.State.Key() != root.Key() {
				t.Errorf("violation at depth %d, trail %v, want the root", v.Depth, v.Trail)
			}
		})
	}
}

// TestSinglePathCountsAPathOnce: the conventional path through the correct
// two-process mutex cycles through five states; walking it for the whole
// depth bound visits no more, and the bound truncates the run.
func TestSinglePathCountsAPathOnce(t *testing.T) {
	root, engine := guard.Mutex(2, false)
	res := engine.Explore(root, modeld.Options{Strategy: modeld.SinglePath})
	if res.StatesVisited != 5 || res.MaxDepthSeen != 4 || !res.Truncated {
		t.Errorf("states = %d, maxDepth = %d, truncated = %v; want 5, 4, true", res.StatesVisited, res.MaxDepthSeen, res.Truncated)
	}
}

// TestWalksRecordEachStateOnce: a walk that comes back to a state counts,
// checks and reports it no second time, so it never reports more states or
// violations than the reachable graph holds, and lists each deadlock once.
func TestWalksRecordEachStateOnce(t *testing.T) {
	for _, m := range models() {
		root, engine := m.build()
		full := engine.Explore(root, modeld.Options{Strategy: modeld.BFS, CheckDeadlock: true})
		if full.Truncated {
			t.Fatalf("%s: BFS truncated", m.name)
		}
		for s, seeds := range map[modeld.Strategy]int64{modeld.RandomWalk: 5, modeld.SinglePath: 1} {
			for seed := int64(1); seed <= seeds; seed++ {
				res := engine.Explore(root, modeld.Options{Strategy: s, Seed: seed, CheckDeadlock: true})
				if res.StatesVisited > full.StatesVisited || len(res.Violations) > len(full.Violations) || len(res.Deadlocks) > len(full.Deadlocks) {
					t.Errorf("%s %s seed %d: %d states, %d violations, %d deadlocks; the graph holds %d, %d and %d",
						m.name, s, seed, res.StatesVisited, len(res.Violations), len(res.Deadlocks),
						full.StatesVisited, len(full.Violations), len(full.Deadlocks))
				}
				seen := map[string]bool{}
				for _, v := range res.Violations {
					if seen[v.State.Key()] {
						t.Errorf("%s %s seed %d: state %s reported twice", m.name, s, seed, v.State.Key())
					}
					seen[v.State.Key()] = true
				}
				dead := map[string]bool{}
				for _, k := range res.Deadlocks {
					if dead[k] {
						t.Errorf("%s %s seed %d: deadlock %s listed twice", m.name, s, seed, k)
					}
					dead[k] = true
				}
			}
		}
	}
}

// TestTrailsReplay: every strategy's trail leads from the root, each step
// by its action to the successor with its key, to a state that violates
// the invariant, in as many steps as the violation's depth.
func TestTrailsReplay(t *testing.T) {
	for _, m := range models() {
		for _, s := range strategies {
			root, engine := m.build()
			res := engine.Explore(root, modeld.Options{Strategy: s, Seed: 3, MaxStates: 2_000})
			holds := map[string]func(modeld.State) bool{}
			for _, inv := range engine.Invariants() {
				holds[inv.Name] = inv.Holds
			}
			for _, v := range res.Violations {
				cur := replay(engine.Actions(), root, v.Trail)
				if cur == nil {
					t.Fatalf("%s %s: trail %v does not replay", m.name, s, v.Trail)
				}
				if v.Depth != len(v.Trail) || cur.Key() != v.State.Key() || holds[v.Invariant](cur) {
					t.Errorf("%s %s: trail of %d steps at depth %d ends at %s, reported %s, %s holds = %v",
						m.name, s, len(v.Trail), v.Depth, cur.Key(), v.State.Key(), v.Invariant, holds[v.Invariant](cur))
				}
			}
		}
	}
}

// replay follows trail from root and returns the state it ends at, or nil
// when a step names no successor of the state before it.
func replay(actions []modeld.Action, root modeld.State, trail []modeld.Step) modeld.State {
	cur := root
	for _, step := range trail {
		var next modeld.State
		for _, a := range actions {
			if a.Name() != step.Action || !a.Enabled(cur) {
				continue
			}
			for _, succ := range a.Apply(cur) {
				if succ.Key() == step.StateKey {
					next = succ
				}
			}
		}
		if next == nil {
			return nil
		}
		cur = next
	}
	return cur
}
