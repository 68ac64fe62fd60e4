package modeld

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"
)

// counter is a minimal State for engine tests.
type counter struct{ n int }

func (c *counter) Key() string  { return fmt.Sprintf("%d", c.n) }
func (c *counter) Clone() State { return &counter{n: c.n} }

// incAction returns an action that adds d while the guard holds.
func incAction(name string, d, limit int) Action {
	return NewAction(name,
		func(s State) bool { return s.(*counter).n+d <= limit && s.(*counter).n+d >= -limit },
		func(s State) { s.(*counter).n += d })
}

func TestStrategyString(t *testing.T) {
	want := map[Strategy]string{BFS: "bfs", DFS: "dfs", Heuristic: "heuristic", RandomWalk: "random", SinglePath: "single", Strategy(9): "Strategy(9)"}
	for s, w := range want {
		if got := s.String(); got != w {
			t.Errorf("%d.String() = %q, want %q", int(s), got, w)
		}
	}
}

func TestBFSExploresAllStates(t *testing.T) {
	e := NewEngine()
	e.AddAction(incAction("inc", 1, 5))
	res := e.Explore(&counter{}, Options{Strategy: BFS})
	if res.StatesVisited != 6 { // 0..5
		t.Errorf("states = %d, want 6", res.StatesVisited)
	}
	if res.Truncated {
		t.Error("should not truncate")
	}
	if len(res.Violations) != 0 {
		t.Errorf("violations = %v", res.Violations)
	}
}

func TestBFSAndDFSReachSameStates(t *testing.T) {
	build := func() *Engine {
		e := NewEngine()
		e.AddAction(incAction("inc", 1, 8))
		e.AddAction(incAction("dec", -1, 8))
		e.AddAction(incAction("double-ish", 3, 8))
		return e
	}
	rb := build().Explore(&counter{}, Options{Strategy: BFS})
	rd := build().Explore(&counter{}, Options{Strategy: DFS})
	if rb.StatesVisited != rd.StatesVisited {
		t.Errorf("BFS states %d != DFS states %d", rb.StatesVisited, rd.StatesVisited)
	}
}

func TestViolationTrailIsReplayable(t *testing.T) {
	e := NewEngine()
	e.AddAction(incAction("inc", 1, 10))
	e.AddInvariant(Invariant{Name: "n<4", Holds: func(s State) bool { return s.(*counter).n < 4 }})
	res := e.Explore(&counter{}, Options{Strategy: BFS})
	if len(res.Violations) == 0 {
		t.Fatal("no violation found")
	}
	v := res.ShortestViolation()
	if v.Invariant != "n<4" {
		t.Errorf("invariant = %q", v.Invariant)
	}
	if len(v.Trail) != 4 {
		t.Fatalf("trail = %v, want 4 incs", v.Trail)
	}
	// Replay the trail from the root and confirm it reaches the state.
	cur := State(&counter{})
	actions := e.Actions()
	for _, step := range v.Trail {
		var found bool
		for _, a := range actions {
			if a.Name() == step.Action && a.Enabled(cur) {
				cur = a.Apply(cur)[0]
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("trail step %v not applicable", step)
		}
		if cur.Key() != step.StateKey {
			t.Fatalf("replay diverged: %s != %s", cur.Key(), step.StateKey)
		}
	}
	if cur.(*counter).n != 4 {
		t.Errorf("replayed to n=%d, want 4", cur.(*counter).n)
	}
}

func TestBFSShortestCounterexample(t *testing.T) {
	// With inc(+3) and inc(+1), BFS must find the 2-step path to n>=4
	// (3+1 or 3+3), not a 4-step all-ones path.
	e := NewEngine()
	e.AddAction(incAction("inc3", 3, 100))
	e.AddAction(incAction("inc1", 1, 100))
	e.AddInvariant(Invariant{Name: "n<4", Holds: func(s State) bool { return s.(*counter).n < 4 }})
	res := e.Explore(&counter{}, Options{Strategy: BFS, StopAtFirstViolation: true, MaxStates: 1000})
	if len(res.Violations) == 0 {
		t.Fatal("no violation")
	}
	if d := res.Violations[0].Depth; d != 2 {
		t.Errorf("first violation depth = %d, want 2 (BFS shortest)", d)
	}
}

func TestMaxStatesTruncation(t *testing.T) {
	e := NewEngine()
	e.AddAction(incAction("inc", 1, 1_000_000))
	res := e.Explore(&counter{}, Options{Strategy: BFS, MaxStates: 50})
	if !res.Truncated {
		t.Error("want truncation")
	}
	if res.StatesVisited > 50 {
		t.Errorf("visited %d > MaxStates", res.StatesVisited)
	}
}

func TestMaxDepth(t *testing.T) {
	e := NewEngine()
	e.AddAction(incAction("inc", 1, 1_000_000))
	res := e.Explore(&counter{}, Options{Strategy: BFS, MaxDepth: 7})
	if res.StatesVisited != 8 { // depths 0..7
		t.Errorf("states = %d, want 8", res.StatesVisited)
	}
	if !res.Truncated {
		t.Error("depth-bounded run should report truncation")
	}
}

func TestDeadlockDetection(t *testing.T) {
	e := NewEngine()
	e.AddAction(incAction("inc", 1, 3)) // disabled once n=3
	res := e.Explore(&counter{}, Options{Strategy: BFS, CheckDeadlock: true})
	if len(res.Deadlocks) != 1 || res.Deadlocks[0] != "3" {
		t.Errorf("deadlocks = %v, want [3]", res.Deadlocks)
	}
}

// TestDeadlockAtDepthBound: a state at MaxDepth with no enabled action is
// a deadlock, and since nothing lies beyond it the run is not truncated.
func TestDeadlockAtDepthBound(t *testing.T) {
	e := NewEngine()
	e.AddAction(incAction("inc", 1, 3)) // disabled once n=3
	for _, s := range []Strategy{BFS, DFS} {
		res := e.Explore(&counter{}, Options{Strategy: s, MaxDepth: 3, CheckDeadlock: true})
		if len(res.Deadlocks) != 1 || res.Deadlocks[0] != "3" || res.Truncated {
			t.Errorf("%v: deadlocks = %v, truncated = %v; want [3] and false", s, res.Deadlocks, res.Truncated)
		}
	}
}

func TestHeuristicSearchOrder(t *testing.T) {
	// Heuristic that prefers larger n should find the violation with far
	// fewer visited states than plain BFS on a wide graph.
	build := func() *Engine {
		e := NewEngine()
		e.AddAction(incAction("inc1", 1, 60))
		e.AddAction(incAction("dec1", -1, 60))
		e.AddInvariant(Invariant{Name: "n<50", Holds: func(s State) bool { return s.(*counter).n < 50 }})
		return e
	}
	greedy := build().Explore(&counter{}, Options{
		Strategy:             Heuristic,
		Heuristic:            func(s State, depth int) int { return -s.(*counter).n },
		StopAtFirstViolation: true,
		MaxStates:            10_000,
	})
	if len(greedy.Violations) == 0 {
		t.Fatal("heuristic found no violation")
	}
	if greedy.StatesVisited > 60 {
		t.Errorf("heuristic visited %d states, want <= 60", greedy.StatesVisited)
	}
}

func TestRandomWalkFindsViolation(t *testing.T) {
	e := NewEngine()
	e.AddAction(incAction("inc", 1, 100))
	e.AddInvariant(Invariant{Name: "n<10", Holds: func(s State) bool { return s.(*counter).n < 10 }})
	res := e.Explore(&counter{}, Options{Strategy: RandomWalk, Seed: 42, MaxDepth: 50, StopAtFirstViolation: true})
	if len(res.Violations) == 0 {
		t.Error("random walk found no violation on a single corridor")
	}
}

func TestRandomWalkDeterministicForSeed(t *testing.T) {
	run := func() *Result {
		e := NewEngine()
		e.AddAction(incAction("inc", 1, 30))
		e.AddAction(incAction("dec", -1, 30))
		return e.Explore(&counter{}, Options{Strategy: RandomWalk, Seed: 7, MaxDepth: 20})
	}
	a, b := run(), run()
	if a.StatesVisited != b.StatesVisited || a.Transitions != b.Transitions {
		t.Errorf("same seed gave different results: %+v vs %+v", a, b)
	}
}

func TestSinglePathFollowsConventionalExecution(t *testing.T) {
	// Two actions enabled everywhere; single-path with default pick always
	// takes the first, executing exactly one schedule (paper §4.3).
	e := NewEngine()
	e.AddAction(incAction("step", 1, 5))
	e.AddAction(incAction("other", 2, 5))
	res := e.Explore(&counter{}, Options{Strategy: SinglePath})
	// Path: 0→1→2→3→4→5, then "step" disabled but "other" would exceed...
	// at n=4: step→5. at n=5: none enabled (5+1>5, 5+2>5). 6 states.
	if res.StatesVisited != 6 {
		t.Errorf("states = %d, want 6 (single path)", res.StatesVisited)
	}
	if res.Transitions != 5 {
		t.Errorf("transitions = %d, want 5", res.Transitions)
	}
}

func TestSinglePathCustomPick(t *testing.T) {
	// The caller picks the path by ordering the action set.
	e := NewEngine()
	e.AddAction(incAction("fast", 5, 10))
	e.AddAction(incAction("slow", 1, 10))
	res := e.Explore(&counter{}, Options{Strategy: SinglePath})
	if res.Transitions != 2 { // 0→5→10
		t.Errorf("transitions = %d, want 2 via fast", res.Transitions)
	}
}

func TestSinglePathDetectsViolationOnPath(t *testing.T) {
	e := NewEngine()
	e.AddAction(incAction("inc", 1, 10))
	e.AddInvariant(Invariant{Name: "n!=3", Holds: func(s State) bool { return s.(*counter).n != 3 }})
	res := e.Explore(&counter{}, Options{Strategy: SinglePath, StopAtFirstViolation: true})
	if len(res.Violations) != 1 || res.Violations[0].Depth != 3 {
		t.Errorf("violations = %+v", res.Violations)
	}
}

func TestDynamicActionSet(t *testing.T) {
	e := NewEngine()
	res := e.Explore(&counter{}, Options{Strategy: BFS})
	if res.StatesVisited != 1 {
		t.Errorf("empty action set explored %d states", res.StatesVisited)
	}
	// An action added between explorations is in the next one.
	e.AddAction(incAction("patched", 2, 4))
	res = e.Explore(&counter{}, Options{Strategy: BFS})
	if res.StatesVisited != 3 { // 0,2,4
		t.Errorf("patched set explored %d states, want 3", res.StatesVisited)
	}
	if got := len(e.Actions()); got != 1 {
		t.Errorf("Actions len = %d", got)
	}
}

func TestBranchingAction(t *testing.T) {
	e := NewEngine()
	e.AddAction(NewBranchingAction("fork",
		func(s State) bool { return s.(*counter).n == 0 },
		func(s State) []State { return []State{&counter{n: 1}, &counter{n: 2}} }))
	res := e.Explore(&counter{}, Options{Strategy: BFS})
	if res.StatesVisited != 3 {
		t.Errorf("states = %d, want 3", res.StatesVisited)
	}
	if res.Transitions != 2 {
		t.Errorf("transitions = %d, want 2", res.Transitions)
	}
}

func TestShortestViolationNil(t *testing.T) {
	r := &Result{}
	if r.ShortestViolation() != nil {
		t.Error("want nil on empty")
	}
}

func TestQuickBFSDFSSameReachableSet(t *testing.T) {
	// Property: for random small action sets, BFS and DFS visit identical
	// state counts (the reachable set is strategy independent).
	f := func(deltas []int8, limit8 uint8) bool {
		limit := int(limit8%20) + 5
		if len(deltas) == 0 {
			return true
		}
		if len(deltas) > 5 {
			deltas = deltas[:5]
		}
		build := func() *Engine {
			e := NewEngine()
			for i, d := range deltas {
				dd := int(d % 5)
				if dd == 0 {
					dd = 1
				}
				e.AddAction(incAction(fmt.Sprintf("a%d", i), dd, limit))
			}
			return e
		}
		rb := build().Explore(&counter{}, Options{Strategy: BFS, MaxStates: 10_000})
		rd := build().Explore(&counter{}, Options{Strategy: DFS, MaxStates: 10_000})
		return rb.StatesVisited == rd.StatesVisited && !rb.Truncated && !rd.Truncated
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestTrailStepsJoinable(t *testing.T) {
	e := NewEngine()
	e.AddAction(incAction("inc", 1, 5))
	e.AddInvariant(Invariant{Name: "n<5", Holds: func(s State) bool { return s.(*counter).n < 5 }})
	res := e.Explore(&counter{}, Options{Strategy: BFS})
	v := res.ShortestViolation()
	var names []string
	for _, s := range v.Trail {
		names = append(names, s.Action)
	}
	if got := strings.Join(names, ","); got != "inc,inc,inc,inc,inc" {
		t.Errorf("trail = %s", got)
	}
}
