package experiments

import (
	"fmt"

	"repro/internal/guard"
	"repro/internal/modeld"
)

// runE7 reproduces Figure 7 (the ModelD engine) and the feasibility claim
// of paper §2.1: exhaustive exploration of a distributed model grows
// exponentially in the number of processes, making "more than 5-10
// processes" prohibitively expensive — the reason FixD investigates from
// checkpoints instead of whole-system model checking.
//
// The model is an n-process flag-based mutual-exclusion protocol written
// in the guarded-command front-end. It stops at six processes: the seventh
// alone costs more than the rest of the suite.
func runE7() *Table {
	t := &Table{
		ID:     "E7",
		Title:  "Figure 7: ModelD engine — state-space growth by process count",
		Header: []string{"procs", "strategy", "states", "transitions", "bytes/state", "growth x"},
	}
	const n = 6
	prevStates := 0
	for procs := 2; procs <= n; procs++ {
		root, engine := mutexModel(procs)
		res := engine.Explore(root, modeld.Options{Strategy: modeld.BFS, MaxStates: 2_000_000})
		growth := "-"
		if prevStates > 0 {
			growth = fmt.Sprintf("%.2f", float64(res.StatesVisited)/float64(prevStates))
		}
		t.Add(procs, "bfs", res.StatesVisited, res.Transitions, res.GraphBytes/max(res.StatesVisited, 1), growth)
		prevStates = res.StatesVisited
	}

	// Search-order customization (ablation A3): a heuristic that chases
	// high occupancy finds the (injected) violation far earlier than BFS.
	rootB, engineB := buggyMutexModel(n)
	bfs := engineB.Explore(rootB, modeld.Options{Strategy: modeld.BFS, MaxStates: 2_000_000, StopAtFirstViolation: true})
	rootH, engineH := buggyMutexModel(n)
	heur := engineH.Explore(rootH, modeld.Options{
		Strategy:             modeld.Heuristic,
		MaxStates:            2_000_000,
		StopAtFirstViolation: true,
		Heuristic: func(s modeld.State, depth int) int {
			v := s.(guard.Vars)
			inCS := 0
			for i := 0; i < n; i++ {
				inCS += int(v.Get(fmt.Sprintf("cs%d", i)))
			}
			return -inCS*100 + depth
		},
	})
	t.Add(n, "bfs-to-bug", bfs.StatesVisited, bfs.Transitions, "-", "-")
	t.Add(n, "heuristic-to-bug", heur.StatesVisited, heur.Transitions, "-", "-")
	t.Note("growth x is states(n)/states(n-1): exponential — the 5-10 process wall of paper §2.1")
	t.Note("the to-bug rows are ablation A3: a customized search order reaches the same violation in fewer states than BFS")
	return t
}

// mutexModel builds a safe n-process flag+turn mutual exclusion model.
func mutexModel(n int) (modeld.State, *modeld.Engine) {
	m := guard.NewModel().Init("turn", 0)
	for i := 0; i < n; i++ {
		i := i
		cs := fmt.Sprintf("cs%d", i)
		m.Init(cs, 0)
		m.Action(fmt.Sprintf("p%d-enter", i)).
			When(func(v guard.Vars) bool { return v.Get("turn") == int64(i) && v.Get(cs) == 0 }).
			Do(func(v guard.Vars) { v.Set(cs, 1) })
		m.Action(fmt.Sprintf("p%d-leave", i)).
			When(func(v guard.Vars) bool { return v.Get(cs) == 1 }).
			Do(func(v guard.Vars) {
				v.Set(cs, 0)
				v.Set("turn", (int64(i)+1)%int64(n))
			})
		// Independent local work bits make the state space grow
		// exponentially with n (each process has private states).
		w := fmt.Sprintf("w%d", i)
		m.Init(w, 0)
		m.Action(fmt.Sprintf("p%d-work", i)).
			When(func(v guard.Vars) bool { return v.Get(w) < 2 }).
			Do(func(v guard.Vars) { v.Set(w, v.Get(w)+1) })
		m.Action(fmt.Sprintf("p%d-rest", i)).
			When(func(v guard.Vars) bool { return v.Get(w) > 0 }).
			Do(func(v guard.Vars) { v.Set(w, v.Get(w)-1) })
	}
	m.Invariant("mutex", func(v guard.Vars) bool {
		in := 0
		for i := 0; i < n; i++ {
			in += int(v.Get(fmt.Sprintf("cs%d", i)))
		}
		return in <= 1
	})
	return m.Build()
}

// buggyMutexModel additionally lets a process barge in without the turn
// once its work counter is high — a deep, schedule-dependent violation.
func buggyMutexModel(n int) (modeld.State, *modeld.Engine) {
	m := guard.NewModel().Init("turn", 0)
	for i := 0; i < n; i++ {
		i := i
		cs := fmt.Sprintf("cs%d", i)
		w := fmt.Sprintf("w%d", i)
		m.Init(cs, 0)
		m.Init(w, 0)
		m.Action(fmt.Sprintf("p%d-enter", i)).
			When(func(v guard.Vars) bool { return v.Get("turn") == int64(i) && v.Get(cs) == 0 }).
			Do(func(v guard.Vars) { v.Set(cs, 1) })
		m.Action(fmt.Sprintf("p%d-barge", i)).
			When(func(v guard.Vars) bool { return v.Get(w) >= 2 && v.Get(cs) == 0 }).
			Do(func(v guard.Vars) { v.Set(cs, 1) }) // BUG: ignores the turn
		m.Action(fmt.Sprintf("p%d-leave", i)).
			When(func(v guard.Vars) bool { return v.Get(cs) == 1 }).
			Do(func(v guard.Vars) {
				v.Set(cs, 0)
				v.Set("turn", (int64(i)+1)%int64(n))
			})
		m.Action(fmt.Sprintf("p%d-work", i)).
			When(func(v guard.Vars) bool { return v.Get(w) < 2 }).
			Do(func(v guard.Vars) { v.Set(w, v.Get(w)+1) })
	}
	m.Invariant("mutex", func(v guard.Vars) bool {
		in := 0
		for i := 0; i < n; i++ {
			in += int(v.Get(fmt.Sprintf("cs%d", i)))
		}
		return in <= 1
	})
	return m.Build()
}
