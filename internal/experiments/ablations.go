package experiments

import (
	"encoding/json"
	"maps"
	"slices"

	"repro/internal/apps"
	"repro/internal/dsim"
	"repro/internal/investigate"
)

// runAblations prints the ablation summary: each row isolates one design
// choice the paper calls out and quantifies its effect. This table measures
// A2 and A5 and cross-references the rest.
func runAblations() *Table {
	t := &Table{
		ID:     "ABL",
		Title:  "Ablations — design choices isolated",
		Header: []string{"id", "design choice", "with", "without", "metric"},
	}

	// A2: alternate execution path on rollback (speculations difference (2)).
	regWith, regWithout := ablationAlternatePath()
	t.Add("A2", "alternate path after rollback", regWith, regWithout, "buggy regenerations after recovery")

	// A5: environment modeled vs absent (from the integration measurements).
	plain, rich := ablationEnvModel()
	t.Add("A5", "environment models (loss+crash)", rich, plain, "states explored (coverage)")

	t.Note("A1 (COW copies only dirty pages) is pinned by checkpoint.TestCOWCopiesOnlyDirtyPages; " +
		"A3 (heuristic vs BFS search order) is E7's to-bug rows; A4 (checkpoint-seeded vs from-initial) is E3")
	t.Note("A2: after the Time Machine rollback, machines flip to the checked path, so zero further buggy actions")
	t.Note("A5: richer environment models cover strictly more behaviours at the cost of a larger space")
	return t
}

// ablationAlternatePath measures buggy-action occurrences after recovery,
// with and without the alternate-path flip.
func ablationAlternatePath() (withAlt, withoutAlt int) {
	run := func(takeAlternate bool) int {
		cfg := apps.TokenRingConfig{N: 3, Rounds: 40, Buggy: true, RegenTimeout: 8}
		s := dsim.New(dsim.Config{
			Seed: 3, MinLatency: 5, MaxLatency: 20, MaxSteps: 20_000,
			CICheckpoint: true, InitCheckpoint: true,
		})
		for id, m := range apps.NewTokenRing(cfg) {
			s.AddProcess(id, m)
		}
		s.SetFaultHandler(func(dsim.FaultRecord) bool { return true })
		s.Run()
		if len(s.Faults()) == 0 {
			return 0
		}
		// Roll everyone back to their latest checkpoints.
		line := map[string]string{}
		for _, id := range s.Procs() {
			if ck := s.Store().Latest(id); ck != nil {
				line[id] = ck.ID
			}
		}
		if err := s.RollbackTo(line); err != nil {
			return -1
		}
		if !takeAlternate {
			// Suppress the alternate path by re-flagging machines as
			// unfixed (simulating a rollback mechanism without the
			// alternate-branch capability).
			for _, id := range s.Procs() {
				var st struct {
					HasToken  bool
					Passes    int
					Regens    int
					InCS      bool
					CSEntries int
					Fixed     bool
				}
				json.Unmarshal(s.MachineState(id), &st)
				st.Fixed = false
				b, _ := json.Marshal(&st)
				s.ReplaceMachine(id, apps.NewTokenRing(cfg)[id], b)
			}
		}
		atLine := totalRegens(s)
		// Residual duplicate tokens from before the line may still collide;
		// the metric here is buggy *regenerations*, so keep running through
		// any such faults.
		s.SetFaultHandler(nil)
		s.Resume()
		return totalRegens(s) - atLine
	}
	return run(true), run(false)
}

func totalRegens(s *dsim.Sim) int {
	n := 0
	for _, id := range s.Procs() {
		var st struct{ Regens int }
		if err := json.Unmarshal(s.MachineState(id), &st); err == nil {
			n += st.Regens
		}
	}
	return n
}

// ablationEnvModel returns explored-state counts without and with the
// loss+crash environment models on correct 2PC.
func ablationEnvModel() (plain, rich int) {
	factories := twoPCFactories(apps.TwoPCConfig{Participants: 2})
	run := func(env bool) int {
		var models []investigate.ProcModel
		for _, id := range slices.Sorted(maps.Keys(factories)) {
			models = append(models, investigate.ProcModel{Proc: id, New: factories[id]})
		}
		rep, err := investigate.Run(models, nil, nil, investigate.Config{
			ModelLoss: env, ModelCrash: env,
			MaxStates: 50_000, MaxDepth: 20,
		})
		if err != nil {
			return -1
		}
		return rep.StatesExplored
	}
	return run(false), run(true)
}
