package experiments

import (
	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/dsim"
	"repro/internal/fault"
)

// runE4 reproduces Figure 4 (the fault-response protocol): a process
// detects a fault locally, peers ship (checkpoint, model) replies, the
// coordinator assembles a consistent global checkpoint and investigates —
// across system sizes.
//
// Shape expectation: protocol messages grow linearly with the number of
// processes (2·(n−1)).
func runE4() *Table {
	t := &Table{
		ID:     "E4",
		Title:  "Figure 4: fault response — detect, collect, investigate",
		Header: []string{"procs", "protocol msgs", "line ckpts", "inv states", "trails"},
	}
	for _, n := range []int{3, 5, 9} {
		// n = 1 coordinator + (n-1) participants, one slow no-voter.
		cfg := apps.TwoPCConfig{
			Participants: n - 1, NoVoters: []int{n - 2}, SlowVoters: []int{n - 2},
			Timeout: 10, VoteDelay: 100, Buggy: true,
		}
		s, factories := twoPC(cfg, dsim.Config{Seed: int64(n), MinLatency: 1, MaxLatency: 2, MaxSteps: 10_000, CICheckpoint: true})
		coord := core.NewCoordinator(s, factories, []fault.GlobalInvariant{apps.TwoPCAtomicity()}, core.Config{
			StopAtFirstViolation: true,
			MaxStates:            30_000,
			MaxDepth:             40,
		})
		switch resp := coord.RunProtected(); {
		case resp == nil:
			t.Add(n, "-", "-", "-", "no fault")
		case resp.Err != nil:
			t.Add(n, resp.Messages, len(resp.Line), "-", resp.Err)
		default:
			t.Add(n, resp.Messages, len(resp.Line), resp.Investigation.StatesExplored, len(resp.Investigation.Trails))
		}
	}
	t.Note("protocol msgs = notify + (checkpoint, model) reply per peer = 2(n-1), as in Fig. 4")
	t.Note("the environment (network) is modeled inside the Investigator, not shipped by peers (paper §3.3)")
	return t
}
