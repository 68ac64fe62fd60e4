package experiments

import (
	"fmt"

	"repro/internal/apps"
	"repro/internal/baselines"
	"repro/internal/core"
	"repro/internal/dsim"
	"repro/internal/fault"
	"repro/internal/investigate"
)

// buggyTwoPC is the faulty 2PC E3 and the Figure 8 demos share: the second
// participant is a slow no-voter, and the buggy coordinator commits on
// timeout anyway.
var buggyTwoPC = apps.TwoPCConfig{
	Participants: 2, NoVoters: []int{1}, SlowVoters: []int{1},
	Timeout: 10, VoteDelay: 100, Buggy: true,
}

// buggy2PC builds buggyTwoPC's seeded run and its models.
func buggy2PC() (*dsim.Sim, map[string]func() dsim.Machine) {
	return twoPC(buggyTwoPC, dsim.Config{Seed: 1, MinLatency: 1, MaxLatency: 2, MaxSteps: 5000, CICheckpoint: true})
}

// investigate2PC runs buggy2PC under a coordinator configured by cfg and
// returns the investigation of its fault.
func investigate2PC(cfg core.Config) (*investigate.Report, error) {
	s, factories := buggy2PC()
	resp := core.NewCoordinator(s, factories, []fault.GlobalInvariant{apps.TwoPCAtomicity()}, cfg).RunProtected()
	switch {
	case resp == nil:
		return nil, fmt.Errorf("no fault")
	case resp.Err != nil:
		return nil, resp.Err
	}
	return resp.Investigation, nil
}

// twoPC builds a simulation of cfg under sc, with the models of its
// processes.
func twoPC(cfg apps.TwoPCConfig, sc dsim.Config) (*dsim.Sim, map[string]func() dsim.Machine) {
	s := dsim.New(sc)
	for id, m := range apps.NewTwoPC(cfg) {
		s.AddProcess(id, m)
	}
	return s, twoPCFactories(cfg)
}

// twoPCFactories returns a fresh-instance constructor per process of cfg:
// the model each process ships to the coordinator.
func twoPCFactories(cfg apps.TwoPCConfig) map[string]func() dsim.Machine {
	factories := map[string]func() dsim.Machine{}
	for id := range apps.NewTwoPC(cfg) {
		factories[id] = func() dsim.Machine { return apps.NewTwoPC(cfg)[id] }
	}
	return factories
}

// runE3 reproduces Figure 3 (the Investigator) and ablation A4: exhaustive
// exploration from a restored checkpoint versus CMC-style exploration from
// the initial state, hunting the 2PC timeout-commit atomicity bug.
//
// Shape expectation: both find the violation, but the checkpoint-seeded
// investigation starts near the fault, so the violation trail is shorter
// and fewer states are needed before the first hit.
func runE3() *Table {
	t := &Table{
		ID:     "E3",
		Title:  "Figure 3: the Investigator — trails to invariant violations",
		Header: []string{"approach", "states", "transitions", "trails", "shortest trail", "truncated"},
	}
	const maxStates = 100_000

	// Baseline: CMC-style, from the initial state.
	cmc, err := baselines.CMCCheck(twoPCFactories(buggyTwoPC), []fault.GlobalInvariant{apps.TwoPCAtomicity()}, maxStates, 40)
	if err != nil {
		t.Note("CMC baseline failed: %v", err)
	} else {
		t.Add("cmc-from-initial", cmc.StatesExplored, cmc.Transitions, cmc.Violations, cmc.ShortestTrail, cmc.Truncated)
	}

	// FixD: run live until the participant detects the fault, then let the
	// coordinator assemble the consistent checkpoint line and investigate.
	inv, err := investigate2PC(core.Config{MaxStates: maxStates, MaxDepth: 40})
	if err != nil {
		t.Note("FixD pipeline did not produce an investigation: %v", err)
		return t
	}
	shortest := 0
	if tr := inv.ShortestTrail(); tr != nil {
		shortest = len(tr.Steps)
	}
	t.Add("fixd-from-checkpoint", inv.StatesExplored, inv.Transitions, len(inv.Trails), shortest, inv.Truncated)
	if cmc != nil && shortest > 0 && cmc.ShortestTrail > 0 && shortest <= cmc.ShortestTrail {
		t.Note("checkpoint-seeded trail (%d steps) <= from-initial trail (%d steps): rollback places the root of the search near the fault (A4)", shortest, cmc.ShortestTrail)
	}
	t.Note("trails are action sequences (deliver/timer/drop) replayable in the model checker")
	return t
}
