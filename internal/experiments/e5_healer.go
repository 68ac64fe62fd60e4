package experiments

import (
	"encoding/json"

	"repro/internal/apps"
	"repro/internal/dsim"
	"repro/internal/fault"
	"repro/internal/heal"
)

// runE5 reproduces Figure 5 (the Healer) and ablation A2: after a bug is
// found mid-computation, compare restart-from-scratch against dynamic
// update + resume from a checkpoint, measuring how much completed work
// each recovery preserves.
//
// Shape expectation: restart preserves 0% of the work; update+resume
// preserves the fraction completed up to the recovery line, and both end
// with a correct (invariant-satisfying) state.
func runE5() *Table {
	t := &Table{
		ID:     "E5",
		Title:  "Figure 5: the Healer — restart vs dynamic update + resume",
		Header: []string{"recovery", "work at fix", "work preserved", "preserved %", "re-executed", "final ok"},
	}
	bugCfg := apps.BankConfig{Branches: 3, AccountsPer: 4, InitialBalance: 1000, Transfers: 40, LoseCredits: 5}
	fixCfg := bugCfg
	fixCfg.LoseCredits = 0

	fixedFactories := map[string]func() dsim.Machine{}
	for id := range apps.NewBank(fixCfg) {
		id := id
		fixedFactories[id] = func() dsim.Machine { return apps.NewBank(fixCfg)[id] }
	}
	prog := heal.Program{Version: "bank-fixed", Factories: fixedFactories}
	conserve := apps.BankConservation(fixCfg)

	progress := func(s *dsim.Sim) int {
		total := 0
		for _, id := range s.Procs() {
			var st struct{ Initiated int }
			if err := json.Unmarshal(s.MachineState(id), &st); err == nil {
				total += st.Initiated
			}
		}
		return total
	}

	// Run the buggy system to completion — money has leaked by the end.
	runBuggy := func() *dsim.Sim {
		s := dsim.New(dsim.Config{Seed: 17, MaxSteps: 100_000, CheckpointEvery: 4, InitCheckpoint: true})
		for id, m := range apps.NewBank(bugCfg) {
			s.AddProcess(id, m)
		}
		s.Run()
		return s
	}

	// Option 1: restart from scratch with the fixed program.
	buggy := runBuggy()
	atFix := progress(buggy)
	s2, _ := heal.Restart(dsim.Config{Seed: 17, MaxSteps: 100_000}, prog)
	s2.Run()
	ok := len(fault.NewMonitor(conserve).Check(s2)) == 0
	t.Add("restart", atFix, 0, 0.0, progress(s2), ok)

	// Option 2: dynamic update at the latest consistent line + resume.
	buggy2 := runBuggy()
	atFix2 := progress(buggy2)
	line := heal.VerifiedLine(buggy2, nil)
	rep, err := heal.Apply(buggy2, line, prog, nil, heal.VerifyOptions{})
	if err != nil || !rep.Verified() {
		t.Note("dynamic update failed: %v / %v", err, rep)
		return t
	}
	preserved := progress(buggy2) // work restored at the line
	type ledger struct{ LocalTotal, SentCredits, RecvCredits, LostCredits int64 }
	books := func(s *dsim.Sim) (sum ledger) { // summed over every branch
		for _, id := range s.Procs() {
			var b ledger
			if err := json.Unmarshal(s.MachineState(id), &b); err == nil {
				sum.LocalTotal += b.LocalTotal
				sum.SentCredits += b.SentCredits
				sum.RecvCredits += b.RecvCredits
				sum.LostCredits += b.LostCredits
			}
		}
		return sum
	}
	// Losses baked into the restored prefix are the price of a late line;
	// the healed code must not lose anything *further*, and at quiescence
	// every credit sent has been received and every unit minted is either
	// in an account or among the losses.
	lostAtLine := books(buggy2).LostCredits
	buggy2.Resume()
	final := progress(buggy2)
	end := books(buggy2)
	minted := int64(bugCfg.Branches) * int64(bugCfg.AccountsPer) * bugCfg.InitialBalance
	healed := end.LostCredits == lostAtLine && end.SentCredits == end.RecvCredits && end.LocalTotal+end.LostCredits == minted
	t.Add("update+resume", atFix2, preserved, 100*float64(preserved)/float64(max(atFix2, 1)), final-preserved, healed)
	t.Note("work = transfers initiated; update+resume keeps the checkpointed prefix (paper §3.4: 'use computation that was correctly performed')")
	t.Note("ablation A2: the healed machines run the alternate (checked) path after rollback instead of replaying the faulty one")
	return t
}
