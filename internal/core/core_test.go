package core

import (
	"encoding/json"
	"strconv"
	"strings"
	"testing"

	"repro/internal/apps"
	"repro/internal/dsim"
	"repro/internal/fault"
	"repro/internal/heal"
)

// buggy2PCSetup builds a simulation of the buggy 2PC with CIC checkpoints
// plus the factories the coordinator needs.
func buggy2PCSetup(buggy bool) (*dsim.Sim, map[string]func() dsim.Machine, apps.TwoPCConfig) {
	cfg := apps.TwoPCConfig{
		Participants: 2, NoVoters: []int{1}, SlowVoters: []int{1},
		Timeout: 10, VoteDelay: 100, Buggy: buggy,
	}
	s := dsim.New(dsim.Config{Seed: 1, MinLatency: 1, MaxLatency: 2, MaxSteps: 5000, CICheckpoint: true})
	for id, m := range apps.NewTwoPC(cfg) {
		s.AddProcess(id, m)
	}
	factories := map[string]func() dsim.Machine{}
	for id := range apps.NewTwoPC(cfg) {
		id := id
		factories[id] = func() dsim.Machine { return apps.NewTwoPC(cfg)[id] }
	}
	return s, factories, cfg
}

func TestFig4ProtocolEndToEnd(t *testing.T) {
	s, factories, _ := buggy2PCSetup(true)
	coord := NewCoordinator(s, factories, []fault.GlobalInvariant{apps.TwoPCAtomicity()}, Config{
		StopAtFirstViolation: true,
		MaxStates:            50_000,
		MaxDepth:             40,
	})
	resp := coord.RunProtected()
	if resp == nil {
		t.Fatal("no fault detected; the buggy 2PC should trip the participant's local check")
	}
	if resp.Fault.Proc != apps.PartName(1) {
		t.Errorf("detecting proc = %s, want part01", resp.Fault.Proc)
	}
	// Protocol messages: notify + reply per peer.
	if want := 2 * (len(s.Procs()) - 1); resp.Messages != want {
		t.Errorf("messages = %d, want %d", resp.Messages, want)
	}
	// The consistent line covers the checkpointing processes: every member
	// is a stored checkpoint, and no member knows more of a process than
	// that process's own member remembers (the latest checkpoints need not
	// be such a line).
	if len(resp.Line) == 0 {
		t.Error("no recovery line assembled despite CIC checkpoints")
	}
	for p, id := range resp.Line {
		if _, err := s.Store().ResolveLine(map[string]string{p: id}); err != nil {
			t.Errorf("line member %s of %s is not a stored checkpoint of it", id, p)
		}
		for q, cq := range resp.LineClocks {
			if got, own := cq.Get(p), resp.LineClocks[p].Get(p); got > own {
				t.Errorf("line is inconsistent: %s's member knows %d of %s, whose own member is at %d", q, got, p, own)
			}
		}
	}
	if resp.Investigation == nil || !resp.Investigation.Violating() {
		t.Fatalf("investigation = %+v; expected violation trails", resp.Investigation)
	}
}

func TestCoordinatorQuietOnCorrectRun(t *testing.T) {
	s, factories, _ := buggy2PCSetup(false)
	coord := NewCoordinator(s, factories, []fault.GlobalInvariant{apps.TwoPCAtomicity()}, Config{})
	resp := coord.RunProtected()
	if resp != nil {
		t.Fatalf("correct run triggered response: %+v", resp.Fault)
	}
}

func TestCoordinatorMaxResponses(t *testing.T) {
	s, factories, _ := buggy2PCSetup(true)
	coord := NewCoordinator(s, factories, []fault.GlobalInvariant{apps.TwoPCAtomicity()}, Config{
		StopAtFirstViolation: true,
		MaxStates:            5_000,
	})
	coord.RunProtected()
	if got := len(coord.Responses()); got != 1 {
		t.Errorf("responses = %d, want 1", got)
	}
}

func TestAutoHealBankOverdraft(t *testing.T) {
	// Buggy bank allows overdrafts; the fixed program (Buggy=false) is
	// auto-injected at the recovery line after investigation.
	bankCfg := apps.BankConfig{Branches: 2, AccountsPer: 2, InitialBalance: 50, Transfers: 30, MaxAmount: 60, Buggy: true}
	s := dsim.New(dsim.Config{Seed: 11, MaxSteps: 50_000, CICheckpoint: true, InitCheckpoint: true})
	for id, m := range apps.NewBank(bankCfg) {
		s.AddProcess(id, m)
	}
	fixedCfg := bankCfg
	fixedCfg.Buggy = false
	factories := map[string]func() dsim.Machine{}
	for id := range apps.NewBank(bankCfg) {
		id := id
		factories[id] = func() dsim.Machine { return apps.NewBank(bankCfg)[id] }
	}
	fixedFactories := map[string]func() dsim.Machine{}
	for id := range apps.NewBank(fixedCfg) {
		id := id
		fixedFactories[id] = func() dsim.Machine { return apps.NewBank(fixedCfg)[id] }
	}
	coord := NewCoordinator(s, factories, []fault.GlobalInvariant{apps.BankConservation(bankCfg)}, Config{
		StopAtFirstViolation: true,
		MaxStates:            2_000, // the bank's state space is huge; bound tightly
		MaxDepth:             8,
		AutoHeal:             &heal.Program{Version: "bank-v2", Factories: fixedFactories},
	})
	resp := coord.RunProtected()
	if resp == nil {
		t.Fatal("overdraft never detected")
	}
	if resp.Heal == nil {
		t.Fatal("auto-heal did not run")
	}
	if !resp.Heal.Verified() {
		t.Fatalf("heal refused: %v", resp.Heal.Failures)
	}
	// Resume: the fixed program must not overdraw again.
	s.Resume()
	var overdrafts int
	for _, id := range s.Procs() {
		var st struct{ Overdrafts int }
		if err := json.Unmarshal(s.MachineState(id), &st); err != nil {
			t.Fatal(err)
		}
		overdrafts += st.Overdrafts
	}
	if overdrafts != 0 {
		t.Errorf("overdrafts after heal = %d, want 0 (healed state was rolled back)", overdrafts)
	}
}

func TestRespondWithoutCheckpointsFallsBack(t *testing.T) {
	// No checkpoint policy: the line is empty and investigation falls back
	// to initial states.
	cfg := apps.TwoPCConfig{Participants: 2, NoVoters: []int{1}, SlowVoters: []int{1}, Timeout: 10, VoteDelay: 100, Buggy: true}
	s := dsim.New(dsim.Config{Seed: 1, MinLatency: 1, MaxLatency: 2, MaxSteps: 5000})
	for id, m := range apps.NewTwoPC(cfg) {
		s.AddProcess(id, m)
	}
	factories := map[string]func() dsim.Machine{}
	for id := range apps.NewTwoPC(cfg) {
		id := id
		factories[id] = func() dsim.Machine { return apps.NewTwoPC(cfg)[id] }
	}
	coord := NewCoordinator(s, factories, []fault.GlobalInvariant{apps.TwoPCAtomicity()}, Config{
		StopAtFirstViolation: true,
		MaxStates:            50_000,
		MaxDepth:             40,
	})
	resp := coord.RunProtected()
	if resp == nil {
		t.Fatal("no response")
	}
	if !resp.FellBackToNow {
		t.Errorf("expected fallback to initial/current states, line = %v", resp.Line)
	}
	if !resp.Investigation.Violating() {
		t.Error("fallback investigation missed the bug")
	}
}

// TestMissingFactoryError: a process without a model stops the protocol,
// and the recorded response keeps the fault and the peer count and says
// which process it was.
func TestMissingFactoryError(t *testing.T) {
	s, factories, _ := buggy2PCSetup(true)
	missing := apps.PartName(0)
	delete(factories, missing)
	coord := NewCoordinator(s, factories, []fault.GlobalInvariant{apps.TwoPCAtomicity()}, Config{
		StopAtFirstViolation: true,
	})
	resp := coord.RunProtected()
	if resp == nil {
		t.Fatal("no response recorded")
	}
	if resp.Err == nil || !strings.Contains(resp.Err.Error(), strconv.Quote(missing)) {
		t.Fatalf("Err = %v, want it to name %s", resp.Err, missing)
	}
	if resp.Fault.Proc == "" || resp.Messages != 2*(len(s.Procs())-1) || resp.Investigation != nil {
		t.Errorf("partial response = %+v, want the fault and messages, no investigation", resp)
	}
}
