package heal

import (
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"repro/internal/apps"
	"repro/internal/checkpoint"
	"repro/internal/dsim"
	"repro/internal/fault"
)

// accState is the v1 machine state.
type accState struct {
	Sum  int
	Bug  bool
	Alt  bool
	Init int
}

// accumulator v1: adds payload values; the "bug" doubles every value once
// Sum passes a threshold.
type accumulator struct {
	st    accState
	buggy bool
}

func (a *accumulator) State() any        { return &a.st }
func (a *accumulator) Init(dsim.Context) { a.st.Init++ }
func (a *accumulator) OnMessage(ctx dsim.Context, from string, payload []byte) {
	v := int(payload[0])
	if a.buggy && a.st.Sum >= 10 {
		v *= 2 // BUG: double-count
		a.st.Bug = true
	}
	a.st.Sum += v
	ctx.Heap().WriteUint64(0, uint64(a.st.Sum))
	if a.st.Sum%5 == 0 {
		ctx.Checkpoint("periodic")
	}
}
func (a *accumulator) OnTimer(dsim.Context, string) {}
func (a *accumulator) OnRollback(ctx dsim.Context, info dsim.RollbackInfo) {
	a.st.Alt = true
}

// feeder sends 1s.
type feeder struct {
	st struct{ Sent int }
	n  int
	to string
}

func (f *feeder) State() any { return &f.st }
func (f *feeder) Init(ctx dsim.Context) {
	for i := 0; i < f.n; i++ {
		ctx.Send(f.to, []byte{1})
		f.st.Sent++
	}
}
func (f *feeder) OnMessage(dsim.Context, string, []byte) {}
func (f *feeder) OnTimer(dsim.Context, string)           {}
func (f *feeder) OnRollback(dsim.Context, dsim.RollbackInfo) {
}

func buggySim(n int) (*dsim.Sim, *accumulator) {
	s := dsim.New(dsim.Config{Seed: 1, MinLatency: 1, MaxLatency: 1})
	acc := &accumulator{buggy: true}
	s.AddProcess("acc", acc)
	s.AddProcess("feed", &feeder{n: n, to: "acc"})
	return s, acc
}

func fixedProgram(n int) Program {
	return Program{
		Version: "v2",
		Factories: map[string]func() dsim.Machine{
			"acc":  func() dsim.Machine { return &accumulator{} }, // fixed
			"feed": func() dsim.Machine { return &feeder{n: n, to: "acc"} },
		},
	}
}

// stateJSON reads a checkpoint's machine state through the JSON accessor.
func stateJSON(t *testing.T, ck *checkpoint.Checkpoint) []byte {
	t.Helper()
	b, err := ck.StateJSON()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func sumInvariant(max int) fault.GlobalInvariant {
	return fault.GlobalInvariant{
		Name: "sum-not-overcounted",
		Holds: func(states *fault.States) bool {
			if !states.Has("acc") {
				return true
			}
			st, err := fault.Get[accState](states, "acc")
			if err != nil {
				return false
			}
			return st.Sum <= max && !st.Bug
		},
	}
}

func TestRestartRecovery(t *testing.T) {
	s, rep := Restart(dsim.Config{Seed: 1}, fixedProgram(20))
	if rep.Mode != "restart" || !rep.Verified() {
		t.Fatalf("report = %+v", rep)
	}
	s.Run()
	// Fixed program: 20 feeds of 1 → exactly 20.
	var st accState
	if err := json.Unmarshal(s.MachineState("acc"), &st); err != nil {
		t.Fatal(err)
	}
	if st.Sum != 20 || st.Bug {
		t.Errorf("restarted sum = %+v", st)
	}
}

func TestUpdatePreservesWork(t *testing.T) {
	s, acc := buggySim(20)
	s.Run()
	// Buggy run overcounts: 10 ones, then 10 doubled → 10 + 20 = 30.
	if acc.st.Sum != 30 || !acc.st.Bug {
		t.Fatalf("buggy sum = %+v, want 30 with Bug", acc.st)
	}
	// Recovery line: acc's checkpoint at Sum==10 (the last one where the
	// invariant held); feeder has no checkpoint, so build the line
	// manually for acc only.
	var target string
	for _, ck := range s.Store().List("acc") {
		var st accState
		if err := json.Unmarshal(stateJSON(t, ck), &st); err != nil {
			t.Fatal(err)
		}
		if st.Sum == 10 {
			target = ck.ID
		}
	}
	if target == "" {
		t.Fatal("no checkpoint at Sum==10")
	}
	rep, err := Apply(s, map[string]string{"acc": target}, fixedProgram(0), nil, VerifyOptions{
		Invariants: []fault.GlobalInvariant{sumInvariant(10)},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Verified() {
		t.Fatalf("update refused: %+v", rep.Failures)
	}
	// The in-transit messages at the line are re-delivered to the fixed
	// machine: the 10 not-yet-consumed feeds now add 1 each.
	s.Resume()
	var st accState
	if err := json.Unmarshal(s.MachineState("acc"), &st); err != nil {
		t.Fatal(err)
	}
	if st.Bug {
		t.Error("bug flag set after update — old code still running")
	}
	if st.Sum != 20 {
		t.Errorf("sum after heal = %d, want 20 (10 preserved + 10 replayed)", st.Sum)
	}
	// The replacement machine writes into the live heap: the checkpoint it
	// takes at Sum==20 captures the heap word it wrote.
	ck := s.Store().Latest("acc")
	var ckst accState
	if err := json.Unmarshal(stateJSON(t, ck), &ckst); err != nil {
		t.Fatal(err)
	}
	if ckst.Sum != 20 {
		t.Fatalf("latest checkpoint sum = %d, want 20", ckst.Sum)
	}
	if got := checkpoint.NewHeapFrom(ck.Snap).ReadUint64(0); got != 20 {
		t.Errorf("heap sum = %d, want 20", got)
	}
}

func TestUpdateRefusedOnInvariantFailure(t *testing.T) {
	s, _ := buggySim(20)
	s.Run()
	// Pick the *last* checkpoint — taken after the bug manifested
	// (Sum=30 > 10 with Bug flag) — the invariant must refuse it.
	ck := s.Store().Latest("acc")
	rep, err := Apply(s, map[string]string{"acc": ck.ID}, fixedProgram(0), nil, VerifyOptions{
		Invariants: []fault.GlobalInvariant{sumInvariant(10)},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Verified() {
		t.Fatal("update should have been refused")
	}
	if rep.InvariantsOK {
		t.Errorf("report = %+v", rep)
	}
	if !strings.Contains(strings.Join(rep.Failures, ";"), "sum-not-overcounted") {
		t.Errorf("failures = %v", rep.Failures)
	}
}

// incompatibleMachine has a state layout that rejects v1 JSON.
type incompatibleMachine struct {
	st struct{ Sum []string } // Sum is an int in v1 — type clash
}

func (m *incompatibleMachine) State() any                                 { return &m.st }
func (m *incompatibleMachine) Init(dsim.Context)                          {}
func (m *incompatibleMachine) OnMessage(dsim.Context, string, []byte)     {}
func (m *incompatibleMachine) OnTimer(dsim.Context, string)               {}
func (m *incompatibleMachine) OnRollback(dsim.Context, dsim.RollbackInfo) {}

func TestUpdateRefusedOnTypeUnsafety(t *testing.T) {
	s, _ := buggySim(10)
	s.Run()
	ck := s.Store().Latest("acc")
	prog := Program{
		Version:   "v-bad",
		Factories: map[string]func() dsim.Machine{"acc": func() dsim.Machine { return &incompatibleMachine{} }},
	}
	rep, err := Apply(s, map[string]string{"acc": ck.ID}, prog, nil, VerifyOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.TypeSafe || rep.Verified() {
		t.Errorf("type-unsafe update accepted: %+v", rep)
	}
}

func TestUpdateRefusedOnMissingFactory(t *testing.T) {
	s, _ := buggySim(10)
	s.Run()
	ck := s.Store().Latest("acc")
	prog := Program{Version: "v-empty", Factories: map[string]func() dsim.Machine{}}
	rep, err := Apply(s, map[string]string{"acc": ck.ID}, prog, nil, VerifyOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Verified() {
		t.Error("update without implementation accepted")
	}
}

func TestStateMapperTransformsState(t *testing.T) {
	s, _ := buggySim(20)
	s.Run()
	var target string
	for _, ck := range s.Store().List("acc") {
		var st accState
		json.Unmarshal(stateJSON(t, ck), &st)
		if st.Sum == 10 {
			target = ck.ID
		}
	}
	// Mapper: the v2 program counts in tens (divide by 10).
	mapper := func(proc string, old []byte) ([]byte, error) {
		var st accState
		if err := json.Unmarshal(old, &st); err != nil {
			return nil, err
		}
		st.Sum /= 10
		return json.Marshal(&st)
	}
	rep, err := Apply(s, map[string]string{"acc": target}, fixedProgram(0), mapper, VerifyOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Verified() {
		t.Fatalf("refused: %v", rep.Failures)
	}
	var st accState
	json.Unmarshal(s.MachineState("acc"), &st)
	if st.Sum != 1 {
		t.Errorf("mapped sum = %d, want 1", st.Sum)
	}
}

func TestStateMapperErrorRefused(t *testing.T) {
	s, _ := buggySim(10)
	s.Run()
	ck := s.Store().Latest("acc")
	mapper := func(string, []byte) ([]byte, error) { return nil, fmt.Errorf("no mapping") }
	rep, err := Apply(s, map[string]string{"acc": ck.ID}, fixedProgram(0), mapper, VerifyOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Verified() {
		t.Error("mapper failure accepted")
	}
}

// TestBoundedExplorationVetoesStillBuggyUpdate: at the line the accumulator
// has summed 10 and the feeder's other ten messages are in transit, so an
// update whose accumulator still double-counts past 10 goes wrong only on a
// delivery. Exploration from the line delivers them: it vetoes that update
// and passes the fixed one.
func TestBoundedExplorationVetoesStillBuggyUpdate(t *testing.T) {
	s, _ := buggySim(20)
	s.Run()
	var target string
	for _, ck := range s.Store().List("acc") {
		var st accState
		json.Unmarshal(stateJSON(t, ck), &st)
		if st.Sum == 10 {
			target = ck.ID
		}
	}
	line := map[string]string{"acc": target}
	opts := VerifyOptions{Invariants: []fault.GlobalInvariant{sumInvariant(20)}, ExploreDepth: 5}
	stillBuggy := fixedProgram(0)
	stillBuggy.Factories["acc"] = func() dsim.Machine { return &accumulator{buggy: true} }
	rep, err := Apply(s, line, stillBuggy, nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Verified() || rep.ExploreOK {
		t.Fatalf("a still-buggy update passed verification: %+v", rep)
	}
	rep, err = Apply(s, line, fixedProgram(0), nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Verified() {
		t.Fatalf("refused: %v", rep.Failures)
	}
	if rep.ExploreStates < 2 {
		t.Errorf("verification explored %d states: it delivered nothing", rep.ExploreStates)
	}
}

// keeper writes a cell before its first checkpoint and faults on a timer
// when the cell is gone.
type keeper struct{ st struct{ Checks int } }

func (k *keeper) State() any { return &k.st }
func (k *keeper) Init(ctx dsim.Context) {
	ctx.DurablePut("decision", []byte("commit"))
	ctx.SetTimer("check", 5)
}
func (k *keeper) OnMessage(dsim.Context, string, []byte) {}
func (k *keeper) OnTimer(ctx dsim.Context, _ string) {
	if _, ok := ctx.DurableGet("decision"); !ok {
		ctx.Fault("decision lost")
	}
	k.st.Checks++
}
func (k *keeper) OnRollback(dsim.Context, dsim.RollbackInfo) {}

// TestExplorationReadsTheLineDisks: the verification exploration runs the
// updated program on the disks of the line it installs it at, and fires the
// timers pending there.
func TestExplorationReadsTheLineDisks(t *testing.T) {
	s := dsim.New(dsim.Config{Seed: 1, InitCheckpoint: true})
	s.AddProcess("k", &keeper{})
	s.Run()
	if len(s.Faults()) != 0 {
		t.Fatalf("the run itself faulted: %v", s.Faults())
	}
	ck := s.Store().Latest("k")
	if ck == nil || len(ck.Timers) != 1 {
		t.Fatalf("checkpoint %+v, want the init checkpoint with the check timer pending", ck)
	}
	prog := Program{Version: "v2", Factories: map[string]func() dsim.Machine{"k": func() dsim.Machine { return &keeper{} }}}
	rep, err := Apply(s, map[string]string{"k": ck.ID}, prog, nil, VerifyOptions{ExploreDepth: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Verified() {
		t.Errorf("refused: %v", rep.Failures)
	}
	if rep.ExploreStates < 2 {
		t.Errorf("explored %d states: the pending timer never fired", rep.ExploreStates)
	}
}

func TestUnknownCheckpointError(t *testing.T) {
	s, _ := buggySim(5)
	s.Run()
	if _, err := Apply(s, map[string]string{"acc": "ghost"}, fixedProgram(0), nil, VerifyOptions{}); err == nil {
		t.Error("want error")
	}
}

func TestVerifiedLinePicksInvariantSatisfyingCheckpoints(t *testing.T) {
	s, _ := buggySim(20) // checkpoints at Sum = 5, 10, 20(doubled), 30
	s.Run()
	// The invariant only holds up to Sum == 10: VerifiedLine must walk
	// back past the post-bug checkpoints.
	line := VerifiedLine(s, []fault.GlobalInvariant{sumInvariant(10)})
	if line == nil {
		t.Fatal("no verified line found")
	}
	cks, err := s.Store().ResolveLine(map[string]string{"acc": line["acc"]})
	if err != nil {
		t.Fatalf("line references unknown checkpoint: %v", err)
	}
	ck := cks[0]
	var st accState
	if err := json.Unmarshal(stateJSON(t, ck), &st); err != nil {
		t.Fatal(err)
	}
	if st.Sum > 10 || st.Bug {
		t.Errorf("verified line state = %+v, want pre-bug", st)
	}
	// And the line must be usable by Apply without invariant failures.
	rep, err := Apply(s, line, fixedProgram(0), nil, VerifyOptions{
		Invariants: []fault.GlobalInvariant{sumInvariant(10)},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Verified() {
		t.Errorf("apply at verified line refused: %v", rep.Failures)
	}
}

// TestVerifiedLineSkipsInconsistentLatest: each process's newest
// checkpoint need not form a line. In this bank run one branch's newest
// checkpoint has seen events of another that the other's newest checkpoint
// does not hold (a receive whose send would be undone); healing there
// created money. VerifiedLine must return a line in which no member knows
// more of a process than that process's own member.
func TestVerifiedLineSkipsInconsistentLatest(t *testing.T) {
	cfg := apps.BankConfig{Branches: 3, AccountsPer: 4, InitialBalance: 1000, Transfers: 40, LoseCredits: 5}
	s := dsim.New(dsim.Config{Seed: 17, MaxSteps: 100_000, CheckpointEvery: 4, InitCheckpoint: true})
	for id, m := range apps.NewBank(cfg) {
		s.AddProcess(id, m)
	}
	s.Run()
	// inconsistent reports a member that knows more of p than p's member.
	inconsistent := func(line map[string]*checkpoint.Checkpoint) string {
		for p, cp := range line {
			for q, cq := range line {
				if cq.Clock.Get(p) > cp.Clock.Get(p) {
					return fmt.Sprintf("%s's %s knows %d of %s, whose %s is at %d", q, cq.ID, cq.Clock.Get(p), p, cp.ID, cp.Clock.Get(p))
				}
			}
		}
		return ""
	}
	latest := map[string]*checkpoint.Checkpoint{}
	for _, id := range s.Procs() {
		latest[id] = s.Store().Latest(id)
	}
	if inconsistent(latest) == "" {
		t.Fatal("the newest checkpoints form a consistent line; the run no longer exercises the walk back")
	}
	line := VerifiedLine(s, nil)
	if len(line) != len(s.Procs()) {
		t.Fatalf("line = %v, want a member for each of %v", line, s.Procs())
	}
	cks, err := s.Store().ResolveLine(line)
	if err != nil {
		t.Fatal(err)
	}
	members := map[string]*checkpoint.Checkpoint{}
	for _, ck := range cks {
		members[ck.Proc] = ck
	}
	if why := inconsistent(members); why != "" {
		t.Errorf("VerifiedLine returned an inconsistent line: %s", why)
	}
}

func TestVerifiedLineNoCheckpoints(t *testing.T) {
	s := dsim.New(dsim.Config{Seed: 1, MaxSteps: 10})
	s.AddProcess("x", &accumulator{})
	s.Run()
	if line := VerifiedLine(s, nil); line != nil {
		t.Errorf("want nil without checkpoints, got %v", line)
	}
}

func TestVerifiedLineNoSatisfyingLine(t *testing.T) {
	s, _ := buggySim(20)
	s.Run()
	impossible := fault.GlobalInvariant{
		Name:  "never",
		Holds: func(*fault.States) bool { return false },
	}
	if line := VerifiedLine(s, []fault.GlobalInvariant{impossible}); line != nil {
		t.Errorf("want nil for unsatisfiable invariant, got %v", line)
	}
}

func TestVerifiedLineNoInvariantsReturnsLatest(t *testing.T) {
	s, _ := buggySim(20)
	s.Run()
	line := VerifiedLine(s, nil)
	if line == nil {
		t.Fatal("no line")
	}
	latest := s.Store().Latest("acc")
	if line["acc"] != latest.ID {
		t.Errorf("line = %v, want latest %s", line, latest.ID)
	}
}
