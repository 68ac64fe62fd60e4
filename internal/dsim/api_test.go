package dsim

import (
	"encoding/json"
	"testing"

	"repro/internal/vclock"
)

func TestAccessors(t *testing.T) {
	s := New(Config{Seed: 1})
	c := &counterMachine{}
	s.AddProcess("b-proc", c)
	s.AddProcess("a-proc", &driver{target: "b-proc", n: 3})
	s.Run()

	procs := s.Procs()
	if len(procs) != 2 || procs[0] != "a-proc" || procs[1] != "b-proc" {
		t.Errorf("Procs = %v, want sorted", procs)
	}
	if s.Scroll("ghost") != nil || s.Heap("ghost") != nil || s.Clock("ghost") != (vclock.VC{}) {
		t.Error("unknown proc accessors should return nil")
	}
	if s.MachineState("ghost") != nil {
		t.Error("MachineState of unknown proc should be nil")
	}
	var st counterState
	if err := json.Unmarshal(s.MachineState("b-proc"), &st); err != nil {
		t.Fatal(err)
	}
	if st.Count != 3 {
		t.Errorf("state count = %d", st.Count)
	}
	clk := s.Clock("b-proc")
	if clk.Get("b-proc") == 0 {
		t.Errorf("clock = %v, want ticks for b-proc", clk)
	}
	// Clock returns a copy.
	clk.Tick("b-proc")
	if s.Clock("b-proc").Compare(clk) == vclock.Equal {
		t.Error("Clock returned aliased map")
	}
}

func TestStopMidRun(t *testing.T) {
	s := New(Config{Seed: 1})
	c := &stopper{}
	s.AddProcess("s", c)
	s.AddProcess("drv", &driver{target: "s", n: 100})
	s.SetFaultHandler(func(FaultRecord) bool { return true })
	s.Run()
	if c.st.Count != 3 {
		t.Errorf("count = %d, want 3 (stopped)", c.st.Count)
	}
	// Resume picks the run back up.
	s.Resume()
	if c.st.Count != 100 {
		t.Errorf("count after resume = %d, want 100", c.st.Count)
	}
}

// stopper stops the whole simulation after 3 messages via the fault path.
type stopper struct {
	st struct{ Count int }
}

func (m *stopper) State() any              { return &m.st }
func (m *stopper) Init(ctx Context)        {}
func (m *stopper) OnTimer(Context, string) {}
func (m *stopper) OnMessage(ctx Context, from string, payload []byte) {
	m.st.Count++
	if m.st.Count == 3 {
		ctx.Fault("three")
	}
}
func (m *stopper) OnRollback(Context, RollbackInfo) {}

func TestStopMethod(t *testing.T) {
	s := New(Config{Seed: 1})
	c := &counterMachine{}
	s.AddProcess("c", c)
	s.AddProcess("drv", &driver{target: "c", n: 50})
	s.SetFaultHandler(func(FaultRecord) bool {
		s.Stop()
		return false
	})
	c.faultAt = 5
	s.Run()
	if c.st.Count != 5 {
		t.Errorf("count = %d, want 5 (Stop honored)", c.st.Count)
	}
}

func TestReplaceMachineTypeSafety(t *testing.T) {
	s := New(Config{Seed: 1})
	s.AddProcess("x", &counterMachine{})
	s.AddProcess("drv", &driver{target: "x", n: 2})
	s.Run()
	// Replacing with a compatible machine and explicit state works.
	if err := s.ReplaceMachine("x", &counterMachine{}, []byte(`{"Count": 9}`)); err != nil {
		t.Fatal(err)
	}
	var st counterState
	json.Unmarshal(s.MachineState("x"), &st)
	if st.Count != 9 {
		t.Errorf("count = %d", st.Count)
	}
	// Incompatible state is refused.
	if err := s.ReplaceMachine("x", &counterMachine{}, []byte(`{"Count": "nope"}`)); err == nil {
		t.Error("incompatible state accepted")
	}
	// Unknown process is an error.
	if err := s.ReplaceMachine("ghost", &counterMachine{}, nil); err == nil {
		t.Error("unknown process accepted")
	}
	// Nil state keeps the new machine's zero state.
	if err := s.ReplaceMachine("x", &counterMachine{}, nil); err != nil {
		t.Fatal(err)
	}
	json.Unmarshal(s.MachineState("x"), &st)
	if st.Count != 0 {
		t.Errorf("count after nil-state replace = %d", st.Count)
	}
}

// loggerMachine exercises Context.Log and replay of log records.
type loggerMachine struct {
	st struct{ N int }
}

func (m *loggerMachine) State() any       { return &m.st }
func (m *loggerMachine) Init(ctx Context) {}
func (m *loggerMachine) OnMessage(ctx Context, from string, payload []byte) {
	m.st.N++
	ctx.Log("handled %d from %s", m.st.N, from)
	ctx.SetTimer("later", 3)
}
func (m *loggerMachine) OnTimer(ctx Context, name string) {
	ctx.Log("timer %s", name)
}
func (m *loggerMachine) OnRollback(Context, RollbackInfo) {}

func TestLogRecordsAndReplay(t *testing.T) {
	s := New(Config{Seed: 1})
	lm := &loggerMachine{}
	s.AddProcess("lg", lm)
	s.AddProcess("drv", &driver{target: "lg", n: 2})
	s.Run()
	// Log records are in the scroll.
	logs := 0
	for _, r := range s.Scroll("lg").Records() {
		if r.MsgID == "log" {
			logs++
		}
	}
	if logs != 4 { // 2 message logs + 2 timer logs
		t.Errorf("log records = %d, want 4", logs)
	}
	// Replay of a machine that logs and sets timers is faithful.
	fresh := &loggerMachine{}
	res, err := Replay("lg", fresh, s.Scroll("lg").Records(), 0, 0)
	if err != nil || res.Diverged {
		t.Fatalf("replay: %v diverged=%v", err, res.Diverged)
	}
	if fresh.st.N != lm.st.N {
		t.Errorf("replayed N = %d, want %d", fresh.st.N, lm.st.N)
	}
}

// faultingMachine raises a fault so replay surfaces it.
type faultingMachine struct {
	st struct{ N int }
}

func (m *faultingMachine) State() any       { return &m.st }
func (m *faultingMachine) Init(ctx Context) {}
func (m *faultingMachine) OnMessage(ctx Context, from string, payload []byte) {
	m.st.N++
	if m.st.N == 2 {
		ctx.Fault("it broke")
	}
	ctx.Checkpoint("after")
	if id, err := ctx.Speculate("harmless"); err == nil {
		ctx.Commit(id)
	}
}
func (m *faultingMachine) OnTimer(Context, string)          {}
func (m *faultingMachine) OnRollback(Context, RollbackInfo) {}

func TestReplayReproducesFaults(t *testing.T) {
	s := New(Config{Seed: 1})
	s.AddProcess("f", &faultingMachine{})
	s.AddProcess("drv", &driver{target: "f", n: 3})
	s.Run()
	fresh := &faultingMachine{}
	res, err := Replay("f", fresh, s.Scroll("f").Records(), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Diverged {
		t.Fatal("diverged")
	}
	if len(res.Faults) != 1 || res.Faults[0] != "it broke" {
		t.Errorf("replayed faults = %v", res.Faults)
	}
}
