package investigate

import (
	"encoding/json"
	"testing"

	"repro/internal/apps"
	"repro/internal/dsim"
	"repro/internal/scroll"
)

// sandboxUser exercises every Context facility inside the explorer.
type sandboxUserState struct {
	Draws   int
	Times   int
	HeapOK  bool
	SpecErr bool
	Got     string
	Logged  int
	Ckpt    string
	Done    bool
}

type sandboxUser struct{ st sandboxUserState }

func (m *sandboxUser) State() any            { return &m.st }
func (m *sandboxUser) Init(ctx dsim.Context) {}

func (m *sandboxUser) OnMessage(ctx dsim.Context, from string, payload []byte) {
	if ctx.Self() != "user" {
		return
	}
	v1, v2 := ctx.Random(), ctx.Random()
	if v1 != v2 {
		m.st.Draws += 2
	}
	_ = ctx.Now()
	m.st.Times++
	ctx.Heap().WriteUint64(0, v1)
	m.st.HeapOK = ctx.Heap().ReadUint64(0) == v1
	if _, err := ctx.Speculate("sandbox"); err != nil {
		m.st.SpecErr = ctx.Commit("x") != nil && ctx.AbortSpec("x", "y") != nil
	}
	ctx.DurablePut("k", []byte("v"))
	if v, ok := ctx.DurableGet("k"); ok {
		m.st.Got = string(v)
	}
	ctx.DurableKeys()
	ctx.Log("step %d", m.st.Draws)
	m.st.Logged++
	m.st.Ckpt = ctx.Checkpoint("probe")
	ctx.Send("env", []byte("done"))
	ctx.SetTimer("later", 3)
	ctx.Fault("probe")
	m.st.Done = true
	ctx.Halt()
}

func (m *sandboxUser) OnTimer(dsim.Context, string)               {}
func (m *sandboxUser) OnRollback(dsim.Context, dsim.RollbackInfo) {}

func TestSandboxContextFacilities(t *testing.T) {
	models := []ProcModel{{
		Proc: "user",
		New:  func() dsim.Machine { return &sandboxUser{} },
	}}
	in := []Msg{{From: "env", To: "user", Payload: []byte("go")}}
	rep, err := Run(models, in, nil, Config{MaxStates: 100, MaxDepth: 10})
	if err != nil {
		t.Fatal(err)
	}
	if rep.StatesExplored < 2 {
		t.Fatalf("states = %d", rep.StatesExplored)
	}
	// Halted processes stop consuming: re-delivery is modeled as consumed.
	if rep.Deadlocks == 0 {
		t.Error("halted end state should deadlock (no enabled actions)")
	}

	// One step, taken by hand after Init (the process's first): the records
	// it wrote, in order, and what it left in the successor state.
	inv, g, err := start(models, in, nil)
	if err != nil {
		t.Fatal(err)
	}
	g.net = nil
	var recs []scroll.Record
	inv.step(g, "user", 0, func(m dsim.Machine, ctx dsim.Context) {
		m.OnMessage(ctx, "env", []byte("go"))
		recs = ctx.(*stepCtx).Scroll().Records()
	})
	want := []struct {
		kind  scroll.Kind
		msgID string
	}{
		{scroll.KindRandom, ""}, {scroll.KindRandom, ""}, {scroll.KindTime, ""},
		{scroll.KindEnv, dsim.DurablePutMsgID}, {scroll.KindEnv, dsim.DurableGetMsgID},
		{scroll.KindEnv, dsim.DurableKeysMsgID}, {scroll.KindCustom, "log"},
		{scroll.KindCkpt, ""}, {scroll.KindSend, ""}, {scroll.KindFault, ""},
	}
	if len(recs) != len(want) {
		t.Fatalf("the step wrote %d records, want %d: %v", len(recs), len(want), recs)
	}
	for i, w := range want {
		if recs[i].Kind != w.kind || w.msgID != "" && recs[i].MsgID != w.msgID {
			t.Errorf("record %d: %v %q, want %v %q", i, recs[i].Kind, recs[i].MsgID, w.kind, w.msgID)
		}
	}
	var st sandboxUserState
	if err := json.Unmarshal(g.procs["user"].stateJSON, &st); err != nil {
		t.Fatal(err)
	}
	if !st.SpecErr {
		t.Error("Speculate, Commit or AbortSpec reported success: nothing in an exploration resolves a speculation")
	}
	if st.Draws != 2 || !st.HeapOK || st.Got != "v" || !st.Done {
		t.Errorf("state after the step: %+v", st)
	}
	if _, err := inv.store.ResolveLine(map[string]string{"user": st.Ckpt}); err != nil || recs[7].MsgID != st.Ckpt {
		t.Errorf("checkpoint %q is not in the investigation's store under its record's ID %q", st.Ckpt, recs[7].MsgID)
	}
	p := g.procs["user"]
	if v, ok := p.cells.Get("k"); !ok || string(v) != "v" || !p.halted || p.clock != 2 || len(p.faults) != 1 {
		t.Errorf("process after the step: cell %q %v, halted %v, clock %d, faults %q", v, ok, p.halted, p.clock, p.faults)
	}
	if len(g.net) != 1 || g.net[0].To != "env" || string(g.net[0].Payload) != "done" || len(g.timers) != 1 || g.timers[0].delay != 3 {
		t.Errorf("environment after the step: net %v, timers %v", g.net, g.timers)
	}
}

func TestModelCrashFindsFailStopOnlyBugs(t *testing.T) {
	// Correct 2PC stays safe even when any process may fail-stop.
	cfg := apps.TwoPCConfig{Participants: 2}
	var models []ProcModel
	for id := range apps.NewTwoPC(cfg) {
		id := id
		models = append(models, ProcModel{Proc: id, New: func() dsim.Machine { return apps.NewTwoPC(cfg)[id] }})
	}
	rep, err := Run(models, nil, nil, Config{
		ModelCrash: true,
		MaxStates:  30_000, MaxDepth: 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.StatesExplored < 10 {
		t.Errorf("crash model explored only %d states", rep.StatesExplored)
	}
	if rep.Violating() {
		t.Error("crash model alone must not create violations without invariants")
	}
}

func TestShortestTrailPicksMinimum(t *testing.T) {
	r := &Report{Trails: []Trail{
		{Invariant: "a", Steps: []string{"x", "y", "z"}},
		{Invariant: "b", Steps: []string{"x"}},
		{Invariant: "c", Steps: []string{"x", "y"}},
	}}
	if got := r.ShortestTrail(); got.Invariant != "b" {
		t.Errorf("ShortestTrail = %+v", got)
	}
	empty := &Report{}
	if empty.ShortestTrail() != nil {
		t.Error("empty report should return nil")
	}
}
