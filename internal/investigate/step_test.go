package investigate

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"maps"
	"slices"
	"strings"
	"testing"

	"repro/internal/apps"
	"repro/internal/checkpoint"
	"repro/internal/dsim"
	"repro/internal/scroll"
)

// disk writes a cell in Init and faults if a later timer step cannot read it.
type disk struct{ st struct{ Checked bool } }

func (m *disk) State() any { return &m.st }
func (m *disk) Init(ctx dsim.Context) {
	ctx.DurablePut("k", []byte("v"))
	ctx.SetTimer("check", 1)
}
func (m *disk) OnMessage(dsim.Context, string, []byte) {}
func (m *disk) OnTimer(ctx dsim.Context, _ string) {
	if v, ok := ctx.DurableGet("k"); !ok || string(v) != "v" {
		ctx.Fault("the put of an earlier step is gone")
	}
	m.st.Checked = true
}
func (m *disk) OnRollback(dsim.Context, dsim.RollbackInfo) {}

func TestPutReadByLaterStep(t *testing.T) {
	rep, err := Run([]ProcModel{{Proc: "d", New: func() dsim.Machine { return &disk{} }}}, nil, nil, Config{
		TreatLocalFaultAsViolation: true, MaxStates: 100, MaxDepth: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.StatesExplored < 2 {
		t.Fatalf("states = %d: the timer never fired", rep.StatesExplored)
	}
	if rep.Violating() {
		t.Errorf("a later step lost the put: %+v", rep.Trails[0])
	}
}

// TestStepLeavesParentCells: a step's put lands in its successor state
// only; the state it was cloned from shares the cells and keeps them.
func TestStepLeavesParentCells(t *testing.T) {
	inv, parent, err := start([]ProcModel{{Proc: "d", New: func() dsim.Machine { return &disk{} },
		State: []byte(`{}`), Durable: map[string][]byte{"k": []byte("old")}}}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	child := parent.Clone().(*global)
	inv.step(child, "d", 0, func(_ dsim.Machine, ctx dsim.Context) { ctx.DurablePut("k", []byte("new")) })
	if v, _ := parent.procs["d"].cells.Get("k"); string(v) != "old" {
		t.Errorf("the parent state's cell reads %q after its successor's put, want old", v)
	}
	if v, _ := child.procs["d"].cells.Get("k"); string(v) != "new" {
		t.Errorf("the successor's cell reads %q, want new", v)
	}
}

// dice draws once per timer step and faults if a step repeats the last draw.
type dice struct {
	st struct {
		Rolls int
		Last  uint64
	}
}

func (m *dice) State() any                             { return &m.st }
func (m *dice) Init(ctx dsim.Context)                  { ctx.SetTimer("roll", 1) }
func (m *dice) OnMessage(dsim.Context, string, []byte) {}
func (m *dice) OnTimer(ctx dsim.Context, _ string) {
	v := ctx.Random()
	if m.st.Rolls > 0 && v == m.st.Last {
		ctx.Fault("two steps drew the same value")
	}
	m.st.Rolls, m.st.Last = m.st.Rolls+1, v
	if m.st.Rolls < 3 {
		ctx.SetTimer("roll", 1)
	}
}
func (m *dice) OnRollback(dsim.Context, dsim.RollbackInfo) {}

func TestStepsDrawAfresh(t *testing.T) {
	rep, err := Run([]ProcModel{{Proc: "d", New: func() dsim.Machine { return &dice{} }}}, nil, nil, Config{
		TreatLocalFaultAsViolation: true, MaxStates: 100, MaxDepth: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.StatesExplored < 4 {
		t.Fatalf("states = %d, want the three rolls", rep.StatesExplored)
	}
	if rep.Violating() {
		t.Error("two steps of one process drew the same value")
	}
}

// TestKeyInjective: states that differ — in how a fault list or the network
// splits into fields, or only in a durable cell or a process's clock — get
// different keys.
func TestKeyInjective(t *testing.T) {
	proc := func(faults ...string) *global {
		return &global{procs: map[string]*procState{"p": {stateJSON: []byte(`{}`), faults: faults}}}
	}
	net := func(msgs ...Msg) *global {
		g := proc()
		g.net = msgs
		return g
	}
	cell := func(v string) *global {
		g := proc()
		g.procs["p"].cells.Put("k", []byte(v))
		return g
	}
	clock := func(c uint64) *global {
		g := proc()
		g.procs["p"].clock = c
		return g
	}
	for _, pair := range [][2]*global{
		{proc("x y"), proc("x", "y")},
		{net(Msg{"a", "b", []byte("c,a>b>d")}), net(Msg{"a", "b", []byte("c")}, Msg{"a", "b", []byte("d")})},
		{cell("a"), cell("b")},
		{clock(1), clock(2)},
	} {
		if pair[0].Key() == pair[1].Key() {
			t.Errorf("two different states share the key %q", pair[0].Key())
		}
	}
}

func TestRunValidatesModels(t *testing.T) {
	user := func() dsim.Machine { return &sandboxUser{} }
	for _, tc := range []struct {
		name   string
		models []ProcModel
		want   string
	}{
		{"malformed state", []ProcModel{{Proc: "p", New: user, State: []byte(`{"Draws":`)}}, "state of p"},
		{"state the machine rejects", []ProcModel{{Proc: "p", New: user, State: []byte(`{"Draws":"two"}`)}}, "state of p"},
		{"duplicate process", []ProcModel{{Proc: "p", New: user}, {Proc: "p", New: user}}, `two models for process "p"`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			in := []Msg{{From: "env", To: "p", Payload: []byte("go")}}
			_, err := Run(tc.models, in, nil, Config{MaxStates: 10, MaxDepth: 2})
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("Run = %v, want an error naming %s", err, tc.want)
			}
		})
	}
}

// fedCtx is a step's Context whose clock reads and draws return the values
// the simulator recorded, so that everything else the step does can be
// compared with the simulator's exactly.
type fedCtx struct {
	*stepCtx
	fed []uint64
}

func (c *fedCtx) next() uint64 {
	if len(c.fed) == 0 {
		return 0 // more reads than the simulator made: the records differ
	}
	v := c.fed[0]
	c.fed = c.fed[1:]
	return v
}

func (c *fedCtx) Now() uint64    { return c.RecordTime(c.next()) }
func (c *fedCtx) Random() uint64 { return c.RecordRandom(c.next()) }

// simStep is one handler the simulator ran from a checkpoint of its process
// — Init, or the first event after the checkpoint — and what it did.
type simStep struct {
	proc   string
	from   []byte                 // the state it started in: the checkpoint's, or a fresh machine's for Init
	ck     *checkpoint.Checkpoint // nil for Init
	event  scroll.Record          // the delivery or timer fire; the zero Record for Init
	recs   []scroll.Record
	before map[string][]byte // the process's cells before the step
	after  map[string][]byte
	state  []byte
}

// simSteps runs spec's correct variant for at most 400 events,
// checkpointing after Init and before every delivery, and returns its
// processes and every step that began at its process's latest checkpoint,
// every Init included.
func simSteps(t *testing.T, spec apps.AppSpec) ([]string, []simStep) {
	cfg := spec.Config(false)
	cfg.Seed, cfg.MaxSteps = 1, 400
	cfg.CICheckpoint, cfg.InitCheckpoint, cfg.CheckpointEvery = true, true, 0
	s := dsim.New(cfg)
	ms := spec.Make(false)
	for _, id := range slices.Sorted(maps.Keys(ms)) {
		s.AddProcess(id, ms[id])
	}
	var (
		steps  []simStep
		seen   = map[string]int{}
		before map[string]map[string][]byte
	)
	s.SetStepMonitor(1, func() bool {
		if before == nil {
			// The first event has run: every process's Init is what lies
			// before its init checkpoint, and the cells Init wrote are those
			// the first event had.
			inits := map[string]*checkpoint.Checkpoint{}
			for _, id := range s.Procs() {
				inits[id] = s.Store().List(id)[0]
			}
			before = s.DurableSnapshotAt(inits)
			for _, id := range s.Procs() {
				ck := s.Store().List(id)[0]
				fresh, err := json.Marshal(spec.Make(false)[id].State())
				if err != nil {
					t.Fatal(err)
				}
				state, err := ck.StateJSON()
				if err != nil {
					t.Fatal(err)
				}
				steps = append(steps, simStep{proc: id, from: fresh, recs: s.Scroll(id).Records()[:ck.ScrollSeq],
					after: before[id], state: state})
			}
		}
		after := s.DurableSnapshot()
		for _, id := range s.Procs() {
			recs := s.Scroll(id).Records()
			from := seen[id]
			seen[id] = len(recs)
			ck := s.Store().Latest(id)
			if len(recs) == from || int(ck.ScrollSeq)+1 < from || int(ck.ScrollSeq)+1 >= len(recs) {
				continue // no step, or a handler ran since the checkpoint
			}
			ev := recs[ck.ScrollSeq+1]
			if ev.Kind != scroll.KindRecv && !strings.HasPrefix(ev.MsgID, "timer:") {
				t.Fatalf("%s: record %d after checkpoint %s is %v %q, not an event", id, ck.ScrollSeq+1, ck.ID, ev.Kind, ev.MsgID)
			}
			state, err := ck.StateJSON()
			if err != nil {
				t.Fatal(err)
			}
			steps = append(steps, simStep{proc: id, from: state, ck: ck, event: ev, recs: recs[ck.ScrollSeq+2:],
				before: before[id], after: after[id], state: s.MachineState(id)})
		}
		before = after
		if before == nil {
			before = map[string]map[string][]byte{}
		}
		return false
	})
	s.Run()
	return s.Procs(), steps
}

// TestStepMatchesSimulator steps every Registry and Zoo process through
// handlers on the Investigator — its Init, and each event that the
// simulator handled right after checkpointing the process — from the same
// state and cells, with the simulator's clock reads and draws fed back in.
// Both must write the same records (message IDs aside), send the same
// messages, leave the same cells and reach the same state.
func TestStepMatchesSimulator(t *testing.T) {
	for _, spec := range append(apps.Registry(), apps.Zoo()...) {
		t.Run(spec.Name, func(t *testing.T) {
			var plain, fed int
			procs, steps := simSteps(t, spec)
			stepped := map[string]bool{}
			for _, st := range steps {
				pm := ProcModel{Proc: st.proc, New: func() dsim.Machine { return spec.Make(false)[st.proc] },
					State: st.from, Durable: st.before}
				where := st.proc + " Init"
				if st.ck != nil {
					pm.Heap, pm.Time = st.ck.Snap, st.ck.Time
					where = fmt.Sprintf("%s at %s, %v %q", st.proc, st.ck.ID, st.event.Kind, st.event.Payload)
				}
				inv, g, err := start([]ProcModel{pm}, nil, nil)
				if err != nil {
					t.Fatal(err)
				}
				var values []uint64
				for _, r := range st.recs {
					if r.Kind == scroll.KindTime || r.Kind == scroll.KindRandom {
						values = append(values, binary.LittleEndian.Uint64(r.Payload))
					}
				}
				var recs []scroll.Record
				inv.step(g, st.proc, 0, func(m dsim.Machine, ctx dsim.Context) {
					c := &fedCtx{stepCtx: ctx.(*stepCtx), fed: values}
					switch {
					case st.ck == nil:
						m.Init(c)
					case st.event.Kind == scroll.KindRecv:
						m.OnMessage(c, st.event.Peer, st.event.Payload)
					default:
						m.OnTimer(c, string(st.event.Payload))
					}
					recs = c.Scroll().Records()
				})
				compareStep(t, where, st, g, recs)
				stepped[st.proc] = true
				if len(values) > 0 {
					fed++
				} else {
					plain++
				}
			}
			t.Logf("%d steps of %d processes compared: %d read no time or randomness, %d were fed the simulator's values",
				plain+fed, len(procs), plain, fed)
			if plain == 0 {
				t.Error("no step that reads no time or randomness was compared")
			}
			for _, id := range procs {
				if !stepped[id] {
					t.Errorf("no step of %s was compared", id)
				}
			}
		})
	}
}

// compareStep reports every way the Investigator's step (successor g, records
// recs) differs from the simulator's st.
func compareStep(t *testing.T, where string, st simStep, g *global, recs []scroll.Record) {
	t.Helper()
	if len(recs) != len(st.recs) {
		t.Fatalf("%s: the Investigator wrote %d records, the simulator %d:\n%v\n%v", where, len(recs), len(st.recs), recs, st.recs)
	}
	var sends []Msg
	for i, s := range st.recs {
		r := recs[i]
		if r.Kind != s.Kind || r.Peer != s.Peer || string(r.Payload) != string(s.Payload) ||
			r.Kind != scroll.KindSend && r.MsgID != s.MsgID {
			t.Errorf("%s: record %d is %v %q %q %q, the simulator's %v %q %q %q",
				where, i, r.Kind, r.MsgID, r.Peer, r.Payload, s.Kind, s.MsgID, s.Peer, s.Payload)
		}
		if s.Kind == scroll.KindSend {
			sends = append(sends, Msg{From: st.proc, To: s.Peer, Payload: s.Payload})
		}
	}
	if fmt.Sprint(g.net) != fmt.Sprint(sends) {
		t.Errorf("%s: the Investigator sent %v, the simulator %v", where, g.net, sends)
	}
	p := g.procs[st.proc]
	cells := map[string][]byte{}
	for _, k := range p.cells.Keys() {
		cells[k], _ = p.cells.Get(k)
	}
	if fmt.Sprint(cells) != fmt.Sprint(st.after) {
		t.Errorf("%s: cells %q, the simulator's %q", where, cells, st.after)
	}
	if string(p.stateJSON) != string(st.state) {
		t.Errorf("%s: state %s, the simulator's %s", where, p.stateJSON, st.state)
	}
}
