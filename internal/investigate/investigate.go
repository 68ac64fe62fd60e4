// Package investigate implements the Investigator, FixD's third component
// (paper §3.3, Figs. 3–4).
//
// When a process detects a fault, it rolls back and collects from every
// peer a reply of two parts: a globally consistent local checkpoint and a
// *model* of the peer's behaviour — which "does not have to be abstract; it
// could simply be the implementation of the process itself". The
// Investigator assembles these into a global state and runs the ModelD
// engine over it, exploring all message-delivery and timer orders to return
// the set of trails that lead to invariant violations.
//
// Real communication is replaced by an environment model (paper §4.3): the
// network is a multiset of in-flight messages with deliver / drop /
// duplicate actions, and pending timers may fire at any time. Process
// implementations run unmodified inside the explorer through a sandboxed
// dsim.Context that captures their effects.
package investigate

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"repro/internal/checkpoint"
	"repro/internal/dsim"
	"repro/internal/fault"
	"repro/internal/modeld"
)

// Msg is an in-flight message in the modeled network.
type Msg struct {
	From, To string
	Payload  []byte
}

// Timer is a pending timer in the modeled environment.
type Timer struct {
	Proc string
	Name string
}

// ProcModel is one process's contribution to the investigation: a factory
// for its implementation (the model) plus its checkpointed state.
type ProcModel struct {
	Proc string
	// New returns a fresh, blank instance of the process implementation.
	New func() dsim.Machine
	// State is the checkpointed machine state (JSON); nil means initial
	// state (the machine's Init will be run in the sandbox).
	State []byte
	// Heap is the checkpointed heap contents; nil means an empty heap.
	Heap *checkpoint.Snapshot
	// Durable is the process's stable-storage cells at the investigated
	// cut (as the substrate snapshots them — post timeline fencing, so an
	// abandoned timeline's cells never leak into exploration); nil means
	// empty storage. Read-only: sandbox puts overlay it per handler.
	Durable map[string][]byte
}

// Config bounds and directs an investigation.
type Config struct {
	Strategy  modeld.Strategy // default BFS
	MaxStates int             // default 20_000
	MaxDepth  int             // default 64
	// ModelLoss adds a drop action per in-flight message (lossy network
	// model); ModelDup adds a duplicate action; ModelCrash adds a
	// fail-stop action per live process. These are the "general-purpose
	// models ... of common components of the environment" the paper lists
	// as future work (§4.5).
	ModelLoss  bool
	ModelDup   bool
	ModelCrash bool
	// Invariants are global safety properties over proc -> state JSON.
	Invariants []fault.GlobalInvariant
	// TreatLocalFaultAsViolation makes any Context.Fault raised by a model
	// during exploration a violation.
	TreatLocalFaultAsViolation bool
	// StopAtFirstViolation ends the search early.
	StopAtFirstViolation bool
	// HeapSize/HeapPageSize configure sandbox heaps for procs without a
	// checkpointed heap.
	HeapSize     int
	HeapPageSize int
}

// procState is one process's state inside a global exploration state.
type procState struct {
	stateJSON []byte
	heap      *checkpoint.Snapshot
	halted    bool
	faults    []string
}

// global is the composite modeld.State: all processes + the network.
type global struct {
	inv    *investigation
	procs  map[string]*procState
	net    []Msg
	timers []Timer
}

// Key canonically encodes the global state.
func (g *global) Key() string {
	var b strings.Builder
	ids := make([]string, 0, len(g.procs))
	for id := range g.procs {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		p := g.procs[id]
		fmt.Fprintf(&b, "%s:%s:h%x:%v:%v;", id, p.stateJSON, snapHash(p.heap), p.halted, p.faults)
	}
	// The network is a multiset: sort canonical message encodings.
	msgs := make([]string, len(g.net))
	for i, m := range g.net {
		msgs[i] = fmt.Sprintf("%s>%s>%s", m.From, m.To, m.Payload)
	}
	sort.Strings(msgs)
	b.WriteString("|net:")
	b.WriteString(strings.Join(msgs, ","))
	ts := make([]string, len(g.timers))
	for i, t := range g.timers {
		ts[i] = t.Proc + ">" + t.Name
	}
	sort.Strings(ts)
	b.WriteString("|tmr:")
	b.WriteString(strings.Join(ts, ","))
	return b.String()
}

func snapHash(s *checkpoint.Snapshot) uint64 {
	if s == nil {
		return 0
	}
	return s.Hash()
}

// Clone copies the global state; immutable parts (state JSON, heap
// snapshots) are shared.
func (g *global) Clone() modeld.State {
	ng := &global{inv: g.inv, procs: make(map[string]*procState, len(g.procs))}
	for id, p := range g.procs {
		cp := *p
		cp.faults = append([]string(nil), p.faults...)
		ng.procs[id] = &cp
	}
	ng.net = append([]Msg(nil), g.net...)
	ng.timers = append([]Timer(nil), g.timers...)
	return ng
}

// sandboxCtx captures a model's effects during one handler execution.
type sandboxCtx struct {
	self    string
	heap    *checkpoint.Heap
	sends   []Msg
	timers  []Timer
	faults  []string
	durable map[string][]byte // handler-local overlay of puts
	base    map[string][]byte // ProcModel.Durable: the investigated cut's cells (read-only)
	halted  bool
	randSeq uint64
	step    uint64
}

func (c *sandboxCtx) Self() string { return c.self }

// Now returns a logical step counter: the investigation abstracts real
// time away (actions may fire "any time", §4.3).
//
//fixd:nondeterm sandbox models effects locally; no scroll exists during investigation
func (c *sandboxCtx) Now() uint64 { return c.step }

// Random returns a deterministic stream — an environment model standing in
// for the recorded randomness (substituting recorded randomness for live draws).
//
//fixd:nondeterm sandbox models effects locally; no scroll exists during investigation
func (c *sandboxCtx) Random() uint64 {
	c.randSeq = c.randSeq*6364136223846793005 + 1442695040888963407
	return c.randSeq
}

//fixd:nondeterm sandbox models effects locally; no scroll exists during investigation
func (c *sandboxCtx) Send(to string, payload []byte) {
	c.sends = append(c.sends, Msg{From: c.self, To: to, Payload: append([]byte(nil), payload...)})
}

func (c *sandboxCtx) SetTimer(name string, delay uint64) {
	c.timers = append(c.timers, Timer{Proc: c.self, Name: name})
}

func (c *sandboxCtx) Heap() *checkpoint.Heap { return c.heap }

// Stable storage during investigation reads through to the investigated
// cut's cells (ProcModel.Durable — the substrate's snapshot, which already
// omits cells fenced by a timeline rollback, so exploration can never
// observe an abandoned timeline's durable decision), with puts captured
// in a handler-local overlay. The overlay is not part of the explored
// state space — the investigator explores message/timer interleavings,
// not crash-recovery paths.
//
//fixd:nondeterm sandbox models effects locally; no scroll exists during investigation
func (c *sandboxCtx) DurablePut(key string, value []byte) {
	if c.durable == nil {
		c.durable = make(map[string][]byte)
	}
	c.durable[key] = append([]byte(nil), value...)
}

//fixd:nondeterm sandbox models effects locally; no scroll exists during investigation
func (c *sandboxCtx) DurableGet(key string) ([]byte, bool) {
	v, ok := c.durable[key]
	if !ok {
		v, ok = c.base[key]
	}
	if !ok {
		return nil, false
	}
	return append([]byte(nil), v...), true
}

//fixd:nondeterm sandbox models effects locally; no scroll exists during investigation
func (c *sandboxCtx) DurableKeys() []string {
	seen := make(map[string]bool, len(c.durable)+len(c.base))
	keys := make([]string, 0, len(c.durable)+len(c.base))
	for k := range c.base {
		if !seen[k] {
			seen[k] = true
			keys = append(keys, k)
		}
	}
	for k := range c.durable {
		if !seen[k] {
			seen[k] = true
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	return keys
}

func (c *sandboxCtx) Log(string, ...any) {}

func (c *sandboxCtx) Fault(desc string) { c.faults = append(c.faults, desc) }

func (c *sandboxCtx) Checkpoint(string) string { return "investigate-ckpt" }

func (c *sandboxCtx) Speculate(string) (string, error) { return "investigate-spec", nil }
func (c *sandboxCtx) Commit(string) error              { return nil }
func (c *sandboxCtx) AbortSpec(string, string) error   { return nil }
func (c *sandboxCtx) Halt()                            { c.halted = true }

// investigation holds the immutable exploration setup.
type investigation struct {
	models map[string]ProcModel
	cfg    Config
}

// rebuild materializes a live machine + heap from a procState.
func (inv *investigation) rebuild(id string, p *procState) (dsim.Machine, *checkpoint.Heap, error) {
	pm, ok := inv.models[id]
	if !ok {
		return nil, nil, fmt.Errorf("investigate: no model for process %q", id)
	}
	m := pm.New()
	if p.stateJSON != nil {
		if err := checkpoint.RestoreState(p.stateJSON, m.State()); err != nil {
			return nil, nil, fmt.Errorf("investigate: restore %s: %w", id, err)
		}
	}
	var h *checkpoint.Heap
	if p.heap != nil {
		h = checkpoint.NewHeapFrom(p.heap)
	} else {
		size := inv.cfg.HeapSize
		if size <= 0 {
			size = 16 << 10
		}
		h = checkpoint.NewHeapPages(size, inv.cfg.HeapPageSize)
	}
	return m, h, nil
}

// step runs fn (a handler invocation) for process id and returns the
// successor global state.
func (inv *investigation) step(g *global, id string, fn func(m dsim.Machine, ctx *sandboxCtx)) *global {
	ng := g.Clone().(*global)
	p := ng.procs[id]
	m, heap, err := inv.rebuild(id, p)
	if err != nil {
		panic(err) // models are validated at Run entry
	}
	ctx := &sandboxCtx{self: id, heap: heap, base: inv.models[id].Durable,
		step: uint64(len(ng.net) + len(ng.timers))}
	fn(m, ctx)
	stateJSON, err := json.Marshal(m.State())
	if err != nil {
		panic(fmt.Sprintf("investigate: state of %s not serializable: %v", id, err))
	}
	p.stateJSON = stateJSON
	p.heap = heap.Snapshot()
	p.halted = p.halted || ctx.halted
	p.faults = append(p.faults, ctx.faults...)
	ng.net = append(ng.net, ctx.sends...)
	ng.timers = append(ng.timers, ctx.timers...)
	return ng
}

// Trail is one readable violation trail.
type Trail struct {
	Invariant string
	Steps     []string
	Depth     int
}

// Report is the outcome of an investigation.
type Report struct {
	StatesExplored int
	Transitions    int
	MaxDepth       int
	Truncated      bool
	Trails         []Trail
	Deadlocks      int
	GraphBytes     int
}

// Violating reports whether any trail was found.
func (r *Report) Violating() bool { return len(r.Trails) > 0 }

// ShortestTrail returns the shortest violation trail, or nil.
func (r *Report) ShortestTrail() *Trail {
	if len(r.Trails) == 0 {
		return nil
	}
	best := &r.Trails[0]
	for i := range r.Trails[1:] {
		if len(r.Trails[i+1].Steps) < len(best.Steps) {
			best = &r.Trails[i+1]
		}
	}
	return best
}

// Run assembles the global state from the models and explores it.
func Run(models []ProcModel, inTransit []Msg, timers []Timer, cfg Config) (*Report, error) {
	if cfg.MaxStates <= 0 {
		cfg.MaxStates = 20_000
	}
	if cfg.MaxDepth <= 0 {
		cfg.MaxDepth = 64
	}
	inv := &investigation{models: make(map[string]ProcModel, len(models)), cfg: cfg}
	root := &global{inv: inv, procs: make(map[string]*procState, len(models))}
	ids := make([]string, 0, len(models))
	for _, pm := range models {
		if pm.New == nil {
			return nil, fmt.Errorf("investigate: model for %q has no factory", pm.Proc)
		}
		inv.models[pm.Proc] = pm
		root.procs[pm.Proc] = &procState{stateJSON: pm.State, heap: pm.Heap}
		ids = append(ids, pm.Proc)
	}
	sort.Strings(ids)
	// Processes starting from their initial state run Init inside the
	// sandbox to produce their initial sends/timers.
	cur := root
	for _, id := range ids {
		if inv.models[id].State == nil {
			cur = inv.step(cur, id, func(m dsim.Machine, ctx *sandboxCtx) { m.Init(ctx) })
		}
	}
	cur.net = append(cur.net, inTransit...)
	cur.timers = append(cur.timers, timers...)

	engine := modeld.NewEngine()
	engine.AddAction(deliverAction(inv))
	engine.AddAction(timerAction(inv))
	if cfg.ModelLoss {
		engine.AddAction(dropAction())
	}
	if cfg.ModelDup {
		engine.AddAction(dupAction())
	}
	if cfg.ModelCrash {
		engine.AddAction(crashAction())
	}
	for _, gi := range cfg.Invariants {
		gi := gi
		engine.AddInvariant(modeld.Invariant{
			Name: gi.Name,
			Holds: func(s modeld.State) bool {
				g := s.(*global)
				states := make(map[string]json.RawMessage, len(g.procs))
				for id, p := range g.procs {
					if p.stateJSON == nil {
						return true // pre-init root; nothing to check yet
					}
					states[id] = json.RawMessage(p.stateJSON)
				}
				return gi.Holds(fault.StatesFromRaw(states))
			},
		})
	}
	if cfg.TreatLocalFaultAsViolation {
		engine.AddInvariant(modeld.Invariant{
			Name: "no-local-fault",
			Holds: func(s modeld.State) bool {
				for _, p := range s.(*global).procs {
					if len(p.faults) > 0 {
						return false
					}
				}
				return true
			},
		})
	}

	res := engine.Explore(cur, modeld.Options{
		Strategy:             cfg.Strategy,
		MaxStates:            cfg.MaxStates,
		MaxDepth:             cfg.MaxDepth,
		StopAtFirstViolation: cfg.StopAtFirstViolation,
		CheckDeadlock:        true,
	})
	rep := &Report{
		StatesExplored: res.StatesVisited,
		Transitions:    res.Transitions,
		MaxDepth:       res.MaxDepthSeen,
		Truncated:      res.Truncated,
		Deadlocks:      len(res.Deadlocks),
		GraphBytes:     res.GraphBytes,
	}
	for _, v := range res.Violations {
		t := Trail{Invariant: v.Invariant, Depth: v.Depth}
		for _, st := range v.Trail {
			t.Steps = append(t.Steps, st.Action)
		}
		rep.Trails = append(rep.Trails, t)
	}
	return rep, nil
}

// deliverAction delivers each in-flight message, branching over the
// possible targets (one successor per message).
func deliverAction(inv *investigation) modeld.Action {
	return modeld.NewBranchingAction("deliver",
		func(s modeld.State) bool { return len(s.(*global).net) > 0 },
		func(s modeld.State) []modeld.State {
			g := s.(*global)
			var out []modeld.State
			for i := range g.net {
				msg := g.net[i]
				if p, ok := g.procs[msg.To]; !ok || p.halted {
					// Undeliverable: model as silently consumed.
					ng := g.Clone().(*global)
					ng.net = append(ng.net[:i], ng.net[i+1:]...)
					out = append(out, ng)
					continue
				}
				base := g.Clone().(*global)
				base.net = append(base.net[:i], base.net[i+1:]...)
				ng := inv.step(base, msg.To, func(m dsim.Machine, ctx *sandboxCtx) {
					m.OnMessage(ctx, msg.From, msg.Payload)
				})
				out = append(out, ng)
			}
			return out
		})
}

// timerAction fires each pending timer (asynchrony: a timer may fire at
// any point relative to message deliveries).
func timerAction(inv *investigation) modeld.Action {
	return modeld.NewBranchingAction("timer",
		func(s modeld.State) bool { return len(s.(*global).timers) > 0 },
		func(s modeld.State) []modeld.State {
			g := s.(*global)
			var out []modeld.State
			for i := range g.timers {
				tm := g.timers[i]
				if p, ok := g.procs[tm.Proc]; !ok || p.halted {
					ng := g.Clone().(*global)
					ng.timers = append(ng.timers[:i], ng.timers[i+1:]...)
					out = append(out, ng)
					continue
				}
				base := g.Clone().(*global)
				base.timers = append(base.timers[:i], base.timers[i+1:]...)
				ng := inv.step(base, tm.Proc, func(m dsim.Machine, ctx *sandboxCtx) {
					m.OnTimer(ctx, tm.Name)
				})
				out = append(out, ng)
			}
			return out
		})
}

// dropAction models a lossy network: any in-flight message may vanish.
func dropAction() modeld.Action {
	return modeld.NewBranchingAction("drop",
		func(s modeld.State) bool { return len(s.(*global).net) > 0 },
		func(s modeld.State) []modeld.State {
			g := s.(*global)
			var out []modeld.State
			for i := range g.net {
				ng := g.Clone().(*global)
				ng.net = append(ng.net[:i], ng.net[i+1:]...)
				out = append(out, ng)
			}
			return out
		})
}

// dupAction models message duplication.
func dupAction() modeld.Action {
	return modeld.NewBranchingAction("dup",
		func(s modeld.State) bool { return len(s.(*global).net) > 0 },
		func(s modeld.State) []modeld.State {
			g := s.(*global)
			var out []modeld.State
			for i := range g.net {
				ng := g.Clone().(*global)
				ng.net = append(ng.net, ng.net[i])
				out = append(out, ng)
			}
			return out
		})
}

// crashAction models fail-stop: any live process may halt at any point,
// after which its pending messages become undeliverable.
func crashAction() modeld.Action {
	return modeld.NewBranchingAction("crash",
		func(s modeld.State) bool {
			for _, p := range s.(*global).procs {
				if !p.halted {
					return true
				}
			}
			return false
		},
		func(s modeld.State) []modeld.State {
			g := s.(*global)
			ids := make([]string, 0, len(g.procs))
			for id, p := range g.procs {
				if !p.halted {
					ids = append(ids, id)
				}
			}
			sort.Strings(ids)
			out := make([]modeld.State, 0, len(ids))
			for _, id := range ids {
				ng := g.Clone().(*global)
				ng.procs[id].halted = true
				out = append(out, ng)
			}
			return out
		})
}

// FromSim gathers the Fig. 4 response from a live simulation: for each
// process, its latest checkpoint not causally after the fault (or current
// state if it has none), plus the implementation factory as its model and
// its stable-storage cells (the fenced snapshot) as the sandbox's disk.
// It returns the models and the messages in flight at that cut.
func FromSim(s *dsim.Sim, factories map[string]func() dsim.Machine) ([]ProcModel, []Msg) {
	lineSeq := make(map[string]uint64)
	for _, id := range s.Procs() {
		if ck := s.Store().Latest(id); ck != nil {
			lineSeq[id] = ck.ScrollSeq
		}
	}
	// Checkpointed procs get the disk as of their checkpoint; procs shipped
	// at current state get the current (fenced) disk — either way the
	// sandbox disk matches the machine state it accompanies.
	atLine := s.DurableSnapshotAt(lineSeq)
	atNow := s.DurableSnapshot()
	var models []ProcModel
	for _, id := range s.Procs() {
		f, ok := factories[id]
		if !ok {
			continue
		}
		pm := ProcModel{Proc: id, New: f}
		if ck := s.Store().Latest(id); ck != nil {
			state, err := ck.StateJSON()
			if err != nil { // the simulator's own encoding: only a bug corrupts it
				panic(fmt.Sprintf("investigate: checkpoint %s: %v", ck.ID, err))
			}
			pm.State = append([]byte(nil), state...)
			pm.Heap = ck.Snap
			pm.Durable = atLine[id]
		} else {
			pm.State = s.MachineState(id)
			snap := s.Heap(id).Snapshot()
			pm.Heap = snap
			pm.Durable = atNow[id]
		}
		models = append(models, pm)
	}
	return models, nil
}
