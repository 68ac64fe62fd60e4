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
// implementations run unmodified inside the explorer, each step on a
// dsim.Kernel that records every Context call as both backends do; stable
// storage, the process's clock (which fixes its clock reads and random
// draws) and its state are part of the explored state.
package investigate

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"maps"
	"math/rand/v2"
	"slices"
	"strconv"

	"repro/internal/checkpoint"
	"repro/internal/dsim"
	"repro/internal/fault"
	"repro/internal/modeld"
	"repro/internal/scroll"
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
	// state (the machine's Init runs as the process's first step).
	State []byte
	// Heap is the checkpointed heap contents; nil means an empty heap.
	Heap *checkpoint.Snapshot
	// Durable is the process's stable-storage cells at the investigated
	// cut (as the substrate snapshots them — post timeline fencing, so an
	// abandoned timeline's cells never leak into exploration); nil means
	// empty storage. It seeds the process's explored cells and is never
	// written.
	Durable map[string][]byte
	// Time is the checkpoint's virtual time (0 for a process starting from
	// its initial state), where the process's clock starts: Context.Now
	// reads it plus one per handler the process has run since, plus the
	// delay of every timer that has fired at it.
	Time uint64
}

// Config bounds and directs an investigation.
type Config struct {
	MaxStates int // default 20_000
	MaxDepth  int // default 64
	// ModelLoss adds a drop action per in-flight message (lossy network
	// model); ModelCrash adds a fail-stop action per live process. These
	// are the "general-purpose models ... of common components of the
	// environment" the paper lists as future work (§4.5).
	ModelLoss  bool
	ModelCrash bool
	// Invariants are global safety properties over proc -> state JSON.
	Invariants []fault.GlobalInvariant
	// TreatLocalFaultAsViolation makes any Context.Fault raised by a model
	// during exploration a violation.
	TreatLocalFaultAsViolation bool
	// StopAtFirstViolation ends the search early.
	StopAtFirstViolation bool
}

// heapSize is the heap a process without a checkpointed one starts from.
const heapSize = 16 << 10

// procState is one process's state inside a global exploration state.
type procState struct {
	stateJSON []byte
	heap      *checkpoint.Snapshot
	cells     checkpoint.Cells // shared with the parent state until a step writes
	clock     uint64           // the time the process's next handler reads, before a timer's delay
	halted    bool
	faults    []string
}

// global is the composite modeld.State: all processes + the network.
type global struct {
	procs  map[string]*procState
	net    []Msg
	timers []armed
}

// armed is a pending timer and the delay it was armed with: its handler
// reads a time at least that far past the arming step's, as on either
// backend.
type armed struct {
	Timer
	delay uint64
}

// Key canonically encodes the global state. Every variable-length field is
// length-prefixed, so two different states never share a key. The state is
// the JSON encoding, not the codec's bytes: the codec's map order is not
// canonical.
func (g *global) Key() string {
	var b []byte
	for _, id := range slices.Sorted(maps.Keys(g.procs)) {
		p := g.procs[id]
		b = fields(field(field(b, id), p.stateJSON), p.faults)
		b = binary.AppendUvarint(binary.LittleEndian.AppendUint64(b, snapHash(p.heap)), p.clock)
		b = strconv.AppendBool(b, p.halted)
		keys := p.cells.Keys()
		b = binary.AppendUvarint(b, uint64(len(keys)))
		for _, k := range keys {
			v, _ := p.cells.Get(k)
			b = field(field(b, k), v)
		}
	}
	// The network and the timers are multisets: sort their encodings.
	msgs := make([]string, len(g.net))
	for i, m := range g.net {
		msgs[i] = string(field(field(field(nil, m.From), m.To), m.Payload))
	}
	ts := make([]string, len(g.timers))
	for i, t := range g.timers {
		ts[i] = string(binary.AppendUvarint(field(field(nil, t.Proc), t.Name), t.delay))
	}
	slices.Sort(msgs)
	slices.Sort(ts)
	return string(fields(fields(b, msgs), ts))
}

// field appends s to b, prefixed with its length.
func field[T string | []byte](b []byte, s T) []byte {
	return append(binary.AppendUvarint(b, uint64(len(s))), s...)
}

// fields appends ss to b, prefixed with their number.
func fields(b []byte, ss []string) []byte {
	b = binary.AppendUvarint(b, uint64(len(ss)))
	for _, s := range ss {
		b = field(b, s)
	}
	return b
}

func snapHash(s *checkpoint.Snapshot) uint64 {
	if s == nil {
		return 0
	}
	return s.Hash()
}

// Clone copies the global state; immutable parts (state JSON, heap
// snapshots, cells, fault lists) are shared.
func (g *global) Clone() modeld.State {
	ng := &global{procs: make(map[string]*procState, len(g.procs))}
	for id, p := range g.procs {
		cp := *p
		cp.faults = slices.Clip(p.faults)
		ng.procs[id] = &cp
	}
	ng.net = slices.Clone(g.net)
	ng.timers = slices.Clone(g.timers)
	return ng
}

// investigation holds the immutable exploration setup.
type investigation struct {
	models map[string]ProcModel
	store  *checkpoint.Store // where the handlers' Context.Checkpoint files
}

// kernel loads process id's state into a fresh machine on a fresh kernel,
// which shares the state's cells until a step writes them (stepCtx.
// DurablePut). Nothing else of one step's kernel reaches another: sibling
// branches must not share a machine, a halt or a clock.
func (inv *investigation) kernel(id string, p *procState) (dsim.Kernel, error) {
	heap := checkpoint.NewHeap(heapSize)
	if p.heap != nil {
		heap = checkpoint.NewHeapFrom(p.heap)
	}
	k := dsim.NewKernel(id, nil, heap, scroll.NewMemory(id))
	*k.Cells() = p.cells
	if err := k.Replace(inv.models[id].New(), p.stateJSON); err != nil {
		return k, fmt.Errorf("investigate: %w", err)
	}
	return k, nil
}

// step runs one handler of process id after it waited wait ticks, folding
// what it did into g. An event for a halted or unknown process is consumed
// without effect.
func (inv *investigation) step(g *global, id string, wait uint64, handle func(dsim.Machine, dsim.Context)) {
	p, ok := g.procs[id]
	if !ok || p.halted {
		return
	}
	k, err := inv.kernel(id, p)
	if err != nil {
		panic(err) // Run loaded every model's state at entry
	}
	c := &stepCtx{Kernel: k, g: g, p: p, store: inv.store, now: p.clock + wait}
	handle(c.Machine(), c)
	p.stateJSON = c.MachineState()
	p.heap = c.Heap().Snapshot()
	p.cells = *c.Cells()
	p.halted = p.halted || c.Halted()
	p.clock = c.now + 1
}

// stepCtx is the Context of one Investigator step. The kernel records every
// call as on either backend and holds the process's cells; what the
// explorer owns — the modeled network and timers, time and randomness —
// lands in the successor state g.
type stepCtx struct {
	dsim.Kernel
	g      *global
	p      *procState
	store  *checkpoint.Store
	now    uint64    // the step's time: distinct for each step of the process
	rng    *rand.PCG // the step's draws, seeded on the first
	copied bool      // the kernel's cells are this step's own
}

// Now returns the step's time: the cut's virtual time plus one per handler
// the process has run since, plus the delay of every timer that has fired at
// it, this step's included — per process and increasing, and never before a
// timer's deadline. Time stays abstract otherwise: a timer fires "any time"
// relative to other events (§4.3), and the clock depends only on which
// events the process handled, not on their order.
func (c *stepCtx) Now() uint64 { return c.RecordTime(c.now) }

// Random returns draw i of the step: output i of a generator seeded with
// the process and the step's time, so each step draws afresh and a
// revisited state draws the same.
func (c *stepCtx) Random() uint64 {
	if c.rng == nil {
		c.rng = rand.NewPCG(uint64(crc32.ChecksumIEEE([]byte(c.Self()))), c.now)
	}
	return c.RecordRandom(c.rng.Uint64())
}

// Send puts the message on the modeled network; its messages have no
// identity, so the record names none.
func (c *stepCtx) Send(to string, payload []byte) {
	body, _, _ := c.RecordSend("", to, payload)
	c.g.net = append(c.g.net, Msg{From: c.Self(), To: to, Payload: body})
}

// SetTimer arms name; it may fire at any point of the exploration.
func (c *stepCtx) SetTimer(name string, delay uint64) {
	c.g.timers = append(c.g.timers, armed{Timer{Proc: c.Self(), Name: name}, delay})
}

// DurablePut writes the process's cells, copying them on the step's first
// write: the parent state shares them.
func (c *stepCtx) DurablePut(key string, value []byte) {
	if !c.copied {
		cells := c.Cells()
		*cells, c.copied = cells.Clone(), true
	}
	c.RecordDurablePut(key, value)
}

func (c *stepCtx) Fault(desc string) {
	c.RecordFault(desc, c.now)
	c.p.faults = append(c.p.faults, desc)
}

// Checkpoint files a real checkpoint in the investigation's store.
func (c *stepCtx) Checkpoint(label string) string {
	return c.Kernel.Checkpoint(c.store, c.now, label, nil).ID
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
	inv, root, err := start(models, inTransit, timers)
	if err != nil {
		return nil, err
	}

	engine := modeld.NewEngine()
	engine.AddAction(deliverAction(inv))
	engine.AddAction(timerAction(inv))
	if cfg.ModelLoss {
		engine.AddAction(dropAction())
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

	res := engine.Explore(root, modeld.Options{
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

// start validates the models and assembles the root state. A model without
// a factory, a process modeled twice, or a state the model's machine rejects
// is an error.
func start(models []ProcModel, inTransit []Msg, timers []Timer) (*investigation, *global, error) {
	inv := &investigation{models: make(map[string]ProcModel, len(models)), store: checkpoint.NewStore()}
	root := &global{procs: make(map[string]*procState, len(models))}
	for _, pm := range models {
		if pm.New == nil {
			return nil, nil, fmt.Errorf("investigate: model for %q has no factory", pm.Proc)
		}
		if _, dup := inv.models[pm.Proc]; dup {
			return nil, nil, fmt.Errorf("investigate: two models for process %q", pm.Proc)
		}
		inv.models[pm.Proc] = pm
		p := &procState{stateJSON: pm.State, heap: pm.Heap, clock: pm.Time}
		for _, k := range slices.Sorted(maps.Keys(pm.Durable)) {
			p.cells.Put(k, pm.Durable[k])
		}
		if _, err := inv.kernel(pm.Proc, p); err != nil {
			return nil, nil, err
		}
		root.procs[pm.Proc] = p
	}
	// Processes starting from their initial state run Init as their first
	// step, producing their initial sends and timers.
	for _, id := range slices.Sorted(maps.Keys(inv.models)) {
		if inv.models[id].State == nil {
			inv.step(root, id, 0, func(m dsim.Machine, ctx dsim.Context) { m.Init(ctx) })
		}
	}
	root.net = append(root.net, inTransit...)
	for _, t := range timers {
		root.timers = append(root.timers, armed{Timer: t})
	}
	return inv, root, nil
}

// eventAction branches over the n(g) pending events of one kind: one
// successor per event, in which take consumes it.
func eventAction(name string, n func(*global) int, take func(g *global, i int)) modeld.Action {
	return modeld.NewBranchingAction(name,
		func(s modeld.State) bool { return n(s.(*global)) > 0 },
		func(s modeld.State) []modeld.State {
			g := s.(*global)
			out := make([]modeld.State, n(g))
			for i := range out {
				ng := g.Clone().(*global)
				take(ng, i)
				out[i] = ng
			}
			return out
		})
}

func inFlight(g *global) int { return len(g.net) }

// deliverAction delivers each in-flight message.
func deliverAction(inv *investigation) modeld.Action {
	return eventAction("deliver", inFlight, func(g *global, i int) {
		msg := g.net[i]
		g.net = slices.Delete(g.net, i, i+1)
		inv.step(g, msg.To, 0, func(m dsim.Machine, ctx dsim.Context) { m.OnMessage(ctx, msg.From, msg.Payload) })
	})
}

// timerAction fires each pending timer (asynchrony: a timer may fire at
// any point relative to message deliveries).
func timerAction(inv *investigation) modeld.Action {
	return eventAction("timer", func(g *global) int { return len(g.timers) }, func(g *global, i int) {
		tm := g.timers[i]
		g.timers = slices.Delete(g.timers, i, i+1)
		inv.step(g, tm.Proc, tm.delay, func(m dsim.Machine, ctx dsim.Context) { m.OnTimer(ctx, tm.Name) })
	})
}

// dropAction models a lossy network: any in-flight message may vanish.
func dropAction() modeld.Action {
	return eventAction("drop", inFlight, func(g *global, i int) { g.net = slices.Delete(g.net, i, i+1) })
}

// crashAction models fail-stop: any live process may halt at any point,
// after which its pending messages become undeliverable.
func crashAction() modeld.Action {
	return eventAction("crash", func(g *global) int { return len(live(g)) },
		func(g *global, i int) { g.procs[live(g)[i]].halted = true })
}

// live returns the processes that have not halted, sorted.
func live(g *global) []string {
	var ids []string
	for _, id := range slices.Sorted(maps.Keys(g.procs)) {
		if !g.procs[id].halted {
			ids = append(ids, id)
		}
	}
	return ids
}
