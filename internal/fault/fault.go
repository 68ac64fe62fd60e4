// Package fault provides fault injection plans and fault detectors for
// simulated distributed applications.
//
// FixD's pipeline starts when "one process (or potentially more than one)
// detects a fault locally" (paper §3.3). This package supplies the two
// standard local detection mechanisms — invariant monitors over process
// state and heartbeat-based crash detection — plus a declarative injection
// plan used by the experiments to provoke the faults in the first place: a
// Plan is a list of Injections, data a substrate arms through its one
// Inject method; what each kind does is internal/inject's to say.
//
// # Invariants and the States view
//
// A GlobalInvariant is a predicate over one States view of every process's
// machine state. The view has one typed accessor,
//
//	st, err := fault.Get[kvState](states, "kvprimary")
//
// and two kinds of backing. A Monitor checking the simulator hands the
// invariant the machines' own State() pointers: Get returns the live *T
// when the process's state is a *T — no copy, no serialization, a warm
// check allocates nothing — under a read-only contract (do not write
// through the pointer, do not keep it or the view past Holds: the
// simulation's next step changes what it points to). Everywhere else — the
// live substrate, whose machines run on their own goroutines; the Healer's
// recovery lines and the Investigator's model states, which are JSON
// already (StatesFromRaw) — the view is backed by JSON, produced per
// process the first time something reads it, and Get decodes it into a
// fresh T. The same fallback serves a live view whose process holds some
// other type than the one asked for, so reading a foreign state by field
// name works exactly as it does with encoding/json; States.Raw is that JSON
// for invariants that would rather decode it themselves.
package fault

import (
	"encoding/json"
	"fmt"
	"slices"
	"sort"

	"repro/internal/dsim"
	"repro/internal/inject"
)

// Kind, Injection and the kind constants are internal/inject's — the leaf
// that also holds the per-kind table and the rule evaluator both backends
// share — under the names the rest of the tree has always used.
type (
	Kind      = inject.Kind
	Injection = inject.Injection
)

// Injected fault kinds.
const (
	Crash     = inject.Crash
	Restart   = inject.Restart
	Partition = inject.Partition
	Delay     = inject.Delay
	Reorder   = inject.Reorder
	Duplicate = inject.Duplicate
	Drop      = inject.Drop
	ClockSkew = inject.ClockSkew
	Rollback  = inject.Rollback
	Corrupt   = inject.Corrupt
	SlowNode  = inject.SlowNode

	NumKinds = inject.NumKinds
)

// Plan is a reproducible fault schedule.
type Plan struct {
	Injections []Injection
}

// Injector is the chaos capability a substrate exposes: take one injection.
// What it means is its Kind's row in internal/inject, evaluated by an
// inject.Store — *dsim.Sim keeps one, the live runtime one at its transport
// hub — so an implementation only routes: control kinds to the process, the
// rest to its store. Times are virtual ticks of the substrate's choosing.
type Injector interface {
	Inject(Injection)
}

// Apply arms every injection on the substrate. Call before the run starts.
// An injection whose kind is not declared arms nothing.
func (p *Plan) Apply(s Injector) {
	for _, inj := range p.Injections {
		if inj.Kind.Class() != 0 {
			s.Inject(inj)
		}
	}
}

// CrashRestart builds a plan that crashes proc at t and restarts it at t2.
func CrashRestart(proc string, t, t2 uint64) *Plan {
	return &Plan{Injections: []Injection{
		{Kind: Crash, Proc: proc, At: t},
		{Kind: Restart, Proc: proc, At: t2},
	}}
}

// GlobalInvariant is a safety property over the machine states of all
// processes, handed to Holds as one read-only States view. Holds must not
// modify anything it reaches through the view and must not retain the view
// or any state pointer past its return: on the simulator the pointers are
// the running machines' own state. An invariant must tolerate absent
// processes (a recovery line may leave some out).
type GlobalInvariant struct {
	Name  string
	Holds func(states *States) bool
}

// Violation is a failed global invariant check.
type Violation struct {
	Invariant string
	Time      uint64
}

// StateSource is the read-only view of a substrate the monitor needs:
// the process registry and each process's serialized machine state.
// *dsim.Sim and the live substrate both satisfy it.
type StateSource interface {
	Procs() []string
	MachineState(id string) []byte
	Now() uint64
}

// liveSource is a StateSource whose machine states can also be read in
// place: the simulator, which is single-threaded and quiescent whenever a
// monitor runs. The live substrate's machines run on their own goroutines,
// so it offers serialized state only.
type liveSource interface {
	LiveStates(buf []any) (ids []string, states []any)
}

// States is the view of every process's machine state an invariant reads.
// Get is the typed accessor; Raw is the JSON underneath it. A view is
// backed either by live state pointers (a Monitor over the simulator), with
// JSON produced per process only if something asks for it, or by JSON alone
// (StatesFromRaw; a Monitor over the live substrate, which serializes a
// process the first time it is read).
type States struct {
	ids  []string    // sorted
	live []any       // live[i]: process ids[i]'s State() pointer; nil slice on JSON-backed views
	raw  [][]byte    // raw[i]: its JSON once produced
	src  StateSource // where a JSON-backed view fetches raw[i] on first use; nil when raw is complete
}

// StatesFromRaw returns the view of already-serialized states (proc -> JSON
// machine state): checkpoint lines, model-checker states, anything
// JSON-native.
func StatesFromRaw(raw map[string]json.RawMessage) *States {
	ids := make([]string, 0, len(raw))
	for id := range raw {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	s := &States{ids: ids, raw: make([][]byte, len(ids))}
	for i, id := range ids {
		s.raw[i] = raw[id]
	}
	return s
}

// load points the view at the substrate's current states, reusing the
// view's slices.
func (s *States) load(src StateSource) {
	if ls, ok := src.(liveSource); ok {
		s.ids, s.live = ls.LiveStates(s.live[:0])
		s.src = nil
	} else {
		s.ids, s.live, s.src = src.Procs(), nil, src
	}
	clear(s.raw) // everything past len(s.raw) is nil already
	s.raw = slices.Grow(s.raw[:0], len(s.ids))[:len(s.ids)]
}

// Procs returns the sorted IDs of the processes in the view. The slice is
// the view's own: read-only.
func (s *States) Procs() []string { return s.ids }

// Has reports whether the view holds a state for process id.
func (s *States) Has(id string) bool {
	_, ok := slices.BinarySearch(s.ids, id)
	return ok
}

// Raw returns process id's machine state as JSON (nil for a process the
// view does not hold), marshaling a live state on first use.
func (s *States) Raw(id string) json.RawMessage {
	if i, ok := slices.BinarySearch(s.ids, id); ok {
		return s.rawAt(i)
	}
	return nil
}

// rawAt returns the JSON state of process s.ids[i], producing it on first use.
func (s *States) rawAt(i int) []byte {
	if s.raw[i] == nil {
		if s.live != nil {
			b, err := json.Marshal(s.live[i])
			if err != nil {
				panic(fmt.Sprintf("fault: state of %s not serializable: %v", s.ids[i], err))
			}
			s.raw[i] = b
		} else if s.src != nil {
			s.raw[i] = s.src.MachineState(s.ids[i])
		}
	}
	return s.raw[i]
}

// Get returns process id's state as a *T. When the view is live and the
// process's state is a *T, that is the machine's own state, read in place:
// no copy, no JSON — and no invalid-UTF-8 coercion, which a JSON round trip
// applies to strings. Otherwise (a JSON-backed view, or a process whose
// state is some other type) Raw(id) is decoded into a fresh T, so reading
// a foreign state by field name works as it does with encoding/json. It is
// an error to ask for a process the view does not hold.
func Get[T any](s *States, id string) (*T, error) {
	i, ok := slices.BinarySearch(s.ids, id)
	if !ok {
		return nil, fmt.Errorf("fault: no state for process %q", id)
	}
	if s.live != nil {
		if st, ok := s.live[i].(*T); ok {
			return st, nil
		}
	}
	st := new(T)
	if err := json.Unmarshal(s.rawAt(i), st); err != nil {
		return nil, err
	}
	return st, nil
}

// Monitor evaluates global invariants against a substrate's current
// machine states. It is the omniscient-observer counterpart to the local
// Context.Fault mechanism; experiments use it as ground truth. The States
// view is reused across evaluations (monitors are checked on the chaos
// runner's early-exit cadence: a check over the simulator allocates
// nothing); a Monitor is therefore not safe for concurrent use.
type Monitor struct {
	invariants []GlobalInvariant
	states     States // reused across checks
}

// NewMonitor returns a monitor with the given invariants.
func NewMonitor(invs ...GlobalInvariant) *Monitor {
	return &Monitor{invariants: invs}
}

// Check evaluates all invariants and returns the violations found.
func (m *Monitor) Check(s StateSource) []Violation {
	m.states.load(s)
	var out []Violation
	for _, inv := range m.invariants {
		if !inv.Holds(&m.states) {
			out = append(out, Violation{Invariant: inv.Name, Time: s.Now()})
		}
	}
	return out
}

// AnyViolated reports whether at least one invariant is currently violated,
// stopping at the first hit and allocating no violation list — the fast
// path the chaos runner polls on its early-exit cadence.
func (m *Monitor) AnyViolated(s StateSource) bool {
	m.states.load(s)
	for _, inv := range m.invariants {
		if !inv.Holds(&m.states) {
			return true
		}
	}
	return false
}

// heartbeatState is the serializable state of a HeartbeatMonitor.
type heartbeatState struct {
	LastSeen map[string]uint64 // peer -> last heartbeat virtual time
	Reported map[string]bool   // peers already declared dead
}

// HeartbeatMonitor is a dsim machine that watches peers for periodic
// heartbeats and reports a Fault when one goes silent for more than
// Timeout ticks — the classic local crash detector.
type HeartbeatMonitor struct {
	st       heartbeatState
	Peers    []string
	Interval uint64 // check period
	Timeout  uint64 // silence threshold
}

// State implements dsim.Machine.
func (m *HeartbeatMonitor) State() any { return &m.st }

// Init starts the periodic check timer.
func (m *HeartbeatMonitor) Init(ctx dsim.Context) {
	m.st.LastSeen = make(map[string]uint64)
	m.st.Reported = make(map[string]bool)
	ctx.SetTimer("hb-check", m.Interval)
}

// OnMessage records a peer heartbeat.
func (m *HeartbeatMonitor) OnMessage(ctx dsim.Context, from string, payload []byte) {
	if string(payload) == "hb" {
		m.st.LastSeen[from] = ctx.Now()
	}
}

// OnTimer checks for silent peers and re-arms the timer.
func (m *HeartbeatMonitor) OnTimer(ctx dsim.Context, name string) {
	if name != "hb-check" {
		return
	}
	now := ctx.Now()
	for _, p := range m.Peers {
		last, seen := m.st.LastSeen[p]
		if m.st.Reported[p] {
			continue
		}
		if (seen && now-last > m.Timeout) || (!seen && now > m.Timeout) {
			m.st.Reported[p] = true
			ctx.Fault(fmt.Sprintf("heartbeat: peer %s silent for > %d ticks", p, m.Timeout))
		}
	}
	ctx.SetTimer("hb-check", m.Interval)
}

// OnRollback clears suspicion state so a restored monitor re-evaluates.
func (m *HeartbeatMonitor) OnRollback(ctx dsim.Context, info dsim.RollbackInfo) {}

// Heartbeater is a dsim machine that sends periodic heartbeats to a
// monitor.
type Heartbeater struct {
	st       struct{ Sent int }
	Monitor  string
	Interval uint64
}

// State implements dsim.Machine.
func (h *Heartbeater) State() any { return &h.st }

// Init sends the first heartbeat and arms the timer.
func (h *Heartbeater) Init(ctx dsim.Context) {
	ctx.Send(h.Monitor, []byte("hb"))
	h.st.Sent++
	ctx.SetTimer("hb", h.Interval)
}

// OnMessage ignores input.
func (h *Heartbeater) OnMessage(dsim.Context, string, []byte) {}

// OnTimer sends the next heartbeat.
func (h *Heartbeater) OnTimer(ctx dsim.Context, name string) {
	if name != "hb" {
		return
	}
	ctx.Send(h.Monitor, []byte("hb"))
	h.st.Sent++
	ctx.SetTimer("hb", h.Interval)
}

// OnRollback does nothing; heartbeats resume from the restored state.
func (h *Heartbeater) OnRollback(dsim.Context, dsim.RollbackInfo) {}
