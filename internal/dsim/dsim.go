// Package dsim is a deterministic discrete-event simulator for distributed
// applications: the testbed substrate on which FixD's mechanisms are
// exercised and measured (simulation substitutes for the paper's live deployment).
//
// Processes are event-driven state machines (Machine) exchanging messages
// through a simulated network with seeded random latency, loss, duplication
// and partitions. Every nondeterministic input a machine observes — message
// deliveries, timer fires, random draws, clock reads — flows through the
// per-process Scroll, so executions can be replayed deterministically
// (paper §3.1). Processes checkpoint their state through the paged COW heap
// (paper §4.2) under configurable policies (communication-induced,
// periodic/uncoordinated, or speculation-driven). Speculations absorb the
// receivers of speculative data and commit or abort; every deliberate
// rollback — RollbackTo, an injected rollback, the Healer's, a speculation
// abort — runs the same rollback body.
//
// Given identical Config (including Seed) and machines, two runs produce
// identical event orders, scrolls and final states.
package dsim

import (
	"fmt"
	"iter"
	"math/rand"
	"slices"
	"strconv"

	"repro/internal/checkpoint"
	"repro/internal/inject"
	"repro/internal/scroll"
	"repro/internal/slab"
	"repro/internal/speculation"
	"repro/internal/vclock"
)

// Machine is a deterministic, event-driven process implementation. All of
// its durable state must be reachable from State() (JSON-serializable) or
// stored in the context's Heap; dsim snapshots and restores both.
type Machine interface {
	// State returns a pointer to the machine's serializable state. The
	// pointer is all the simulator works from. A checkpoint captures the
	// state with a binary codec compiled once per state type
	// (checkpoint.CodecFor) and turns it into JSON only when a restore, the
	// Healer or the Investigator asks (Checkpoint.StateJSON); a type the
	// codec cannot reproduce exactly as encoding/json would — custom json or
	// encoding.Text (un)marshalers, unexported or embedded fields,
	// interfaces — is captured with json.Marshal on the spot instead.
	// Invariant monitors read the pointed-to state in place, read-only
	// (fault.States).
	State() any
	// Init runs once at simulation start (virtual time 0).
	Init(ctx Context)
	// OnMessage handles a delivered message. The payload is borrowed: it is
	// read-only and valid until OnMessage returns (on the simulator it is
	// the very slice backing the sender's scroll record). A machine that
	// keeps any of it copies what it keeps.
	OnMessage(ctx Context, from string, payload []byte)
	// OnTimer handles a timer the machine previously set.
	OnTimer(ctx Context, name string)
	// OnRollback runs after the process state has been restored to a
	// checkpoint, letting the machine take an alternate execution path
	// (paper §4.2, difference (2)).
	OnRollback(ctx Context, info RollbackInfo)
}

// Context is the environment API a machine programs against. Two
// implementations run processes and record every nondeterministic outcome
// in the process's Scroll: the simulator's and the live substrate's
// (internal/substrate). Both record through the process's Kernel, where the
// record of each call is written once, so their scrolls agree record for
// record. The replay runner's kernel compares each record with the
// recording instead and feeds recorded outcomes back (paper §2.3), and the
// Investigator's captures effects for model checking (paper §3.3).
type Context interface {
	// Self returns the process ID.
	Self() string
	// Now returns the current virtual time (a recorded nondeterministic
	// input).
	Now() uint64
	// Random returns a pseudo-random value (recorded).
	Random() uint64
	// Send transmits a message to the named process. It does not retain
	// payload: every implementation copies (or compares) the bytes before
	// returning, so the caller may render its next message into the same
	// buffer.
	Send(to string, payload []byte)
	// SetTimer schedules OnTimer(name) after delay ticks.
	SetTimer(name string, delay uint64)
	// Heap is the process's checkpointable bulk store.
	Heap() *checkpoint.Heap
	// DurablePut writes key = value to the process's stable storage — the
	// per-process store that models a disk (liblog/Flashback-style durable
	// logging, paper §3.1). Unlike the heap and machine state it is NOT
	// rewound by crash-restart: a write survives every involuntary restore
	// for the rest of the run. Deliberate rollbacks (Time Machine, heal,
	// speculation aborts) abandon the timeline the write happened on, so a
	// key reads again what it held at the restored checkpoint. The write is
	// recorded in the scroll, so replays observe it.
	DurablePut(key string, value []byte)
	// DurableGet reads a stable-storage cell. The outcome is recorded in
	// the scroll (KindEnv), so per-process replay feeds the same value back.
	DurableGet(key string) ([]byte, bool)
	// DurableKeys returns the sorted keys present in stable storage
	// (recorded, like DurableGet).
	DurableKeys() []string
	// Log records an informational note.
	Log(format string, args ...any)
	// Fault reports a locally detected invariant violation.
	Fault(desc string)
	// Checkpoint takes an explicit checkpoint, returning its ID.
	Checkpoint(label string) string
	// Speculate begins a speculation; Commit/AbortSpec resolve it.
	Speculate(assumption string) (string, error)
	Commit(specID string) error
	AbortSpec(specID, reason string) error
	// Halt stops the process permanently.
	Halt()
}

// RollbackInfo tells a machine why it was rolled back.
type RollbackInfo struct {
	SpecID     string // aborted speculation, if any
	Assumption string // the invalidated assumption
	Reason     string // how it was invalidated
	Manual     bool   // true for Time-Machine/crash-restart rollbacks
	// CrashRestart is true only for crash-restart recovery, where the
	// process alone was involuntarily rewound and stable storage
	// (Context.Durable…) is its authoritative recovery source. It is false
	// for Time-Machine/speculation/heal rollbacks, which rewind a
	// consistent line across processes on purpose so an alternate path can
	// re-execute — machines should not re-install durable decisions there.
	CrashRestart bool
}

// FaultRecord is a locally detected fault reported through Context.Fault.
type FaultRecord struct {
	Proc  string
	Desc  string
	Time  uint64
	Clock vclock.VC
}

// Config parameterizes a simulation.
type Config struct {
	Seed       int64
	MinLatency uint64 // message latency lower bound (virtual ticks); default 1
	MaxLatency uint64 // upper bound; default 10
	// CICheckpoint takes a checkpoint before every message delivery
	// (communication-induced checkpointing, Fig. 6).
	CICheckpoint bool
	// CheckpointEvery takes a periodic (uncoordinated) checkpoint every N
	// delivered events per process, staggered across processes. 0 = off.
	CheckpointEvery uint64
	// InitCheckpoint takes a checkpoint of every process right after Init,
	// guaranteeing a non-trivial recovery line exists from the start.
	InitCheckpoint bool
	// FIFO forces per-channel in-order delivery (each sender-receiver pair
	// delivers in send order), as required by marker-based snapshot
	// protocols like Chandy-Lamport. Without it, latency jitter may
	// reorder messages on a channel.
	FIFO bool
	// MaxSteps bounds the number of processed events (0 = 1_000_000).
	MaxSteps int
	// HeapSize is each process's logical heap size in bytes (default
	// checkpoint.DefaultHeapSize, 64 KiB).
	HeapSize int
	// HeapPageSize overrides the checkpoint page size (default
	// checkpoint.DefaultPageSize).
	HeapPageSize int
}

// Stats are cumulative simulation counters.
type Stats struct {
	Delivered   uint64
	Dropped     uint64
	Duplicated  uint64
	TimerFires  uint64
	Checkpoints uint64
	Rollbacks   uint64
	Crashes     uint64
	Restarts    uint64
	Steps       uint64
	// EarlyExit reports that the run was halted by the step monitor (see
	// SetStepMonitor) before the queue drained or MaxSteps was reached —
	// the attribution the chaos harness uses to distinguish "invariant
	// already violated, budget saved" from a naturally quiescent run.
	EarlyExit bool
}

// event is a scheduled occurrence.
type event struct {
	time uint64
	seq  uint64 // tie-break and identity
	kind eventKind

	// message fields
	msgID      string
	from, to   string
	payload    []byte
	lamport    uint64
	clock      vclock.VC
	creatorSeq uint64 // sender's scroll seq when created (for purging and absorption)

	// timer fields
	timerName string

	// control fields
	proc string

	// dead marks a lazily-deleted event (purged by rollback); Resume
	// discards it without processing.
	dead bool
}

type eventKind int

const (
	evMessage eventKind = iota
	evTimer
	evControl  // evControl + k carries a control injection of kind k (Inject)
	evCrash    = evControl + eventKind(inject.Crash)
	evRestart  = evControl + eventKind(inject.Restart)
	evRollback = evControl + eventKind(inject.Rollback)
)

// proc is the simulator's bookkeeping for one process: its kernel, whose
// clock is on the simulation's shared ID table (Sim.tab) and whose memory is
// the run's (Sim.mem), plus what only the simulator keeps.
type proc struct {
	Kernel
	tag int32 // add order within the run: the queue keys its live timers by it
	ctx *simContext
}

// timerOf is what the event queue marks the process's live timers with:
// 1 + its tag, so that 0 marks every other event (qkey.timerOf).
func (p *proc) timerOf() int32 { return p.tag + 1 }

// Sim is a deterministic distributed-system simulation.
type Sim struct {
	cfg     Config
	rng     *rand.Rand
	rngSrc  *gfsrSource // rng's source, reseeded on Reset
	now     uint64
	seq     uint64
	queue   eventQueue
	procs   map[string]*proc
	order   []string
	scrolls []*scroll.Scroll // scrolls[i]: process order[i]'s scroll
	spare   map[string]*proc // retired procs whose arenas Reset recycles

	specs    *speculation.Manager
	store    *checkpoint.Store
	faults   []FaultRecord
	stats    Stats
	epoch    uint64       // timeline epoch: bumped by every deliberate rollback
	rules    inject.Store // armed by Inject, evaluated at Send, SetTimer, Now and deliver
	corrupts uint64       // payloads a corrupt rule mutated (not in Stats: artifact JSON is pinned)
	msgN     uint64
	tab      *vclock.Table // process-ID table every clock of the run shares
	stop     bool
	lastFIFO map[string]uint64 // per-channel last scheduled delivery time

	monEvery uint64      // step-monitor cadence (0 = off)
	monFn    func() bool // step monitor; true halts with Stats.EarlyExit

	// Run-scoped memory: carved during a run, rewound — not dropped — by
	// Reset, so a warm pooled run allocates none of it again. Everything
	// handed out of it (record payloads, clock snapshots, checkpoints and
	// what they point to) is invalid after Reset. Every kernel of the run
	// carves from mem.
	mem    memory
	timers slab.Slab[string] // checkpoints' pending-timer lists

	// Message IDs recur identically run after run: "m<N>" at N-1, up to
	// maxInternedMsgIDs, kept across Reset.
	msgIDs []string
	idText slab.Text // where the table's strings and the others are carved

	// faultHandler, if set, is invoked on every Context.Fault report
	// (SetFaultHandler). Returning true stops the simulation.
	faultHandler func(FaultRecord) bool
}

// maxInternedMsgIDs bounds the message-ID intern table.
const maxInternedMsgIDs = 1024

// msgID renders "m<n>", from the intern table when n is small enough to be
// remembered. Past the table — a long run, or a fresh simulation's first —
// an ID is carved from a block of ID text, not allocated: it is an ordinary
// string that outlives Reset (IDs leave runs inside RunResults).
func (s *Sim) msgID(n uint64) string {
	if n <= uint64(len(s.msgIDs)) {
		return s.msgIDs[n-1]
	}
	var arr [24]byte
	id := s.idText.Carve(strconv.AppendUint(append(arr[:0], 'm'), n, 10))
	// A run hands IDs out in order from m1, so the first one past the table's
	// end is the one to append.
	if n == uint64(len(s.msgIDs))+1 && n <= maxInternedMsgIDs {
		s.msgIDs = append(s.msgIDs, id)
	}
	return id
}

// normalize fills config defaults; New and Reset must agree on them.
func normalize(cfg Config) Config {
	if cfg.MinLatency == 0 {
		cfg.MinLatency = 1
	}
	if cfg.MaxLatency < cfg.MinLatency {
		cfg.MaxLatency = cfg.MinLatency + 9
	}
	if cfg.MaxSteps <= 0 {
		cfg.MaxSteps = 1_000_000
	}
	if cfg.HeapSize <= 0 {
		cfg.HeapSize = checkpoint.DefaultHeapSize
	}
	if cfg.HeapPageSize <= 0 {
		cfg.HeapPageSize = checkpoint.DefaultPageSize
	}
	return cfg
}

// New creates a simulation with the given configuration.
func New(cfg Config) *Sim {
	s := &Sim{
		cfg:      normalize(cfg),
		procs:    make(map[string]*proc),
		spare:    make(map[string]*proc),
		store:    checkpoint.NewStore(),
		lastFIFO: make(map[string]uint64),
		tab:      vclock.NewTable(),
	}
	s.rngSrc = &gfsrSource{}
	s.rngSrc.Seed(s.cfg.Seed)
	s.rng = rand.New(s.rngSrc)
	s.specs = speculation.NewManager()
	return s
}

// Reset rewinds the simulation to the state New(cfg) would produce while
// recycling every allocation the previous run grew: the event arena, the
// retired processes' checkpoint heaps (pages copy-on-write displaced
// included) and scroll buffers, the rule and fault slices, the FIFO
// bookkeeping, the checkpoint store's lists, the speculation manager, and
// the run-scoped slabs that record payloads, clock snapshots, state
// encodings, heap snapshots and checkpoints are carved from. The chaos
// runner keeps one Sim per worker and Resets it between runs instead of
// paying a fresh arena per run; a Reset simulation is observationally
// identical to a fresh one (byte-identical scrolls, digests and stats for
// the same seed, machines and schedule — see TestResetEquivalence).
//
// One rule covers all of it: everything the simulation handed out during
// the run — scroll records and their payloads and clocks, checkpoints,
// heap snapshots, fault records, the store and the speculation manager's
// contents — is invalid after Reset. Its memory is rewound and reused, not
// zeroed and not dropped; copy out whatever must outlive the run first.
func (s *Sim) Reset(cfg Config) {
	s.cfg = normalize(cfg)
	s.rngSrc.Seed(s.cfg.Seed)
	s.now, s.seq, s.msgN = 0, 0, 0
	s.queue.reset()
	for id, p := range s.procs {
		p.machine = nil
		// Stable storage survives everything within a run; between runs it
		// must vanish, or pooled and fresh simulations would diverge (see
		// TestDurableResetEquivalence).
		p.cells.Reset()
		s.spare[id] = p
		delete(s.procs, id)
	}
	s.order, s.scrolls = s.order[:0], s.scrolls[:0]
	s.specs.Reset()
	s.store.Reset()
	s.faults = s.faults[:0]
	s.stats = Stats{}
	s.epoch = 0
	s.rules.Reset()
	s.corrupts = 0
	s.stop = false
	clear(s.lastFIFO)
	s.monEvery, s.monFn = 0, nil
	s.faultHandler = nil
	s.mem.rewind()
	s.timers.Rewind()
}

// AddProcess registers a machine under the given process ID. It must be
// called before Run.
func (s *Sim) AddProcess(id string, m Machine) {
	if _, dup := s.procs[id]; dup {
		panic(fmt.Sprintf("dsim: duplicate process %q", id))
	}
	p := s.spare[id]
	if p != nil {
		delete(s.spare, id)
		p.machine = m
		p.heap.Reset(s.cfg.HeapSize, s.cfg.HeapPageSize)
		p.scroll.Truncate(0)
		p.snap = vclock.VC{}
		p.lamport = vclock.Lamport{}
		p.crashed, p.halted, p.delivered, p.ckptSkew = false, false, 0, 0
	} else {
		p = &proc{Kernel: Kernel{
			id:      id,
			machine: m,
			heap:    s.mem.ckmem.NewHeap(s.cfg.HeapSize, s.cfg.HeapPageSize),
			scroll:  scroll.NewMemory(id),
			mem:     &s.mem,
		}}
	}
	if p.ctx == nil || p.ctx.sim != s {
		// One reusable context per process: machine callbacks receive the
		// same (sim, proc) pair for the process's whole life, so handing
		// them a shared value instead of a fresh allocation per event is
		// observationally identical (machines must not retain the Context
		// beyond the callback, which none do).
		p.ctx = &simContext{sim: s, proc: p}
	}
	p.tag = int32(len(s.procs))
	s.procs[id] = p
	i, _ := slices.BinarySearch(s.order, id)
	s.order = slices.Insert(s.order, i, id)
	s.scrolls = slices.Insert(s.scrolls, i, p.scroll)
	// A pooled simulation re-adds last run's processes, so the table it
	// kept across Reset already has the ID and the recycled clock is
	// already on it. A recycled clock of another process set still sits on
	// that set's table, which the run adopts when it holds every ID added
	// so far: a pool whose runs alternate between applications then builds
	// no table. Only a process set no table has seen builds one.
	if i := s.tab.Index(id); i >= 0 {
		p.self = int32(i)
		if p.clock.Table() == s.tab {
			p.clock.Reset()
		} else {
			p.clock = s.tab.New()
		}
	} else if t := p.clock.Table(); t != nil && holdsAll(t, s.order) {
		p.clock.Reset()
		s.retable(t)
	} else {
		p.clock = vclock.VC{} // a recycled clock's counts must not be re-homed
		s.retable(vclock.NewTable(s.order...))
	}
}

// holdsAll reports whether every one of ids is on table t.
func holdsAll(t *vclock.Table, ids []string) bool {
	for _, id := range ids {
		if t.Index(id) < 0 {
			return false
		}
	}
	return true
}

// retable moves the run onto t, which holds every current process's ID,
// and re-homes every process's clock on it, counts preserved.
func (s *Sim) retable(t *vclock.Table) {
	s.tab = t
	for _, id := range s.order {
		p := s.procs[id]
		p.self = int32(t.Index(id))
		if p.clock.Table() != t {
			p.clock = t.New().Merge(p.clock)
		}
		p.snap = vclock.VC{}
	}
}

// SetStepMonitor installs fn, invoked after every 'every' processed steps
// while the simulation runs. Returning true halts the run immediately with
// Stats.EarlyExit set — the hook behind the chaos harness's early-exit
// invariant monitoring, which stops a run as soon as an invariant is
// already violated instead of burning the remaining step budget. Passing
// every == 0 or fn == nil clears the monitor.
func (s *Sim) SetStepMonitor(every uint64, fn func() bool) {
	if every == 0 || fn == nil {
		s.monEvery, s.monFn = 0, nil
		return
	}
	s.monEvery, s.monFn = every, fn
}

// SetFaultHandler installs h, which is invoked on every Context.Fault
// report; returning true stops the simulation. The FixD coordinator
// (internal/core) uses it to trigger the Fig. 4 response protocol. Passing
// nil clears it.
func (s *Sim) SetFaultHandler(h func(FaultRecord) bool) { s.faultHandler = h }

// Store exposes the simulation's checkpoint store.
func (s *Sim) Store() *checkpoint.Store { return s.store }

// SpeculationStats returns the speculation counters.
func (s *Sim) SpeculationStats() speculation.Stats { return s.specs.Stats() }

// Now returns the current virtual time.
func (s *Sim) Now() uint64 { return s.now }

// Epoch returns the current timeline epoch. It starts at 0 and is
// incremented by every deliberate rollback — a RollbackTo-path rollback
// (the Time Machine's, an injected one, the Healer's, a speculation abort)
// and a dynamic update (ReplaceMachine) — but NOT by crash-restart, which
// recovers the same timeline. Runs that never roll back therefore report
// epoch 0, keeping their artifacts byte-stable.
func (s *Sim) Epoch() uint64 { return s.epoch }

// Stats returns the cumulative counters.
func (s *Sim) Stats() Stats { return s.stats }

// Faults returns all locally detected faults so far. The slice is the
// simulation's own, like everything else a run hands out invalid after
// Reset; callers must not modify it.
func (s *Sim) Faults() []FaultRecord { return s.faults[:len(s.faults):len(s.faults)] }

// Procs returns the sorted process IDs.
func (s *Sim) Procs() []string { return append([]string(nil), s.order...) }

// LiveStates returns the sorted process IDs and, appended to buf in the
// same order, every machine's State() pointer — the in-place view invariant
// monitors read (fault.States) instead of a JSON copy of every state.
// Both are the simulation's own: read-only, the IDs valid until the next
// AddProcess or Reset, the pointed-to states until the simulation next
// steps.
func (s *Sim) LiveStates(buf []any) ([]string, []any) {
	buf = slices.Grow(buf, len(s.order))
	for _, id := range s.order {
		buf = append(buf, s.procs[id].machine.State())
	}
	return s.order, buf
}

// Scroll returns the scroll of the given process (nil if unknown).
func (s *Sim) Scroll(id string) *scroll.Scroll {
	if p, ok := s.procs[id]; ok {
		return p.scroll
	}
	return nil
}

// MachineState returns the JSON encoding of a process's current machine
// state.
func (s *Sim) MachineState(id string) []byte {
	if p, ok := s.procs[id]; ok {
		return p.MachineState()
	}
	return nil
}

// Clock returns a copy of the process's vector clock.
func (s *Sim) Clock(id string) vclock.VC {
	if p, ok := s.procs[id]; ok {
		return p.clock.Copy()
	}
	return vclock.VC{}
}

// Scrolls returns the live per-process scrolls in sorted process order —
// the copy-free input to scroll.Fingerprinter, which streams the global
// merge instead of materializing it like MergedScroll. The slice is the
// simulation's own, as LiveStates' IDs are: read-only, valid until the next
// AddProcess or Reset.
func (s *Sim) Scrolls() []*scroll.Scroll { return s.scrolls[:len(s.scrolls):len(s.scrolls)] }

// MergedScroll returns all scroll records in global (Lamport) order.
func (s *Sim) MergedScroll() []scroll.Record { return scroll.Merge(s.Scrolls()...) }

// Inject arms one fault injection (fault.Injector). A control kind becomes
// an event on inj.Proc at inj.At: a crash; a restart from the most recent
// checkpoint (or re-Init if none); or a deliberate rollback anchored at the
// process (rollbackLatest). Every other kind is a rule in the simulation's
// inject.Store, which says what it means. No rule touches what a sender
// recorded: a skewed clock changes its reader's observations, a corrupted
// delivery is a copy the receiver records — replay reproduces the lie.
func (s *Sim) Inject(inj inject.Injection) {
	if inj.Kind.Class() == inject.Control {
		s.push(event{time: inj.At, kind: evControl + eventKind(inj.Kind), proc: inj.Proc}, 0)
		return
	}
	s.rules.Add(inj)
}

// Stop makes Run return after the current event.
func (s *Sim) Stop() { s.stop = true }

// push schedules e. timerOf is the owner's proc.timerOf for a timer event,
// and 0 for every other event.
func (s *Sim) push(e event, timerOf int32) {
	s.seq++
	e.seq = s.seq
	s.queue.push(e, timerOf)
}

// Run initializes all machines and processes events until the queue is
// empty, MaxSteps is reached, or Stop is called. It returns the stats.
func (s *Sim) Run() Stats {
	for i, id := range s.order {
		p := s.procs[id]
		p.Stagger(i, s.cfg.CheckpointEvery)
		p.machine.Init(p.ctx)
	}
	if s.cfg.InitCheckpoint {
		for _, id := range s.order {
			s.takeCheckpoint(s.procs[id], "init")
		}
	}
	return s.Resume()
}

// Resume continues processing events without re-initializing machines —
// used after a Time-Machine rollback or an external Stop.
func (s *Sim) Resume() Stats {
	s.stop = false
	for s.queue.len() > 0 && !s.stop && int(s.stats.Steps) < s.cfg.MaxSteps {
		ev := s.queue.pop()
		if ev.dead {
			continue
		}
		s.stats.Steps++
		if ev.time > s.now {
			s.now = ev.time
		}
		switch ev.kind {
		case evMessage:
			s.deliver(&ev)
		case evTimer:
			s.fireTimer(&ev)
		case evCrash:
			s.crash(ev.proc)
		case evRestart:
			s.restart(ev.proc)
		case evRollback:
			s.rollbackLatest(ev.proc)
		}
		if s.monFn != nil && s.stats.Steps%s.monEvery == 0 && s.monFn() {
			s.stats.EarlyExit = true
			break
		}
	}
	return s.stats
}

// deliver hands a message event to its target process.
func (s *Sim) deliver(ev *event) {
	p, ok := s.procs[ev.to]
	if !ok || p.Down() {
		s.stats.Dropped++
		return
	}
	if s.rules.Partitioned(ev.from, ev.to, s.now) {
		s.stats.Dropped++
		return
	}
	// Windowed, target-scoped loss installed by fault injection. The sender
	// recorded the send, so the scroll shows a send with no receive: an
	// in-transit message for recovery purposes.
	if s.rules.Hit(s.rng, inject.Drop, ev.from, ev.to, s.now) {
		s.stats.Dropped++
		return
	}
	// Byzantine corruption: the receiver records — and handles — a mutated
	// copy; the sender's scroll (which shares ev.payload's backing array)
	// keeps the original bytes.
	payload := ev.payload
	if s.rules.Hit(s.rng, inject.Corrupt, ev.from, ev.to, s.now) {
		if len(payload) > 0 {
			payload = s.mem.pay.Copy(payload)
			inject.Mutate(s.rng, payload)
		}
		s.corrupts++
	}
	// Communication-induced checkpoint: save state before consuming a new
	// message (Fig. 6).
	if s.cfg.CICheckpoint {
		s.takeCheckpoint(p, "cic")
	}
	// Speculative absorption checkpoints the pre-consumption state too.
	if s.specs.Speculating() {
		s.specs.Absorb(ev.to, ev.from, ev.creatorSeq, func() (string, uint64) {
			ck := s.takeCheckpoint(p, "speculation")
			return ck.ID, ck.ScrollSeq
		})
	}
	p.RecordRecv(ev.msgID, ev.from, payload, ev.lamport, ev.clock)
	periodic := p.Delivered(s.cfg.CheckpointEvery)
	s.stats.Delivered++
	p.machine.OnMessage(p.ctx, ev.from, payload)
	if periodic {
		s.takeCheckpoint(p, "periodic")
	}
}

// fireTimer hands a timer event to its owner.
func (s *Sim) fireTimer(ev *event) {
	p, ok := s.procs[ev.proc]
	if !ok || p.Down() {
		return
	}
	p.RecordTimer(ev.timerName)
	s.stats.TimerFires++
	p.machine.OnTimer(p.ctx, ev.timerName)
}

// crash takes a process down (Kernel.Crash).
func (s *Sim) crash(id string) {
	if p, ok := s.procs[id]; ok && p.Crash() {
		s.stats.Crashes++
	}
}

// rollbackLatest performs an injected deliberate rollback anchored at one
// process: the line InjectedLine decides, restored through RollbackTo. A
// crashed member's still-queued sends past the line are recalled with its
// cut, so re-delivery cannot resurrect the abandoned timeline's traffic.
func (s *Sim) rollbackLatest(id string) {
	p, ok := s.procs[id]
	if !ok {
		return
	}
	line := InjectedLine(s.store, s.order, s.kernels(), &p.Kernel, func(k *Kernel, ck *checkpoint.Checkpoint, _ []string) {
		s.recallSends(k.id, ck.ScrollSeq)
	})
	if line == nil {
		return
	}
	if err := s.RollbackTo(line); err != nil {
		panic(fmt.Sprintf("dsim: injected rollback anchored at %s: %v", id, err))
	}
}

// kernels yields every process's kernel in ID order.
func (s *Sim) kernels() iter.Seq[*Kernel] {
	return func(yield func(*Kernel) bool) {
		for _, id := range s.order {
			if !yield(&s.procs[id].Kernel) {
				return
			}
		}
	}
}

// recallSends kills the queued messages process id sent at or after its
// scroll position seq.
func (s *Sim) recallSends(id string, seq uint64) {
	for i := 0; i < s.queue.len(); i++ {
		if ev := s.queue.at(i); ev.kind == evMessage && ev.from == id && ev.creatorSeq >= seq {
			s.queue.kill(i)
		}
	}
}

// restart revives a crashed process (Kernel.Restart).
func (s *Sim) restart(id string) {
	p, ok := s.procs[id]
	if ok && p.Restart(p.ctx, s.store, func(ck *checkpoint.Checkpoint) { s.restoreProc(p, ck) },
		func() { s.queue.killTimers(p.timerOf()) }) {
		s.stats.Restarts++
	}
}

// takeCheckpoint snapshots a process; label names the policy that triggered
// it.
func (s *Sim) takeCheckpoint(p *proc, label string) *checkpoint.Checkpoint {
	// Two passes over the queue's keys, so that the list is carved at its
	// exact size, in heap-array order: the order restoreProc re-arms it in.
	var timers []string // nil when none are pending, as it always was
	if pending := s.queue.countTimers(p.timerOf()); pending > 0 {
		timers = s.timers.Keep(s.queue.appendTimers(s.timers.Tail(pending), p.timerOf()))
	}
	ck := p.Checkpoint(s.store, s.now, label, timers)
	s.stats.Checkpoints++
	return ck
}

// restoreProc is the simulator's restore of a process to a checkpoint:
// Kernel.Restore, and the queue's part — the messages it sent since the
// checkpoint are recalled, its timers killed and the checkpoint's re-armed.
// Its cells are left alone: what a deliberate rollback abandons is
// Kernel.Abandon's, and a crash-restart (Kernel.Restart) recovers from them.
func (s *Sim) restoreProc(p *proc, ck *checkpoint.Checkpoint) {
	p.Restore(ck)
	s.recallSends(p.id, ck.ScrollSeq)
	s.queue.killTimers(p.timerOf())
	// Re-arm the timers that were pending when the checkpoint was taken
	// (their original deadlines are gone; a fresh latency draw is within
	// the asynchronous timing model).
	for _, name := range ck.Timers {
		s.push(event{
			time: s.now + s.latency(), kind: evTimer,
			proc: p.id, timerName: name, creatorSeq: ck.ScrollSeq,
		}, p.timerOf())
	}
	s.stats.Rollbacks++
}

// RollbackTo restores a set of processes to the given checkpoints (a
// recovery line computed by the Time Machine) and re-delivers the messages
// that were in transit across the line, reading them from the scrolls.
// Checkpoint IDs map process -> checkpoint ID.
func (s *Sim) RollbackTo(line map[string]string) error {
	resolved, err := s.store.ResolveLine(line)
	if err != nil {
		return err
	}
	return s.rollback(resolved, RollbackInfo{Manual: true, Reason: "time machine rollback"})
}

// rollback is the body of every deliberate rollback on the simulator —
// RollbackTo's, and so an injected one's and the Healer's, and a
// speculation abort's: it restores the resolved line, abandons the timeline
// past it, re-delivers what was in transit across it and tells each member
// why with info.
func (s *Sim) rollback(resolved []*checkpoint.Checkpoint, info RollbackInfo) error {
	// Nothing moves — not the epoch, not one process — unless the whole line
	// can be applied.
	cks := make(map[string]*checkpoint.Checkpoint, len(resolved))
	for _, ck := range resolved {
		if s.procs[ck.Proc] == nil {
			return fmt.Errorf("dsim: unknown process %q", ck.Proc)
		}
		cks[ck.Proc] = ck
	}
	// Purge queued events invalidated by the rollback: anything addressed
	// to a rolled-back process (it will be re-delivered from the scroll if
	// still in transit at the line), anything created by a rolled-back
	// process after its checkpoint, and post-checkpoint timers.
	for i := 0; i < s.queue.len(); i++ {
		ev := s.queue.at(i)
		switch ev.kind {
		case evMessage:
			if cks[ev.to] != nil {
				s.queue.kill(i)
			}
			if ck := cks[ev.from]; ck != nil && ev.creatorSeq >= ck.ScrollSeq {
				s.queue.kill(i)
			}
		case evTimer:
			if ck := cks[ev.proc]; ck != nil && ev.creatorSeq >= ck.ScrollSeq {
				s.queue.kill(i)
			}
		}
	}
	// The pre-rollback timeline is abandoned: advance the epoch, fence the
	// durable cells it wrote, and drop its checkpoints so a later
	// crash-restart recovers the restored timeline, not the abandoned one.
	s.epoch++
	for _, ck := range resolved {
		p := s.procs[ck.Proc]
		s.restoreProc(p, ck)
		p.Abandon(s.store, ck)
		if s.specs.Speculating() {
			s.specs.Rewind(p.id, ck.ScrollSeq)
		}
	}
	// Re-deliver the messages in transit across the line to its members.
	// Restored scrolls already end at the line; every other process is cut
	// at its full length. A re-sent message carries its send's scroll
	// position, as the original did: a later rollback of its sender recalls
	// it, and its delivery absorbs as the original's would have.
	for r := range scroll.InTransit(s.Scrolls(), nil) {
		if cks[r.Peer] != nil {
			s.push(event{
				time: s.now + s.latency(), kind: evMessage,
				msgID: r.MsgID, from: r.Proc, to: r.Peer,
				payload: r.Payload, lamport: r.Lamport, clock: r.Clock.Copy(), creatorSeq: r.Seq,
			}, 0)
		}
	}
	// Notify machines (alternate path opportunity), in sorted order.
	for _, ck := range resolved {
		p := s.procs[ck.Proc]
		p.machine.OnRollback(p.ctx, info)
	}
	return nil
}

// ReplaceMachine swaps a process's implementation for a new one — the
// dynamic-update primitive the Healer builds on (paper §3.4, §4.4). The
// process keeps its heap, scroll, clock and queue position; state (JSON)
// is loaded into the new machine, which must accept it (type safety: a
// mismatch is an error, the update is refused).
func (s *Sim) ReplaceMachine(procID string, m Machine, state []byte) error {
	p, ok := s.procs[procID]
	if !ok {
		return fmt.Errorf("dsim: unknown process %q", procID)
	}
	if err := p.Replace(m, state); err != nil {
		return err
	}
	// A dynamic update starts a new timeline too: the healer pairs it with a
	// rollback, and messages produced by the replaced implementation must be
	// fenceable on the live backend.
	s.epoch++
	return nil
}

func (s *Sim) latency() uint64 {
	if s.cfg.MaxLatency == s.cfg.MinLatency {
		return s.cfg.MinLatency
	}
	return s.cfg.MinLatency + uint64(s.rng.Int63n(int64(s.cfg.MaxLatency-s.cfg.MinLatency+1)))
}

// simContext is the Context implementation backed by the simulator: the
// process's kernel (through *proc) serves the calls whose outcome is the
// process's own and records every nondeterministic result in its scroll;
// the methods below reach the simulation.
type simContext struct {
	sim *Sim
	*proc
}

// Now returns the virtual time — offset by any injected clock skew — and
// records the read.
func (c *simContext) Now() uint64 {
	return c.RecordTime(c.sim.rules.Skewed(c.id, c.sim.now))
}

// Random returns a deterministic pseudo-random uint64 and records it.
func (c *simContext) Random() uint64 { return c.RecordRandom(c.sim.rng.Uint64()) }

// Send transmits payload to the named process with simulated latency,
// recording the send in the scroll. The message carries the send's scroll
// position, which is all its delivery needs to decide absorption.
func (c *simContext) Send(to string, payload []byte) {
	s, p := c.sim, c.proc
	s.msgN++
	id := s.msgID(s.msgN)
	body, lam, seq := p.RecordSend(id, to, payload)
	deliver := func() {
		t := s.now + s.latency()
		if s.cfg.FIFO {
			// Per-channel monotone delivery times; equal times fall back
			// to seq order, which is send order.
			key := p.id + ">" + to
			if t < s.lastFIFO[key] {
				t = s.lastFIFO[key]
			}
			s.lastFIFO[key] = t
		}
		// Injected delay applies after the FIFO clamp: chaos rules may
		// reorder a channel on purpose. A slow receiver lags every
		// delivery it handles on top of that.
		t += s.rules.Delay(s.rng, p.id, to, s.now)
		t += s.rules.Slow(to, s.now)
		s.push(event{
			time: t, kind: evMessage,
			msgID: id, from: p.id, to: to, payload: body,
			lamport: lam, clock: p.ClockSnap(), creatorSeq: seq,
		}, 0)
	}
	deliver()
	if s.rules.Hit(s.rng, inject.Duplicate, p.id, to, s.now) {
		s.stats.Duplicated++
		deliver()
	}
}

// SetTimer schedules OnTimer(name) after delay virtual ticks. A slow node
// lags its own timer fires too: the slowdown is per-handler, not per-link.
func (c *simContext) SetTimer(name string, delay uint64) {
	c.sim.push(event{
		time: c.sim.now + delay + c.sim.rules.Slow(c.id, c.sim.now), kind: evTimer,
		proc: c.id, timerName: name, creatorSeq: uint64(c.scroll.Len()),
	}, c.timerOf())
}

// Fault reports a locally detected fault (invariant violation). It is
// recorded in the scroll and passed to the simulation's fault handler.
func (c *simContext) Fault(desc string) {
	s := c.sim
	rec := c.RecordFault(desc, s.now)
	s.faults = append(s.faults, rec)
	if s.faultHandler != nil && s.faultHandler(rec) {
		s.stop = true
	}
}

// Checkpoint takes an explicit checkpoint and returns its ID.
func (c *simContext) Checkpoint(label string) string {
	return c.sim.takeCheckpoint(c.proc, label).ID
}

// Speculate begins a speculation based on the given assumption from a
// checkpoint of the process; the receivers of what it sends from here on
// are absorbed (paper §4.2).
func (c *simContext) Speculate(assumption string) (string, error) {
	ck := c.sim.takeCheckpoint(c.proc, "speculation")
	return c.sim.specs.Begin(c.id, assumption, ck.ID, ck.ScrollSeq), nil
}

// Commit validates a speculation's assumption.
func (c *simContext) Commit(specID string) error { return c.sim.specs.Commit(specID) }

// AbortSpec invalidates a speculation: the line the abort computes — every
// absorbed process at its join checkpoint — is rolled back like any other,
// and each member's OnRollback learns the speculation and the reason. A line
// the store cannot resolve is an error, and then nothing is aborted.
func (c *simContext) AbortSpec(specID, reason string) error {
	s := c.sim
	var resolved []*checkpoint.Checkpoint
	if err := s.specs.Abort(specID, reason, func(line map[string]string) (err error) {
		resolved, err = s.store.ResolveLine(line)
		return err
	}); err != nil {
		return err
	}
	return s.rollback(resolved, RollbackInfo{SpecID: specID, Assumption: s.specs.Get(specID).Assumption, Reason: reason})
}
