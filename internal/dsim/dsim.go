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
// periodic/uncoordinated, or speculation-driven), and a speculation manager
// provides absorb/commit/abort semantics with automatic rollback.
//
// Given identical Config (including Seed) and machines, two runs produce
// identical event orders, scrolls and final states.
package dsim

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strconv"

	"repro/internal/checkpoint"
	"repro/internal/inject"
	"repro/internal/recovery"
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

// Context is the environment API a machine programs against. The simulator
// provides the live implementation (recording every nondeterministic
// outcome in the Scroll); the replay runner provides one that feeds
// recorded outcomes back (paper §2.3); the Investigator provides one that
// captures effects for model checking (paper §3.3).
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
	// per-process cell store that models a disk (liblog/Flashback-style
	// durable logging, paper §3.1). Unlike the heap and machine state it is
	// NOT rewound by crash-restart: a write survives every involuntary
	// restore for the rest of the run. Deliberate rollbacks (Time Machine,
	// heal, speculation aborts) are different — they abandon the timeline
	// the write happened on, so cells written after the restored checkpoint
	// are fenced (invisible to later reads) rather than re-installed. The
	// write is stamped with the current timeline epoch and recorded in the
	// scroll, so replays observe it.
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
	// FullCheckpoints uses eager deep-copy snapshots instead of COW.
	FullCheckpoints bool
	// InitCheckpoint takes a checkpoint of every process right after Init,
	// guaranteeing a non-trivial recovery line exists from the start.
	InitCheckpoint bool
	// FIFO forces per-channel in-order delivery (each sender-receiver pair
	// delivers in send order), as required by marker-based snapshot
	// protocols like Chandy-Lamport. Without it, latency jitter may
	// reorder messages on a channel.
	FIFO bool
	// DropRate is the probability a message is lost in transit.
	DropRate float64
	// DupRate is the probability a message is delivered twice.
	DupRate float64
	// MaxSteps bounds the number of processed events (0 = 1_000_000).
	MaxSteps int
	// HeapSize is each process's initial heap size in bytes (default 64KiB).
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
	specs      []string
	creatorSeq uint64 // sender's scroll seq when created (for purging)

	// timer fields
	timerName string

	// control fields
	proc string

	// dead marks a lazily-deleted event (purged by rollback); Resume
	// discards it without processing.
	dead bool
}

// pendingTimerOf reports whether the event is a live timer of the process.
func (e *event) pendingTimerOf(proc string) bool {
	return e.kind == evTimer && e.proc == proc && !e.dead
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

// proc is the simulator's bookkeeping for one process.
type proc struct {
	id        string
	machine   Machine
	heap      *checkpoint.Heap
	scroll    *scroll.Scroll
	clock     vclock.VC // on the simulation's shared ID table (Sim.tab)
	self      int       // this process's index in that table
	snap      vclock.VC // cached clock snapshot, shared by records between ticks
	ctx       *simContext
	lamport   vclock.Lamport
	crashed   bool
	halted    bool
	delivered uint64 // events delivered (for periodic checkpoints)
	ckptSkew  uint64 // stagger offset for periodic checkpoints

	// durable is the process's stable storage (Context.Durable…): written
	// through the context, never rewound by restoreProc — modeling a disk
	// that survives crash-restart. Deliberate rollbacks (Time Machine, heal,
	// speculation aborts) fence the cells written on the abandoned timeline
	// instead (Cells.Fence). Sim.Reset clears the map so pooled arenas start
	// every run empty, like a fresh simulation.
	durable checkpoint.Cells
}

// clockSnap returns a snapshot of the process's vector clock that is shared
// by every record created until the clock next advances. Scroll records,
// queued events, checkpoints and fault records all treat their clock as
// immutable (nothing in the tree mutates a Record.Clock in place), so one
// snapshot per tick serves them all — and lets the fingerprinter encode it
// once. Snapshots are carved from the simulation's run-scoped arena
// (rewound by Reset), so taking one allocates nothing. Every site that
// mutates p.clock must zero p.snap (tick does).
func (p *proc) clockSnap() vclock.VC {
	if p.snap == (vclock.VC{}) {
		p.snap = p.ctx.sim.clocks.Snapshot(p.clock)
	}
	return p.snap
}

// tick advances the process's own component of its vector clock.
func (p *proc) tick() {
	p.clock.TickAt(p.self)
	p.snap = vclock.VC{}
}

// Sim is a deterministic distributed-system simulation.
type Sim struct {
	cfg    Config
	rng    *rand.Rand
	rngSrc *gfsrSource // rng's source, reseeded (from cache) on Reset
	now    uint64
	seq    uint64
	queue  eventQueue
	procs  map[string]*proc
	order  []string
	spare  map[string]*proc // retired procs whose arenas Reset recycles

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
	// what they point to) is invalid after Reset.
	pay    slab.Slab[byte]                  // record payloads: 8-byte values, message bodies
	clocks vclock.Arena                     // clock snapshots (proc.clockSnap)
	ckmem  checkpoint.Arena                 // state encodings, heap snapshots
	ckpts  slab.Slab[checkpoint.Checkpoint] // the checkpoints themselves
	timers slab.Slab[string]                // their pending-timer lists

	// Intern tables: strings and payloads that recur identically run after
	// run. Bounded, shared read-only by records, and kept across Reset.
	msgIDs   []string                 // "m<N>" at N-1, up to maxInternedMsgIDs
	idText   slab.Text                // where the table's strings and the others are carved
	labels   map[string][]byte        // checkpoint labels as record payloads
	timerRec map[string]timerRecParts // timer-record strings/payloads

	// FaultHandler, if set, is invoked on every Context.Fault report. The
	// FixD coordinator (internal/core) uses it to trigger the Fig. 4
	// response protocol. Returning true stops the simulation.
	FaultHandler func(*Sim, FaultRecord) bool
}

// timerRecParts caches the per-timer-name record fields ("timer:x" MsgID
// and name payload). Timer fires are the single most frequent record in the
// chaos workloads; the cached strings and payload bytes are shared across
// records and runs — records never mutate them.
type timerRecParts struct {
	msgID   string
	payload []byte
}

// timerParts returns the cached record fields for a timer name.
func (s *Sim) timerParts(name string) timerRecParts {
	if tr, ok := s.timerRec[name]; ok {
		return tr
	}
	if s.timerRec == nil {
		s.timerRec = make(map[string]timerRecParts)
	}
	tr := timerRecParts{msgID: "timer:" + name, payload: []byte(name)}
	s.timerRec[name] = tr
	return tr
}

// appendU64 renders v little-endian into the payload slab and returns the
// 8-byte slice. Records retain these slices read-only, for the run.
func (s *Sim) appendU64(v uint64) []byte {
	return s.pay.Keep(binary.LittleEndian.AppendUint64(s.pay.Tail(8), v))
}

// Bounds of the intern tables.
const (
	maxInternedMsgIDs = 1024
	maxInternedLabels = 64
)

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

// labelPayload returns label as a record payload, interned.
func (s *Sim) labelPayload(label string) []byte {
	if b, ok := s.labels[label]; ok {
		return b
	}
	b := []byte(label)
	if len(s.labels) < maxInternedLabels {
		if s.labels == nil {
			s.labels = make(map[string][]byte)
		}
		s.labels[label] = b
	}
	return b
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
		cfg.HeapSize = 64 << 10
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
	s.specs = speculation.NewManager(specCtl{s})
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
	if s.rngSrc == nil {
		s.rngSrc = &gfsrSource{}
		s.rng = rand.New(s.rngSrc)
	}
	s.rngSrc.Seed(s.cfg.Seed)
	s.now, s.seq, s.msgN = 0, 0, 0
	s.queue.reset()
	for id, p := range s.procs {
		p.machine = nil
		// Stable storage survives everything within a run; between runs it
		// must vanish, or pooled and fresh simulations would diverge (see
		// TestDurableResetEquivalence).
		clear(p.durable)
		s.spare[id] = p
		delete(s.procs, id)
	}
	s.order = s.order[:0]
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
	s.FaultHandler = nil
	s.pay.Rewind()
	s.clocks.Rewind()
	s.ckmem.Rewind()
	s.ckpts.Rewind()
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
		p.crashed, p.halted = false, false
		p.delivered, p.ckptSkew = 0, 0
	} else {
		p = &proc{
			id:      id,
			machine: m,
			heap:    s.ckmem.NewHeap(s.cfg.HeapSize, s.cfg.HeapPageSize),
			scroll:  scroll.NewMemory(id),
		}
	}
	if p.ctx == nil || p.ctx.sim != s {
		// One reusable context per process: machine callbacks receive the
		// same (sim, proc) pair for the process's whole life, so handing
		// them a shared value instead of a fresh allocation per event is
		// observationally identical (machines must not retain the Context
		// beyond the callback, which none do).
		p.ctx = &simContext{sim: s, proc: p}
	}
	s.procs[id] = p
	s.order = append(s.order, id)
	sort.Strings(s.order)
	// A pooled simulation re-adds last run's processes, so the table it
	// kept across Reset already has the ID and the recycled clock is
	// already on it; only a process set the table has not seen rebuilds it.
	if i := s.tab.Index(id); i < 0 {
		p.clock = vclock.VC{} // a recycled clock's counts must not be re-homed
		s.retable()
	} else if p.self = i; p.clock.Table() == s.tab {
		p.clock.Reset()
	} else {
		p.clock = s.tab.New()
	}
}

// retable rebuilds the shared ID table over the current process set and
// re-homes every process's clock on it, counts preserved.
func (s *Sim) retable() {
	s.tab = vclock.NewTable(s.order...)
	for i, id := range s.order {
		p := s.procs[id]
		p.self = i
		p.clock = s.tab.New().Merge(p.clock)
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

// SetFaultHandler installs h as the simulation's FaultHandler in the
// substrate-neutral shape (no *Sim parameter). Passing nil clears it.
func (s *Sim) SetFaultHandler(h func(FaultRecord) bool) {
	if h == nil {
		s.FaultHandler = nil
		return
	}
	s.FaultHandler = func(_ *Sim, f FaultRecord) bool { return h(f) }
}

// Store exposes the simulation's checkpoint store.
func (s *Sim) Store() *checkpoint.Store { return s.store }

// Speculations exposes the speculation manager.
func (s *Sim) Speculations() *speculation.Manager { return s.specs }

// Now returns the current virtual time.
func (s *Sim) Now() uint64 { return s.now }

// Epoch returns the current timeline epoch. It starts at 0 and is
// incremented by every deliberate rollback — Time-Machine restore
// (RollbackTo), speculation abort, dynamic update (ReplaceMachine) — but
// NOT by crash-restart, which recovers the same timeline. Runs that never
// roll back therefore report epoch 0, keeping their artifacts byte-stable.
func (s *Sim) Epoch() uint64 { return s.epoch }

// Stats returns the cumulative counters.
func (s *Sim) Stats() Stats { return s.stats }

// Faults returns all locally detected faults so far.
func (s *Sim) Faults() []FaultRecord { return append([]FaultRecord(nil), s.faults...) }

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

// Heap returns the heap of the given process (nil if unknown).
func (s *Sim) Heap(id string) *checkpoint.Heap {
	if p, ok := s.procs[id]; ok {
		return p.heap
	}
	return nil
}

// MachineState returns the JSON encoding of a process's current machine
// state.
func (s *Sim) MachineState(id string) []byte {
	p, ok := s.procs[id]
	if !ok {
		return nil
	}
	b, err := json.Marshal(p.machine.State())
	if err != nil {
		panic(fmt.Sprintf("dsim: state of %s not serializable: %v", id, err))
	}
	return b
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
// merge instead of materializing it like MergedScroll.
func (s *Sim) Scrolls() []*scroll.Scroll {
	scrolls := make([]*scroll.Scroll, 0, len(s.order))
	for _, id := range s.order {
		scrolls = append(scrolls, s.procs[id].scroll)
	}
	return scrolls
}

// MergedScroll returns all scroll records in global (Lamport) order.
func (s *Sim) MergedScroll() []scroll.Record {
	scrolls := make([]*scroll.Scroll, 0, len(s.order))
	for _, id := range s.order {
		scrolls = append(scrolls, s.procs[id].scroll)
	}
	return scroll.Merge(scrolls...)
}

// Inject arms one fault injection (fault.Injector). A control kind becomes
// an event on inj.Proc at inj.At: a crash; a restart from the most recent
// checkpoint (or re-Init if none); or a deliberate rollback anchored at the
// process (rollbackLatest). Every other kind is a rule in the simulation's
// inject.Store, which says what it means. No rule touches what a sender
// recorded: a skewed clock changes its reader's observations, a corrupted
// delivery is a copy the receiver records — replay reproduces the lie.
func (s *Sim) Inject(inj inject.Injection) {
	if inj.Kind.Class() == inject.Control {
		s.push(event{time: inj.At, kind: evControl + eventKind(inj.Kind), proc: inj.Proc})
		return
	}
	s.rules.Add(inj)
}

// Corrupted reports how many delivered payloads a corrupt rule mutated.
// It lives outside Stats deliberately: RunResult embeds Stats in the
// pinned artifact JSON, so Stats cannot grow fields.
func (s *Sim) Corrupted() uint64 { return s.corrupts }

// Stop makes Run return after the current event.
func (s *Sim) Stop() { s.stop = true }

func (s *Sim) push(e event) {
	s.seq++
	e.seq = s.seq
	s.queue.push(e)
}

// Run initializes all machines and processes events until the queue is
// empty, MaxSteps is reached, or Stop is called. It returns the stats.
func (s *Sim) Run() Stats {
	for i, id := range s.order {
		p := s.procs[id]
		// Periodic checkpoints are staggered by the process's rank among the
		// sorted IDs, not by when AddProcess saw it: a seed determines the run
		// whatever order the caller (ranging over a map, say) added processes in.
		if n := s.cfg.CheckpointEvery; n > 0 {
			p.ckptSkew = uint64(i) % n
		}
		p.machine.Init(p.ctx)
	}
	if s.cfg.InitCheckpoint {
		for _, id := range s.order {
			s.takeCheckpoint(s.procs[id], "", "init")
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
	if !ok || p.crashed || p.halted {
		s.stats.Dropped++
		return
	}
	// Loss model: the sender recorded the send, but the network loses the
	// message in transit (so the scroll shows a send with no receive — an
	// in-transit message for recovery purposes).
	if s.cfg.DropRate > 0 && s.rng.Float64() < s.cfg.DropRate {
		s.stats.Dropped++
		return
	}
	// Messages belonging to an aborted speculation are discarded: their
	// contents were produced by rolled-back computation.
	for _, specID := range ev.specs {
		if sp := s.specs.Get(specID); sp != nil && sp.Status() == speculation.Aborted {
			s.stats.Dropped++
			return
		}
	}
	if s.rules.Partitioned(ev.from, ev.to, s.now) {
		s.stats.Dropped++
		return
	}
	// Windowed, target-scoped loss installed by fault injection.
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
			payload = s.pay.Copy(payload)
			inject.Mutate(s.rng, payload)
		}
		s.corrupts++
	}
	// Communication-induced checkpoint: save state before consuming a new
	// message (Fig. 6).
	if s.cfg.CICheckpoint {
		s.takeCheckpoint(p, "", "cic")
	}
	// Speculative absorption checkpoints the pre-consumption state too.
	if err := s.specs.OnDeliver(ev.to, ev.specs); err != nil {
		panic(fmt.Sprintf("dsim: absorption failed: %v", err))
	}
	p.clock.Merge(ev.clock)
	p.tick()
	lam := p.lamport.Witness(ev.lamport)
	if _, err := p.scroll.Append(scroll.Record{
		Kind: scroll.KindRecv, MsgID: ev.msgID, Peer: ev.from,
		Payload: payload, Lamport: lam, Clock: p.clockSnap(),
	}); err != nil {
		panic(fmt.Sprintf("dsim: scroll append: %v", err))
	}
	p.delivered++
	s.stats.Delivered++
	p.machine.OnMessage(p.ctx, ev.from, payload)
	// Periodic (uncoordinated) checkpoint policy.
	if n := s.cfg.CheckpointEvery; n > 0 && (p.delivered+p.ckptSkew)%n == 0 {
		s.takeCheckpoint(p, "", "periodic")
	}
}

// fireTimer hands a timer event to its owner.
func (s *Sim) fireTimer(ev *event) {
	p, ok := s.procs[ev.proc]
	if !ok || p.crashed || p.halted {
		return
	}
	p.tick()
	lam := p.lamport.Tick()
	tr := s.timerParts(ev.timerName)
	p.scroll.Append(scroll.Record{
		Kind: scroll.KindCustom, MsgID: tr.msgID,
		Payload: tr.payload, Lamport: lam, Clock: p.clockSnap(),
	})
	s.stats.TimerFires++
	p.machine.OnTimer(p.ctx, ev.timerName)
}

// crash marks a process crashed; its pending timers die with it.
func (s *Sim) crash(id string) {
	p, ok := s.procs[id]
	if !ok || p.crashed {
		return
	}
	p.crashed = true
	s.stats.Crashes++
}

// rollbackLatest performs an injected deliberate rollback (inject.Rollback)
// anchored at one process: the Time Machine computes the latest globally
// consistent recovery line over every process's checkpoints
// (recovery.MaxConsistentSet, so no member's state reflects a message
// chain another member rolled back past) and restores it through
// RollbackTo, applying the full timeline-fencing semantics. Crashed
// processes are not resurrected — they stay down, but their abandoned
// durable cells are fenced and their post-line checkpoints pruned, so a
// later restart joins the restored timeline instead of the abandoned one.
// A crashed anchor, or one with no checkpoint yet, makes the injection a
// no-op.
func (s *Sim) rollbackLatest(id string) {
	p, ok := s.procs[id]
	if !ok || p.crashed || s.store.Latest(id) == nil {
		return
	}
	lists := make(map[string][]*checkpoint.Checkpoint, len(s.order))
	for _, pid := range s.order {
		if cks := s.store.List(pid); len(cks) > 0 {
			lists[pid] = cks
		}
	}
	set := recovery.MaxConsistentSet(lists)
	if set == nil {
		return
	}
	line := make(map[string]string, len(set))
	for _, pid := range s.order {
		ck, ok := set[pid]
		if !ok {
			continue
		}
		p := s.procs[pid]
		if !p.crashed {
			line[pid] = ck.ID
			continue
		}
		// Fence the downed member before RollbackTo runs: truncate its scroll
		// to the line and recall its still-queued post-line sends, so the
		// in-transit re-delivery cannot resurrect the abandoned timeline's
		// traffic out of a crashed process's recording.
		p.scroll.Truncate(ck.ScrollSeq)
		for i := 0; i < s.queue.len(); i++ {
			ev := s.queue.at(i)
			if ev.kind == evMessage && ev.from == p.id && ev.creatorSeq >= ck.ScrollSeq {
				ev.dead = true
			}
		}
		s.fenceAbandoned(p, ck)
	}
	if err := s.RollbackTo(line); err != nil {
		panic(fmt.Sprintf("dsim: injected rollback anchored at %s: %v", id, err))
	}
}

// bumpEpoch advances the timeline epoch: the pre-rollback timeline is being
// abandoned, so everything stamped with the old epoch becomes fenceable.
func (s *Sim) bumpEpoch() { s.epoch++ }

// fenceAbandoned is the durable half of timeline fencing after a deliberate
// rollback of p to ck: the stable-storage cells and the checkpoints the
// abandoned timeline produced past ck's scroll position go, so a later
// crash-restart recovers the restored timeline, not the abandoned one.
// Crash-restart recovery itself never calls this.
func (s *Sim) fenceAbandoned(p *proc, ck *checkpoint.Checkpoint) {
	p.durable.Fence(ck.ScrollSeq)
	s.store.PruneAfter(p.id, ck.ScrollSeq)
}

// restart revives a crashed process from its latest checkpoint.
func (s *Sim) restart(id string) {
	p, ok := s.procs[id]
	if !ok || !p.crashed {
		return
	}
	p.crashed = false
	s.stats.Restarts++
	if ck := s.store.Latest(id); ck != nil {
		s.restoreProc(p, ck)
		p.machine.OnRollback(p.ctx, RollbackInfo{Manual: true, CrashRestart: true, Reason: "crash restart"})
	} else {
		p.machine.Init(p.ctx)
	}
}

// takeCheckpoint snapshots a process. specID tags speculation-induced
// checkpoints; label describes the policy that triggered it.
func (s *Sim) takeCheckpoint(p *proc, specID, label string) *checkpoint.Checkpoint {
	var snap *checkpoint.Snapshot
	if s.cfg.FullCheckpoints {
		snap = p.heap.FullSnapshot()
	} else {
		snap = p.heap.Snapshot()
	}
	extra, codec, err := s.ckmem.Encode(p.machine.State())
	if err != nil {
		panic(fmt.Sprintf("dsim: state of %s not serializable: %v", p.id, err))
	}
	// Two passes over the queue, so that the list is carved at its exact size.
	pending := 0
	for i := 0; i < s.queue.len(); i++ {
		if s.queue.at(i).pendingTimerOf(p.id) {
			pending++
		}
	}
	var timers []string // nil when none are pending, as it always was
	if pending > 0 {
		timers = s.timers.Tail(pending)
		for i := 0; i < s.queue.len(); i++ {
			if ev := s.queue.at(i); ev.pendingTimerOf(p.id) {
				timers = append(timers, ev.timerName)
			}
		}
	}
	ck := s.ckpts.Put(checkpoint.Checkpoint{
		Proc:      p.id,
		Clock:     p.clockSnap(),
		ScrollSeq: uint64(p.scroll.Len()),
		Time:      s.now,
		Snap:      snap,
		Extra:     extra,
		Codec:     codec,
		SpecID:    specID,
		Timers:    s.timers.Keep(timers),
	})
	s.store.Put(ck)
	p.scroll.Append(scroll.Record{
		Kind: scroll.KindCkpt, MsgID: ck.ID, Payload: s.labelPayload(label),
		Lamport: p.lamport.Now(), Clock: p.clockSnap(),
	})
	s.stats.Checkpoints++
	return ck
}

// restoreProc rewinds a process to a checkpoint: heap, machine state,
// vector clock and scroll position. Events the process created after the
// checkpoint are purged from the queue. Stable storage (proc.durable) is
// deliberately untouched here: disk writes cannot be unwritten by a
// restore. Deliberate-rollback callers additionally fence the cells written
// after the checkpoint (fenceAbandoned, or Cells.Fence alone for a
// speculation abort); the crash-restart caller must not — the disk is its
// authoritative recovery source.
func (s *Sim) restoreProc(p *proc, ck *checkpoint.Checkpoint) {
	p.heap.Restore(ck.Snap)
	state, err := ck.StateJSON()
	if err == nil {
		err = checkpoint.RestoreState(state, p.machine.State())
	}
	if err != nil {
		panic(fmt.Sprintf("dsim: restore state of %s: %v", p.id, err))
	}
	p.clock = s.tab.New().Merge(ck.Clock)
	p.snap = vclock.VC{}
	p.scroll.Truncate(ck.ScrollSeq)
	p.halted = false
	for i := 0; i < s.queue.len(); i++ {
		ev := s.queue.at(i)
		if ev.kind == evMessage && ev.from == p.id && ev.creatorSeq >= ck.ScrollSeq {
			ev.dead = true
		}
		if ev.kind == evTimer && ev.proc == p.id {
			ev.dead = true
		}
	}
	// Re-arm the timers that were pending when the checkpoint was taken
	// (their original deadlines are gone; a fresh latency draw is within
	// the asynchronous timing model).
	for _, name := range ck.Timers {
		s.push(event{
			time: s.now + s.latency(), kind: evTimer,
			proc: p.id, timerName: name, creatorSeq: ck.ScrollSeq,
		})
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
				ev.dead = true
			}
			if ck := cks[ev.from]; ck != nil && ev.creatorSeq >= ck.ScrollSeq {
				ev.dead = true
			}
		case evTimer:
			if ck := cks[ev.proc]; ck != nil && ev.creatorSeq >= ck.ScrollSeq {
				ev.dead = true
			}
		}
	}
	// The pre-rollback timeline is abandoned: advance the epoch, fence the
	// durable cells it wrote, and drop its checkpoints so a later
	// crash-restart recovers the restored timeline, not the abandoned one.
	s.bumpEpoch()
	for _, ck := range resolved {
		p := s.procs[ck.Proc]
		s.restoreProc(p, ck)
		s.fenceAbandoned(p, ck)
	}
	// Re-deliver in-transit messages addressed to rolled-back processes:
	// sends preserved in *any* process's scroll (rolled scrolls are already
	// truncated to the line, so every record they retain is preserved)
	// whose matching receive is no longer in the receiver's scroll.
	received := make(map[string]bool)
	for _, ck := range resolved {
		for r := range s.procs[ck.Proc].scroll.All() {
			if r.Kind == scroll.KindRecv {
				received[r.MsgID] = true
			}
		}
	}
	for _, id := range s.order {
		for r := range s.procs[id].scroll.All() {
			if r.Kind != scroll.KindSend || received[r.MsgID] || cks[r.Peer] == nil {
				continue
			}
			s.push(event{
				time: s.now + s.latency(), kind: evMessage,
				msgID: r.MsgID, from: r.Proc, to: r.Peer,
				payload: r.Payload, lamport: r.Lamport, clock: r.Clock.Copy(),
			})
		}
	}
	// Notify machines (alternate path opportunity), in sorted order.
	for _, ck := range resolved {
		p := s.procs[ck.Proc]
		p.machine.OnRollback(p.ctx, RollbackInfo{Manual: true, Reason: "time machine rollback"})
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
	if state != nil {
		if err := checkpoint.RestoreState(state, m.State()); err != nil {
			return fmt.Errorf("dsim: update state of %s rejected: %w", procID, err)
		}
	}
	p.machine = m
	// A dynamic update starts a new timeline too: the healer pairs it with a
	// rollback, and messages produced by the replaced implementation must be
	// fenceable on the live backend.
	s.bumpEpoch()
	return nil
}

func (s *Sim) latency() uint64 {
	if s.cfg.MaxLatency == s.cfg.MinLatency {
		return s.cfg.MinLatency
	}
	return s.cfg.MinLatency + uint64(s.rng.Int63n(int64(s.cfg.MaxLatency-s.cfg.MinLatency+1)))
}

// specCtl adapts Sim to speculation.ProcessControl.
type specCtl struct{ s *Sim }

func (c specCtl) TakeCheckpoint(procID, specID string) (string, error) {
	p, ok := c.s.procs[procID]
	if !ok {
		return "", fmt.Errorf("dsim: unknown process %q", procID)
	}
	ck := c.s.takeCheckpoint(p, specID, "speculation")
	return ck.ID, nil
}

func (c specCtl) Rollback(procID, ckptID string, aborted *speculation.Speculation) error {
	p, ok := c.s.procs[procID]
	if !ok {
		return fmt.Errorf("dsim: unknown process %q", procID)
	}
	ck := c.s.store.Get(ckptID)
	if ck == nil {
		return fmt.Errorf("dsim: unknown checkpoint %q", ckptID)
	}
	// A speculation abort deliberately abandons the speculative timeline:
	// bump the epoch and fence the durable writes made under it. Checkpoints
	// are left to the speculation manager, which owns their lifecycle.
	c.s.bumpEpoch()
	c.s.restoreProc(p, ck)
	p.durable.Fence(ck.ScrollSeq)
	p.machine.OnRollback(p.ctx, RollbackInfo{
		SpecID: aborted.ID, Assumption: aborted.Assumption, Reason: aborted.Reason,
	})
	return nil
}

// simContext is the live Context implementation backed by the simulator. All
// nondeterministic results are recorded in the process's scroll.
type simContext struct {
	sim  *Sim
	proc *proc
}

// Self returns the process ID.
func (c *simContext) Self() string { return c.proc.id }

// Now returns the virtual time — offset by any injected clock skew — and
// records the read.
func (c *simContext) Now() uint64 {
	t := c.sim.rules.Skewed(c.proc.id, c.sim.now)
	c.proc.scroll.Append(scroll.Record{
		Kind: scroll.KindTime, Payload: c.sim.appendU64(t),
		Lamport: c.proc.lamport.Now(), Clock: c.proc.clockSnap(),
	})
	return t
}

// Random returns a deterministic pseudo-random uint64 and records it.
func (c *simContext) Random() uint64 {
	v := c.sim.rng.Uint64()
	c.proc.scroll.Append(scroll.Record{
		Kind: scroll.KindRandom, Payload: c.sim.appendU64(v),
		Lamport: c.proc.lamport.Now(), Clock: c.proc.clockSnap(),
	})
	return v
}

// Send transmits payload to the named process with simulated latency,
// recording the send in the scroll and tagging the message with the
// sender's active speculations.
func (c *simContext) Send(to string, payload []byte) {
	s, p := c.sim, c.proc
	p.tick()
	lam := p.lamport.Tick()
	s.msgN++
	id := s.msgID(s.msgN)
	body := s.pay.Copy(payload)
	rec := scroll.Record{
		Kind: scroll.KindSend, MsgID: id, Peer: to, Payload: body,
		Lamport: lam, Clock: p.clockSnap(),
	}
	seq, _ := p.scroll.Append(rec)
	specs := s.specs.ActiveSpecs(p.id)
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
			lamport: lam, clock: p.clockSnap(), specs: specs, creatorSeq: seq,
		})
	}
	deliver()
	if s.cfg.DupRate > 0 && s.rng.Float64() < s.cfg.DupRate {
		s.stats.Duplicated++
		deliver()
	}
	if s.rules.Hit(s.rng, inject.Duplicate, p.id, to, s.now) {
		s.stats.Duplicated++
		deliver()
	}
}

// SetTimer schedules OnTimer(name) after delay virtual ticks. A slow node
// lags its own timer fires too: the slowdown is per-handler, not per-link.
func (c *simContext) SetTimer(name string, delay uint64) {
	c.sim.push(event{
		time: c.sim.now + delay + c.sim.rules.Slow(c.proc.id, c.sim.now), kind: evTimer,
		proc: c.proc.id, timerName: name, creatorSeq: uint64(c.proc.scroll.Len()),
	})
}

// Heap returns the process's checkpointable bulk store.
func (c *simContext) Heap() *checkpoint.Heap { return c.proc.heap }

// Log appends an informational custom record to the scroll.
func (c *simContext) Log(format string, args ...any) {
	c.proc.scroll.Append(scroll.Record{
		Kind: scroll.KindCustom, MsgID: "log",
		Payload: []byte(fmt.Sprintf(format, args...)),
		Lamport: c.proc.lamport.Now(), Clock: c.proc.clockSnap(),
	})
}

// Fault reports a locally detected fault (invariant violation). It is
// recorded in the scroll and forwarded to the simulation's FaultHandler.
func (c *simContext) Fault(desc string) {
	s, p := c.sim, c.proc
	rec := FaultRecord{Proc: p.id, Desc: desc, Time: s.now, Clock: p.clockSnap()}
	p.scroll.Append(scroll.Record{
		Kind: scroll.KindFault, Payload: []byte(desc),
		Lamport: p.lamport.Now(), Clock: p.clockSnap(),
	})
	s.faults = append(s.faults, rec)
	if s.FaultHandler != nil && s.FaultHandler(s, rec) {
		s.stop = true
	}
}

// Checkpoint takes an explicit checkpoint and returns its ID.
func (c *simContext) Checkpoint(label string) string {
	return c.sim.takeCheckpoint(c.proc, "", label).ID
}

// Speculate begins a speculation based on the given assumption; the
// process is checkpointed and subsequent sends are tagged (paper §4.2).
func (c *simContext) Speculate(assumption string) (string, error) {
	return c.sim.specs.Begin(c.proc.id, assumption)
}

// Commit validates a speculation's assumption.
func (c *simContext) Commit(specID string) error { return c.sim.specs.Commit(specID) }

// AbortSpec invalidates a speculation: every absorbed process rolls back
// and receives OnRollback.
func (c *simContext) AbortSpec(specID, reason string) error {
	return c.sim.specs.Abort(specID, reason)
}

// Halt stops the process permanently (normal termination).
func (c *simContext) Halt() { c.proc.halted = true }
