package substrate

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math/rand"
	"path/filepath"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/dsim"
	"repro/internal/fault"
	"repro/internal/inject"
	"repro/internal/recovery"
	"repro/internal/scroll"
	"repro/internal/transport"
	"repro/internal/vclock"
)

// LiveConfig parameterizes the live (real-goroutine) substrate.
type LiveConfig struct {
	// Seed drives the chaos-injection probability draws. Unlike the
	// simulator it does not make runs replayable (see Capabilities).
	Seed int64
	// Tick is the real duration of one virtual tick (default 1ms). Chaos
	// windows, injected delays and timer delays are expressed in ticks.
	Tick time.Duration
	// Settle is how long the system must stay idle (no queued events, no
	// in-flight messages) before Run declares quiescence (default 75ms —
	// generous enough to cover loopback-TCP propagation).
	Settle time.Duration
	// MaxWait bounds one Run/Resume call (default 10s).
	MaxWait time.Duration
	// UseTCP routes messages through a real TCP hub on the loopback
	// interface instead of the in-memory switch.
	UseTCP bool
	// HubAddr is the hub listen address when UseTCP ("127.0.0.1:0").
	HubAddr string
	// CICheckpoint checkpoints a process before every message delivery
	// (communication-induced checkpointing), mirroring dsim.Config.
	CICheckpoint bool
	// CheckpointEvery takes a periodic checkpoint every N deliveries per
	// process. 0 = off.
	CheckpointEvery uint64
	// InitCheckpoint checkpoints every process right after Init.
	InitCheckpoint bool
	// HeapSize / HeapPageSize mirror dsim.Config (defaults 64KiB /
	// checkpoint.DefaultPageSize).
	HeapSize     int
	HeapPageSize int
	// DurableDir, when set, backs each process's stable storage
	// (Context.Durable…) with a write-ahead log under DurableDir/<proc>
	// (internal/wal: segmented, checksummed, fsync'd), so durable cells
	// survive real process crashes: a new substrate opened on the same
	// directory recovers them at AddProcess. Empty keeps stable storage in
	// memory — it still survives in-substrate crash-restart, matching the
	// simulator's model.
	DurableDir string
	// ScrollDir, when set, persists each process's scroll (its recording)
	// under ScrollDir/<proc> via scroll.OpenDurable, so live recordings
	// survive real process crashes alongside the DurableDir WAL state: a new
	// substrate opened on the same directory resumes each scroll where the
	// crash left it, keeping post-mortem replay possible. Empty keeps
	// scrolls in memory.
	ScrollDir string
}

func (cfg LiveConfig) withDefaults() LiveConfig {
	if cfg.Tick <= 0 {
		cfg.Tick = time.Millisecond
	}
	if cfg.Settle <= 0 {
		cfg.Settle = 75 * time.Millisecond
	}
	if cfg.MaxWait <= 0 {
		cfg.MaxWait = 10 * time.Second
	}
	if cfg.HubAddr == "" {
		cfg.HubAddr = "127.0.0.1:0"
	}
	if cfg.HeapSize <= 0 {
		cfg.HeapSize = 64 << 10
	}
	if cfg.HeapPageSize <= 0 {
		cfg.HeapPageSize = checkpoint.DefaultPageSize
	}
	return cfg
}

// liveEvent is one unit of work for a process's event loop.
type liveEvent struct {
	kind  int // levInit, levMsg, levTimer, levCrash, levRestart, levRollback
	msg   transport.Message
	timer string
	// gen is the process incarnation that armed a timer event. A restore
	// (crash-restart or rollback) bumps the incarnation and re-arms the
	// checkpointed timers itself; a time.AfterFunc from the previous
	// incarnation cannot be recalled, so its fire arrives with a stale gen
	// and is fenced.
	gen uint64
	// tab rides on levInit: the ID table of every process added before
	// Run, which each process re-homes its clock on so that clocks
	// exchanged over the in-memory switch stay index-aligned.
	tab *vclock.Table
}

const (
	levInit = iota
	levMsg
	levTimer
	levControl  // levControl + k carries a control injection of kind k (Inject)
	levCrash    = levControl + int(fault.Crash)
	levRestart  = levControl + int(fault.Restart)
	levRollback = levControl + int(fault.Rollback)
)

// EpochFenceMsgID is the scroll MsgID under which a fenced stale-epoch
// delivery is recorded (KindCustom, so dsim.Replay treats it as a no-op).
// Recording the fence keeps replay and divergence checking aligned with
// the live history: the drop is part of the timeline, not an omission.
const EpochFenceMsgID = "fence:epoch"

// LiveSubstrate runs dsim.Machine implementations as real goroutines
// exchanging messages over internal/transport, with the Scroll interposed
// on every send and delivery and chaos injection interposed at the hub
// (transport.ChaosNet). Virtual time is wall time divided into ticks, so
// the same tick-denominated chaos.Schedule that drives the simulator
// drives the live network.
//
// Concurrency model: each process owns one event-loop goroutine; machine
// callbacks for a process are serialized (per-process mutex), processes
// run genuinely in parallel. Quiescence is detected by activity counting
// plus a settle window; a protected fault pauses every loop before its
// next event (in-flight handlers finish first).
type LiveSubstrate struct {
	cfg LiveConfig

	hub *transport.Hub    // TCP mode
	sw  *transport.Switch // in-memory mode
	net *transport.ChaosNet

	mu      sync.Mutex // registry, faults, handler, control injections
	procs   map[string]*liveProc
	order   []string
	faults  []dsim.FaultRecord
	handler func(dsim.FaultRecord) bool
	// ctl: control injections not yet released, sorted by (tick, arm order);
	// ctlTim wakes releaseDue at the head's tick; releasing keeps two
	// wake-ups from interleaving their posts.
	ctl       []fault.Injection
	ctlTim    *time.Timer
	releasing bool
	started   bool
	closed    bool

	faultMu sync.Mutex // serializes fault-handler executions across procs

	rngMu sync.Mutex
	rng   *rand.Rand

	store    *checkpoint.Store
	shutdown chan struct{}

	startAt  atomic.Pointer[time.Time] // tick origin (nil = not started); monotonic
	activity atomic.Int64              // queued events + pending timers + running handlers
	msgN     atomic.Uint64

	pauseMu   sync.Mutex
	pauseCond *sync.Cond
	paused    bool
	closing   bool // set by Close under pauseMu so waitUnpaused cannot miss it

	auditMu sync.Mutex
	audit   []string // hub-tap record of chaos verdicts (drop/partition/dup)

	// epoch is the timeline epoch: bumped by every deliberate rollback
	// (RollbackTo, an injected fault.Rollback, ReplaceMachine), never by
	// crash-restart. Sends stamp it onto transport.Message; receivers fence
	// deliveries from an older epoch — in-flight frames of an abandoned
	// timeline that the real network cannot recall.
	epoch       atomic.Uint64
	epochFences atomic.Uint64 // stale-epoch messages + stale-incarnation timers fenced

	delivered  atomic.Uint64
	crashDrops atomic.Uint64
	timerFires atomic.Uint64
	ckpts      atomic.Uint64
	rollbacks  atomic.Uint64
	crashes    atomic.Uint64
	restarts   atomic.Uint64
	steps      atomic.Uint64
}

// NewLive returns a live substrate. With cfg.UseTCP it starts a TCP hub on
// the loopback interface; otherwise messages flow through an in-memory
// switch. The error is non-nil only when the hub cannot listen.
func NewLive(cfg LiveConfig) (*LiveSubstrate, error) {
	cfg = cfg.withDefaults()
	s := &LiveSubstrate{
		cfg:      cfg,
		procs:    make(map[string]*liveProc),
		rng:      rand.New(rand.NewSource(cfg.Seed)),
		store:    checkpoint.NewStore(),
		shutdown: make(chan struct{}),
	}
	s.pauseCond = sync.NewCond(&s.pauseMu)
	s.net = transport.NewChaosNet(s.Now, cfg.Tick, cfg.Seed)
	// The hub tap audits every chaos intervention, so a perturbed live run
	// can report exactly which messages the schedule touched.
	s.net.SetTap(func(msg transport.Message, verdict string) {
		if verdict == "deliver" {
			return
		}
		s.auditMu.Lock()
		s.audit = append(s.audit, fmt.Sprintf("%s %s->%s %s", verdict, msg.From, msg.To, msg.ID))
		s.auditMu.Unlock()
	})
	if cfg.UseTCP {
		hub, err := transport.NewHub(cfg.HubAddr)
		if err != nil {
			return nil, fmt.Errorf("substrate: live hub: %w", err)
		}
		s.hub = hub
	} else {
		s.sw = transport.NewSwitch()
	}
	return s, nil
}

// InjectionAudit returns the hub tap's record of chaos interventions, one
// "verdict from->to msgID" line per dropped, partitioned or duplicated
// message.
func (s *LiveSubstrate) InjectionAudit() []string {
	s.auditMu.Lock()
	defer s.auditMu.Unlock()
	return append([]string(nil), s.audit...)
}

// HubAddr returns the TCP hub's listen address ("" in switch mode).
func (s *LiveSubstrate) HubAddr() string {
	if s.hub == nil {
		return ""
	}
	return s.hub.Addr()
}

// liveProc is the runtime of one live process.
type liveProc struct {
	sub     *LiveSubstrate
	id      string
	mu      sync.Mutex // serializes machine callbacks and state access
	machine dsim.Machine
	heap    *checkpoint.Heap
	scroll  *scroll.Scroll
	clock   vclock.VC
	lamport vclock.Lamport
	durable *durableStore // stable storage: survives crash-restart and rollback
	tr      transport.Transport
	inbox   <-chan transport.Message
	events  chan liveEvent
	crashed bool
	halted  bool
	// incarnation is bumped by every restore (crash-restart AND rollback):
	// pending time.AfterFunc timers of the pre-restore incarnation cannot be
	// recalled, so their fires are fenced by generation instead. The global
	// epoch cannot serve here — crash-restart re-arms checkpointed timers
	// without advancing the timeline.
	incarnation uint64

	delivered     uint64
	ckptSkew      uint64
	pendingTimers []string
	pendingFaults []dsim.FaultRecord
}

// AddProcess implements Substrate. It must be called before Run; transport
// registration failures and duplicate IDs panic, mirroring dsim.
func (s *LiveSubstrate) AddProcess(id string, m dsim.Machine) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.procs[id]; dup {
		panic(fmt.Sprintf("substrate: duplicate live process %q", id))
	}
	var inner transport.Transport
	if s.hub != nil {
		inner = transport.NewTCPTransport(s.hub.Addr())
	} else {
		inner = s.sw
	}
	tr := s.net.Wrap(inner)
	inbox, err := tr.Register(id)
	if err != nil {
		panic(fmt.Sprintf("substrate: register live process %q: %v", id, err))
	}
	durable, err := openDurableStore(s.cfg.DurableDir, id)
	if err != nil {
		panic(fmt.Sprintf("substrate: durable store for %q: %v", id, err))
	}
	sc := scroll.NewMemory(id)
	if s.cfg.ScrollDir != "" {
		// Durable recordings: the scroll survives real process crashes like
		// the WAL-backed cells, so post-mortem replay works across substrate
		// instances, not just within one.
		sc, err = scroll.OpenDurable(id, filepath.Join(s.cfg.ScrollDir, id))
		if err != nil {
			panic(fmt.Sprintf("substrate: durable scroll for %q: %v", id, err))
		}
	}
	p := &liveProc{
		sub:     s,
		id:      id,
		machine: m,
		heap:    checkpoint.NewHeapPages(s.cfg.HeapSize, s.cfg.HeapPageSize),
		scroll:  sc,
		clock:   vclock.New(),
		durable: durable,
		tr:      tr,
		inbox:   inbox,
		events:  make(chan liveEvent, 1024),
	}
	s.procs[id] = p
	s.order = append(s.order, id)
	sort.Strings(s.order)
	go p.pump()
	go p.loop()
}

// pump forwards the transport inbox into the event loop.
func (p *liveProc) pump() {
	for msg := range p.inbox {
		p.post(liveEvent{kind: levMsg, msg: msg}, true)
	}
}

// post enqueues an event. counted events contribute to the activity
// counter until handled; timer events are pre-counted by SetTimer.
func (p *liveProc) post(ev liveEvent, counted bool) {
	if counted {
		p.sub.activity.Add(1)
	}
	select {
	case p.events <- ev:
	case <-p.sub.shutdown:
		if counted {
			p.sub.activity.Add(-1)
		}
	}
}

// loop is the process's serial event executor.
func (p *liveProc) loop() {
	for {
		select {
		case <-p.sub.shutdown:
			return
		case ev := <-p.events:
			p.sub.waitUnpaused()
			p.handle(ev)
			p.sub.activity.Add(-1)
			p.dispatchFaults()
		}
	}
}

// handle executes one event under the process mutex.
func (p *liveProc) handle(ev liveEvent) {
	if ev.kind == levRollback {
		// Injected deliberate rollback (fault.Rollback): a
		// whole-substrate restore that locks every process in sorted order,
		// so it must run before this process's own mutex is taken.
		p.sub.rollbackLatest(p)
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	s := p.sub
	ctx := &liveCtx{p: p}
	switch ev.kind {
	case levInit:
		p.clock = ev.tab.New() // nothing has ticked it yet: Run queues levInit first

		p.machine.Init(ctx)
		if s.cfg.InitCheckpoint {
			p.takeCheckpointLocked("init")
		}
	case levMsg:
		if p.crashed || p.halted {
			s.crashDrops.Add(1)
			return
		}
		if ev.msg.Epoch < s.epoch.Load() {
			// The message was sent on a timeline a rollback has since
			// abandoned; the real network could not recall it, so fence it
			// here — turning redelivery from at-least-once into
			// exactly-once-per-timeline. The fence is recorded in the scroll
			// (a KindCustom record, a no-op under dsim.Replay) so per-process
			// replay and divergence checking see the same history.
			p.scroll.Append(scroll.Record{
				Kind: scroll.KindCustom, MsgID: EpochFenceMsgID, Peer: ev.msg.From,
				Payload: []byte(fmt.Sprintf("%s epoch %d < %d", ev.msg.ID, ev.msg.Epoch, s.epoch.Load())),
				Lamport: p.lamport.Now(), Clock: p.clock.Copy(),
			})
			s.epochFences.Add(1)
			return
		}
		if s.cfg.CICheckpoint {
			p.takeCheckpointLocked("cic")
		}
		p.clock.Merge(ev.msg.Clock)
		p.clock.Tick(p.id)
		lam := p.lamport.Witness(ev.msg.Lamport)
		p.scroll.Append(scroll.Record{
			Kind: scroll.KindRecv, MsgID: ev.msg.ID, Peer: ev.msg.From,
			Payload: ev.msg.Payload, Lamport: lam, Clock: p.clock.Copy(),
		})
		p.delivered++
		s.delivered.Add(1)
		s.steps.Add(1)
		p.machine.OnMessage(ctx, ev.msg.From, ev.msg.Payload)
		if n := s.cfg.CheckpointEvery; n > 0 && (p.delivered+p.ckptSkew)%n == 0 {
			p.takeCheckpointLocked("periodic")
		}
	case levTimer:
		if ev.gen != p.incarnation {
			// The timer was armed by a previous incarnation of this process:
			// a restore (crash-restart or rollback) re-arms the checkpointed
			// timers itself, and the orphaned time.AfterFunc cannot be
			// recalled — the same epoch-style fence that drops stale
			// messages, applied per-process (dsim purges these events from
			// its queue deterministically).
			s.epochFences.Add(1)
			return
		}
		p.removeTimerLocked(ev.timer)
		if p.crashed || p.halted {
			return
		}
		p.clock.Tick(p.id)
		lam := p.lamport.Tick()
		p.scroll.Append(scroll.Record{
			Kind: scroll.KindCustom, MsgID: "timer:" + ev.timer,
			Payload: []byte(ev.timer), Lamport: lam, Clock: p.clock.Copy(),
		})
		s.timerFires.Add(1)
		s.steps.Add(1)
		p.machine.OnTimer(ctx, ev.timer)
	case levCrash:
		if !p.crashed {
			p.crashed = true
			s.crashes.Add(1)
		}
	case levRestart:
		if !p.crashed {
			return
		}
		p.crashed = false
		s.restarts.Add(1)
		if ck := s.store.Latest(p.id); ck != nil {
			p.restoreLocked(ck)
			p.machine.OnRollback(ctx, dsim.RollbackInfo{Manual: true, CrashRestart: true, Reason: "crash restart"})
		} else {
			p.machine.Init(ctx)
		}
	}
}

// rollbackLatest performs an injected deliberate rollback anchored at one
// process (fault.Rollback): the Time Machine computes the
// latest globally consistent recovery line over every process's
// checkpoints (recovery.MaxConsistentSet) and restores it through the
// timeline-fencing path, exactly as a heal-driven RollbackTo would.
// Crashed processes stay down, but their abandoned durable cells are
// fenced and post-line checkpoints pruned so a later restart joins the
// restored timeline. A crashed anchor, or one with no checkpoint yet,
// makes the injection a no-op. Processes are locked one at a time (the
// caller holds no process mutex), so concurrent rollbacks serialize on
// each mutex instead of deadlocking.
func (s *LiveSubstrate) rollbackLatest(anchor *liveProc) {
	anchor.mu.Lock()
	skip := anchor.crashed || s.store.Latest(anchor.id) == nil
	anchor.mu.Unlock()
	if skip {
		return
	}
	s.mu.Lock()
	procs := make([]*liveProc, 0, len(s.order))
	for _, id := range s.order {
		procs = append(procs, s.procs[id])
	}
	s.mu.Unlock()
	lists := make(map[string][]*checkpoint.Checkpoint, len(procs))
	for _, q := range procs {
		if cks := s.store.List(q.id); len(cks) > 0 {
			lists[q.id] = cks
		}
	}
	line := recovery.MaxConsistentSet(lists)
	if line == nil {
		return
	}
	// One epoch bump per rollback, before any restore: every send from the
	// abandoned timeline carries a smaller epoch and will be fenced.
	s.epoch.Add(1)
	for _, q := range procs {
		ck, ok := line[q.id]
		if !ok {
			continue
		}
		q.mu.Lock()
		switch {
		case q.crashed:
			// Not resurrected here; fence its disk and prune so the restart
			// path recovers the restored timeline, not the abandoned one.
			q.fenceAbandonedLocked(ck)
		default:
			q.restoreLocked(ck)
			q.fenceAbandonedLocked(ck)
			q.machine.OnRollback(&liveCtx{p: q}, dsim.RollbackInfo{Manual: true, Reason: "time machine rollback"})
		}
		q.mu.Unlock()
	}
}

// fenceAbandonedLocked applies the durable half of timeline fencing after a
// deliberate rollback restored ck (caller holds p.mu): stable-storage cells
// written at or after the checkpoint's scroll position are invalidated
// (with WAL tombstones when backed), and strictly-later checkpoints are
// pruned so a subsequent crash-restart cannot re-install abandoned state.
func (p *liveProc) fenceAbandonedLocked(ck *checkpoint.Checkpoint) {
	if err := p.durable.fence(ck.ScrollSeq); err != nil {
		select {
		case <-p.sub.shutdown:
		default:
			panic(fmt.Sprintf("substrate: durable invalidation for %s: %v", p.id, err))
		}
	}
	p.sub.store.PruneAfter(p.id, ck.ScrollSeq)
}

// removeTimerLocked drops one pending entry for name — plain bookkeeping:
// stale fires never reach it, the incarnation fence in handle drops them
// first.
func (p *liveProc) removeTimerLocked(name string) {
	for i, n := range p.pendingTimers {
		if n == name {
			p.pendingTimers = append(p.pendingTimers[:i], p.pendingTimers[i+1:]...)
			return
		}
	}
}

// takeCheckpointLocked snapshots the process (caller holds p.mu).
func (p *liveProc) takeCheckpointLocked(label string) *checkpoint.Checkpoint {
	extra, err := json.Marshal(p.machine.State())
	if err != nil {
		panic(fmt.Sprintf("substrate: state of %s not serializable: %v", p.id, err))
	}
	ck := &checkpoint.Checkpoint{
		Proc:      p.id,
		Clock:     p.clock.Copy(),
		ScrollSeq: uint64(p.scroll.Len()),
		Time:      p.sub.Now(),
		Snap:      p.heap.Snapshot(),
		Extra:     extra,
		Timers:    append([]string(nil), p.pendingTimers...),
	}
	p.sub.store.Put(ck)
	p.scroll.Append(scroll.Record{
		Kind: scroll.KindCkpt, MsgID: ck.ID, Payload: []byte(label),
		Lamport: p.lamport.Now(), Clock: p.clock.Copy(),
	})
	p.sub.ckpts.Add(1)
	return ck
}

// restoreLocked rewinds the process to a checkpoint: heap, machine state,
// vector clock, scroll position, and the timers pending at the checkpoint.
// Stable storage (p.durable) is deliberately untouched here: disk writes
// cannot be unwritten by a restore, and for crash-restart the disk is the
// authoritative recovery source (deliberate-rollback callers fence the
// abandoned cells separately — fenceAbandonedLocked). Messages already in
// flight cannot be recalled either; they are fenced at delivery by the
// timeline epoch stamped on every transport.Message, so redelivery is
// exactly-once-per-timeline rather than the historical at-least-once.
// Orphaned time.AfterFunc timers are fenced the same way via the process
// incarnation bumped below.
func (p *liveProc) restoreLocked(ck *checkpoint.Checkpoint) {
	p.incarnation++
	p.heap.Restore(ck.Snap)
	state, err := ck.StateJSON()
	if err == nil {
		err = checkpoint.RestoreState(state, p.machine.State())
	}
	if err != nil {
		panic(fmt.Sprintf("substrate: restore state of %s: %v", p.id, err))
	}
	p.clock = ck.Clock.Copy()
	p.scroll.Truncate(ck.ScrollSeq)
	p.halted = false
	p.pendingTimers = nil
	ctx := &liveCtx{p: p}
	for _, name := range ck.Timers {
		ctx.SetTimer(name, 2)
	}
	p.sub.rollbacks.Add(1)
}

// dispatchFaults runs deferred Context.Fault reports through the installed
// handler, outside the process mutex (so the handler may walk every
// process). A handler returning true pauses the substrate.
func (p *liveProc) dispatchFaults() {
	p.mu.Lock()
	pending := p.pendingFaults
	p.pendingFaults = nil
	p.mu.Unlock()
	if len(pending) == 0 {
		return
	}
	s := p.sub
	s.mu.Lock()
	handler := s.handler
	s.mu.Unlock()
	if handler == nil {
		return
	}
	s.faultMu.Lock()
	defer s.faultMu.Unlock()
	for _, rec := range pending {
		// Freeze peers at their next event while the handler runs. Pause
		// ownership matters: a declined fault only releases a pause this
		// iteration took — never one held by an earlier accepted response
		// or by a user Stop (dsim likewise never clears an accepted stop).
		wasPaused := s.isPaused()
		s.pause()
		if !handler(rec) && !wasPaused {
			s.unpause()
		}
	}
}

// --- Substrate: execution ---

// Run starts every process (Init on first call) and blocks until
// quiescence, MaxWait, Stop, or a protected fault pauses the run.
func (s *LiveSubstrate) Run() dsim.Stats {
	s.mu.Lock()
	if !s.started {
		s.started = true
		now := time.Now() //fixd:wallclock live backend anchors tick 0 to real start time
		s.startAt.Store(&now)
		s.armCtlLocked()
		tab := vclock.NewTable(s.order...)
		// Every event loop is held until each process has its levInit queued:
		// as on the simulator, no peer's message overtakes an Init. (A process
		// that handled traffic before its init checkpoint can leave the run
		// without any consistent recovery line.) A Stop before Run stays.
		wasPaused := s.isPaused()
		s.pause()
		for i, id := range s.order {
			// Periodic checkpoints are staggered by rank among the sorted IDs, as
			// on the simulator (Sim.Run): independent of AddProcess call order.
			if n := s.cfg.CheckpointEvery; n > 0 {
				s.procs[id].ckptSkew = uint64(i) % n
			}
			s.procs[id].post(liveEvent{kind: levInit, tab: tab}, true)
		}
		if !wasPaused {
			s.unpause()
		}
	}
	s.mu.Unlock()
	return s.waitQuiesce()
}

// Resume continues after a pause.
func (s *LiveSubstrate) Resume() dsim.Stats {
	s.unpause()
	return s.waitQuiesce()
}

// Stop pauses the run: loops freeze before their next event and Run
// returns once the pause is observed.
func (s *LiveSubstrate) Stop() { s.pause() }

func (s *LiveSubstrate) pause() {
	s.pauseMu.Lock()
	s.paused = true
	s.pauseMu.Unlock()
}

func (s *LiveSubstrate) unpause() {
	s.pauseMu.Lock()
	s.paused = false
	s.pauseMu.Unlock()
	s.pauseCond.Broadcast()
}

func (s *LiveSubstrate) isPaused() bool {
	s.pauseMu.Lock()
	defer s.pauseMu.Unlock()
	return s.paused
}

// waitUnpaused blocks an event loop while the substrate is paused. The
// closing flag shares pauseMu with the wait loop, so Close's wakeup
// cannot be missed.
func (s *LiveSubstrate) waitUnpaused() {
	s.pauseMu.Lock()
	for s.paused && !s.closing {
		s.pauseCond.Wait()
	}
	s.pauseMu.Unlock()
}

// idle reports whether no work is queued, running, or in flight.
func (s *LiveSubstrate) idle() bool {
	if s.activity.Load() != 0 || s.net.InFlight() != 0 {
		return false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	// Scheduled injections are pending work: the simulator drains them too.
	if len(s.ctl) != 0 || s.releasing {
		return false
	}
	for _, p := range s.procs {
		if len(p.inbox) != 0 || len(p.events) != 0 {
			return false
		}
	}
	return true
}

// waitQuiesce polls until the system stays idle for the settle window, the
// run is paused, or MaxWait elapses.
func (s *LiveSubstrate) waitQuiesce() dsim.Stats {
	deadline := time.Now().Add(s.cfg.MaxWait) //fixd:wallclock quiesce deadline is real time by design
	var quietSince time.Time
	for {
		if s.isPaused() {
			// A protected fault pauses the substrate *before* its handler
			// runs (dispatchFaults holds faultMu throughout); block on the
			// lock so Run never returns while a response is being built.
			s.faultMu.Lock()
			stillPaused := s.isPaused()
			s.faultMu.Unlock()
			if stillPaused {
				return s.Stats()
			}
			quietSince = time.Time{} // handler declined the pause; keep running
			continue
		}
		if time.Now().After(deadline) { //fixd:wallclock quiesce deadline is real time by design
			return s.Stats()
		}
		if s.idle() {
			if quietSince.IsZero() {
				quietSince = time.Now() //fixd:wallclock quiet-period tracking is real time by design
			}
			if time.Since(quietSince) >= s.cfg.Settle { //fixd:wallclock quiet-period tracking is real time by design
				return s.Stats()
			}
		} else {
			quietSince = time.Time{}
		}
		time.Sleep(2 * time.Millisecond) //fixd:wallclock live backend polls idleness in real time
	}
}

// Epoch returns the current timeline epoch: 0 until the first deliberate
// rollback (runs that never roll back report 0, keeping artifacts
// byte-stable against pre-epoch output).
func (s *LiveSubstrate) Epoch() uint64 { return s.epoch.Load() }

// EpochFences returns how many stale-epoch messages and stale-incarnation
// timer fires were fenced — the deliveries the pre-epoch substrate would
// have handed to a machine from an abandoned timeline.
func (s *LiveSubstrate) EpochFences() uint64 { return s.epochFences.Load() }

// Now returns the current virtual tick: monotonic time since Run divided
// by the tick duration (0 before the run starts).
func (s *LiveSubstrate) Now() uint64 {
	start := s.startAt.Load()
	if start == nil {
		return 0
	}
	return uint64(time.Since(*start) / s.cfg.Tick) //fixd:wallclock maps elapsed wall time onto virtual ticks
}

// Stats implements Substrate.
func (s *LiveSubstrate) Stats() dsim.Stats {
	_, dropped, duplicated := s.net.Stats()
	return dsim.Stats{
		Delivered:   s.delivered.Load(),
		Dropped:     dropped + s.crashDrops.Load(),
		Duplicated:  duplicated,
		TimerFires:  s.timerFires.Load(),
		Checkpoints: s.ckpts.Load(),
		Rollbacks:   s.rollbacks.Load(),
		Crashes:     s.crashes.Load(),
		Restarts:    s.restarts.Load(),
		Steps:       s.steps.Load(),
	}
}

// --- Substrate: registry and scroll access ---

// Procs implements Substrate.
func (s *LiveSubstrate) Procs() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]string(nil), s.order...)
}

// Scroll implements Substrate.
func (s *LiveSubstrate) Scroll(id string) *scroll.Scroll {
	s.mu.Lock()
	defer s.mu.Unlock()
	if p, ok := s.procs[id]; ok {
		return p.scroll
	}
	return nil
}

// MergedScroll implements Substrate.
func (s *LiveSubstrate) MergedScroll() []scroll.Record {
	return scroll.Merge(s.Scrolls()...)
}

// Scrolls returns the live per-process scrolls in registration order — the
// copy-free input to scroll.Fingerprinter. Pause the substrate (or wait
// for quiescence) before fingerprinting: recording is concurrent.
func (s *LiveSubstrate) Scrolls() []*scroll.Scroll {
	s.mu.Lock()
	defer s.mu.Unlock()
	scrolls := make([]*scroll.Scroll, 0, len(s.order))
	for _, id := range s.order {
		scrolls = append(scrolls, s.procs[id].scroll)
	}
	return scrolls
}

// MachineState implements Substrate.
func (s *LiveSubstrate) MachineState(id string) []byte {
	s.mu.Lock()
	p, ok := s.procs[id]
	s.mu.Unlock()
	if !ok {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	b, err := json.Marshal(p.machine.State())
	if err != nil {
		panic(fmt.Sprintf("substrate: state of %s not serializable: %v", id, err))
	}
	return b
}

// Clock implements Substrate.
func (s *LiveSubstrate) Clock(id string) vclock.VC {
	s.mu.Lock()
	p, ok := s.procs[id]
	s.mu.Unlock()
	if !ok {
		return vclock.VC{}
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.clock.Copy()
}

// --- Substrate: fault detection ---

// Faults implements Substrate.
func (s *LiveSubstrate) Faults() []dsim.FaultRecord {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]dsim.FaultRecord(nil), s.faults...)
}

// SetFaultHandler implements Substrate.
func (s *LiveSubstrate) SetFaultHandler(h func(dsim.FaultRecord) bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.handler = h
}

// --- Substrate: stable storage ---

// DurableSnapshot implements Substrate: a deep copy of every process's
// stable-storage cells. Pause the substrate (or wait for quiescence)
// before relying on a snapshot — recording is concurrent.
func (s *LiveSubstrate) DurableSnapshot() map[string]map[string][]byte {
	return s.snapshotCells(func(p *liveProc) map[string][]byte { return p.durable.cells.Snapshot() })
}

// DurableSnapshotAt implements core.Substrate as dsim.Sim does: the cells
// as of a recovery line (proc -> line scroll position), restricted to
// writes strictly before each process's line — what an investigation seeded
// from that line is allowed to observe. Processes absent from lineSeq are
// omitted.
func (s *LiveSubstrate) DurableSnapshotAt(lineSeq map[string]uint64) map[string]map[string][]byte {
	return s.snapshotCells(func(p *liveProc) map[string][]byte {
		seq, ok := lineSeq[p.id]
		if !ok {
			return nil
		}
		return p.durable.cells.SnapshotAt(seq)
	})
}

// snapshotCells collects what cellsOf copies out of each process's stable
// storage (called under that process's mutex), in process order, leaving
// out processes it returns nil for.
func (s *LiveSubstrate) snapshotCells(cellsOf func(*liveProc) map[string][]byte) map[string]map[string][]byte {
	s.mu.Lock()
	procs := make([]*liveProc, 0, len(s.order))
	for _, id := range s.order {
		procs = append(procs, s.procs[id])
	}
	s.mu.Unlock()
	var out map[string]map[string][]byte
	for _, p := range procs {
		p.mu.Lock()
		cells := cellsOf(p)
		p.mu.Unlock()
		if cells == nil {
			continue
		}
		if out == nil {
			out = make(map[string]map[string][]byte, len(procs))
		}
		out[p.id] = cells
	}
	return out
}

// --- Substrate: checkpoint / rollback ---

// Store implements Substrate.
func (s *LiveSubstrate) Store() *checkpoint.Store { return s.store }

// RollbackTo restores the given recovery line and advances the timeline
// epoch. State, heap, clock and scroll rewind; messages already in flight
// cannot be recalled, but they carry the pre-rollback epoch and are fenced
// at delivery, so processes observe exactly-once-per-timeline delivery.
// Durable cells written after the restored checkpoints are invalidated and
// the abandoned timeline's checkpoints pruned, so a crash-restart that
// fires after the rollback recovers the restored timeline.
func (s *LiveSubstrate) RollbackTo(line map[string]string) error {
	cks, err := s.store.ResolveLine(line)
	if err != nil {
		return err
	}
	// Nothing moves — not the epoch, not one process — unless the whole line
	// can be applied.
	procs := make([]*liveProc, len(cks))
	s.mu.Lock()
	for i, ck := range cks {
		procs[i] = s.procs[ck.Proc]
	}
	s.mu.Unlock()
	for i, p := range procs {
		if p == nil {
			return fmt.Errorf("substrate: unknown process %q", cks[i].Proc)
		}
	}
	// One epoch bump per rollback, before any process restores: every send
	// from the abandoned timeline — including ones racing this rollback —
	// carries a smaller epoch and will be fenced.
	s.epoch.Add(1)
	for i, p := range procs {
		p.mu.Lock()
		p.restoreLocked(cks[i])
		p.fenceAbandonedLocked(cks[i])
		p.machine.OnRollback(&liveCtx{p: p}, dsim.RollbackInfo{Manual: true, Reason: "time machine rollback"})
		p.mu.Unlock()
	}
	return nil
}

// ReplaceMachine implements Substrate — the dynamic-update primitive.
func (s *LiveSubstrate) ReplaceMachine(procID string, m dsim.Machine, state []byte) error {
	s.mu.Lock()
	p, ok := s.procs[procID]
	s.mu.Unlock()
	if !ok {
		return fmt.Errorf("substrate: unknown process %q", procID)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if state != nil {
		if err := checkpoint.RestoreState(state, m.State()); err != nil {
			return fmt.Errorf("substrate: update state of %s rejected: %w", procID, err)
		}
	}
	p.machine = m
	// A dynamic update starts a new timeline: in-flight output of the
	// replaced implementation becomes fenceable, mirroring the simulator.
	s.epoch.Add(1)
	return nil
}

// --- Substrate: chaos capability (fault.Injector) ---

// Inject implements fault.Injector. A rule goes to the hub's store, which
// also answers what the event loops ask (a slow node's timer lag, a skewed
// clock read). A control kind is posted to inj.Proc's event loop at tick
// inj.At: a crash (messages to it count as dropped from then on), a restart
// from its latest checkpoint, or a deliberate rollback (rollbackLatest).
// One sorted list, not a timer per injection: however late a loaded machine
// wakes up, a process gets its control events in (tick, arm order) — a
// rollback before the crash scheduled after it, a crash before its restart.
func (s *LiveSubstrate) Inject(inj fault.Injection) {
	if inj.Kind.Class() != inject.Control {
		s.net.Inject(inj)
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	i := sort.Search(len(s.ctl), func(i int) bool { return s.ctl[i].At > inj.At })
	s.ctl = slices.Insert(s.ctl, i, inj)
	s.armCtlLocked()
}

// armCtlLocked points the wake-up at the earliest pending control injection
// (caller holds s.mu). Run arms the first one; a release re-arms when done.
func (s *LiveSubstrate) armCtlLocked() {
	if !s.started || s.closed || s.releasing || len(s.ctl) == 0 {
		return
	}
	if s.ctlTim != nil {
		s.ctlTim.Stop() // a wake-up that fires anyway finds nothing new due
	}
	d := time.Duration(s.ctl[0].At)*s.cfg.Tick - time.Since(*s.startAt.Load()) //fixd:wallclock converts a tick deadline to a wall delay
	s.ctlTim = time.AfterFunc(max(d, 0), func() { s.releaseDue(s.Now()) })     //fixd:wallclock live backend arms real timers
}

// releaseDue posts every control injection due at tick now to its process,
// in list order, and re-arms the wake-up for the rest.
func (s *LiveSubstrate) releaseDue(now uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.releasing {
		return // the release under way re-arms, immediately if more is due
	}
	s.releasing = true
	for len(s.ctl) > 0 && s.ctl[0].At <= now {
		inj, p := s.ctl[0], s.procs[s.ctl[0].Proc]
		s.ctl = s.ctl[1:]
		if p != nil {
			s.mu.Unlock() // post blocks on a full event queue
			p.post(liveEvent{kind: levControl + int(inj.Kind)}, true)
			s.mu.Lock()
		}
	}
	s.releasing = false
	s.armCtlLocked()
}

// --- Substrate: lifecycle ---

// Capabilities implements Substrate.
func (s *LiveSubstrate) Capabilities() Capabilities {
	return Capabilities{
		Name:          "live",
		Deterministic: false,
		ProcessReplay: true,
		Checkpoints:   true,
		Speculation:   false,
		StableStorage: true,
	}
}

// Close shuts the substrate down: event loops exit, transports and the hub
// close. Idempotent.
func (s *LiveSubstrate) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	if s.ctlTim != nil {
		s.ctlTim.Stop()
	}
	procs := make([]*liveProc, 0, len(s.order))
	for _, id := range s.order {
		procs = append(procs, s.procs[id])
	}
	s.mu.Unlock()

	close(s.shutdown)
	s.pauseMu.Lock()
	s.closing = true
	s.pauseMu.Unlock()
	s.pauseCond.Broadcast()
	// Cancel delayed chaos deliveries before the inner transports close so
	// none of them lands on a closed transport.
	s.net.Close()
	// Flush and release the durable WALs and scrolls: event loops have
	// exited, so no further puts or appends race the close.
	for _, p := range procs {
		p.mu.Lock()
		p.durable.close()
		p.scroll.Close() //nolint:errcheck // memory scrolls are no-ops; WAL errors mirror durable close
		p.mu.Unlock()
	}
	if s.hub != nil {
		for _, p := range procs {
			p.tr.Close()
		}
		return s.hub.Close()
	}
	return s.sw.Close()
}

// --- live Context ---

// liveCtx is the dsim.Context implementation for live processes. Every
// nondeterministic outcome is recorded in the process's scroll, so the
// offline per-process replay (dsim.Replay) works on live recordings.
type liveCtx struct {
	p *liveProc
}

// Self implements dsim.Context.
func (c *liveCtx) Self() string { return c.p.id }

// Now returns the virtual tick — offset by injected skew — and records it.
func (c *liveCtx) Now() uint64 {
	p := c.p
	t := p.sub.net.Skewed(p.id, p.sub.Now())
	p.scroll.Append(scroll.Record{
		Kind: scroll.KindTime, Payload: binary.LittleEndian.AppendUint64(nil, t),
		Lamport: p.lamport.Now(), Clock: p.clock.Copy(),
	})
	return t
}

// Random returns a seeded pseudo-random uint64 and records it.
func (c *liveCtx) Random() uint64 {
	p := c.p
	p.sub.rngMu.Lock()
	v := p.sub.rng.Uint64()
	p.sub.rngMu.Unlock()
	p.scroll.Append(scroll.Record{
		Kind: scroll.KindRandom, Payload: binary.LittleEndian.AppendUint64(nil, v),
		Lamport: p.lamport.Now(), Clock: p.clock.Copy(),
	})
	return v
}

// Send records the transmission and routes it through the (chaos-wrapped)
// transport. Transport errors are dropped messages: the live network is
// allowed to lose traffic, and machines must already tolerate loss.
func (c *liveCtx) Send(to string, payload []byte) {
	p := c.p
	p.clock.Tick(p.id)
	lam := p.lamport.Tick()
	id := fmt.Sprintf("L%d", p.sub.msgN.Add(1))
	body := append([]byte(nil), payload...)
	p.scroll.Append(scroll.Record{
		Kind: scroll.KindSend, MsgID: id, Peer: to, Payload: body,
		Lamport: lam, Clock: p.clock.Copy(),
	})
	p.tr.Send(transport.Message{ //nolint:errcheck // loss is within the model
		ID: id, From: p.id, To: to, Payload: body, Lamport: lam, Clock: p.clock.Copy(),
		Epoch: p.sub.epoch.Load(),
	})
}

// SetTimer schedules OnTimer(name) after delay ticks of wall time. The
// arming incarnation rides along so a fire from before a restore is fenced
// (callers hold p.mu, so the read is stable). A slow node's own timers lag
// by the injected extra, matching the simulator's per-handler slowdown.
func (c *liveCtx) SetTimer(name string, delay uint64) {
	p := c.p
	gen := p.incarnation
	delay += p.sub.net.Slow(p.id, p.sub.Now())
	p.pendingTimers = append(p.pendingTimers, name)
	p.sub.activity.Add(1)                                        // held until the timer event is handled
	time.AfterFunc(time.Duration(delay)*p.sub.cfg.Tick, func() { //fixd:wallclock live backend arms real timers
		p.post(liveEvent{kind: levTimer, timer: name, gen: gen}, false)
	})
}

// Heap implements dsim.Context.
func (c *liveCtx) Heap() *checkpoint.Heap { return c.p.heap }

// DurablePut implements dsim.Context: the cell is written to the
// process's stable store (WAL-backed when LiveConfig.DurableDir is set)
// and recorded in the scroll under the same identity the simulator uses,
// so live recordings replay uniformly. The write is stamped with the
// current timeline epoch and scroll position — the coordinates a
// deliberate rollback fences against (see durableStore.fence).
func (c *liveCtx) DurablePut(key string, value []byte) {
	p := c.p
	if err := p.durable.put(key, value, p.sub.epoch.Load(), uint64(p.scroll.Len())); err != nil {
		select {
		case <-p.sub.shutdown:
			// Closing: the cell map still took the write; losing the WAL
			// append mirrors the transport's drop-on-close behavior.
		default:
			panic(fmt.Sprintf("substrate: durable put for %s: %v", p.id, err))
		}
	}
	p.scroll.Append(scroll.Record{
		Kind: scroll.KindEnv, MsgID: dsim.DurablePutMsgID, Peer: key,
		Payload: append([]byte(nil), value...),
		Lamport: p.lamport.Now(), Clock: p.clock.Copy(),
	})
}

// DurableGet implements dsim.Context, recording the outcome.
func (c *liveCtx) DurableGet(key string) ([]byte, bool) {
	p := c.p
	v, ok := p.durable.cells.Get(key)
	p.scroll.Append(scroll.Record{
		Kind: scroll.KindEnv, MsgID: dsim.DurableGetMsgID, Peer: key,
		Payload: dsim.EncodeDurableGet(v, ok),
		Lamport: p.lamport.Now(), Clock: p.clock.Copy(),
	})
	if !ok {
		return nil, false
	}
	return append([]byte(nil), v...), true
}

// DurableKeys implements dsim.Context, recording the key list.
func (c *liveCtx) DurableKeys() []string {
	p := c.p
	keys := p.durable.cells.Keys()
	p.scroll.Append(scroll.Record{
		Kind: scroll.KindEnv, MsgID: dsim.DurableKeysMsgID,
		Payload: dsim.EncodeDurableKeys(keys),
		Lamport: p.lamport.Now(), Clock: p.clock.Copy(),
	})
	return keys
}

// Log appends an informational record to the scroll.
func (c *liveCtx) Log(format string, args ...any) {
	p := c.p
	p.scroll.Append(scroll.Record{
		Kind: scroll.KindCustom, MsgID: "log",
		Payload: []byte(fmt.Sprintf(format, args...)),
		Lamport: p.lamport.Now(), Clock: p.clock.Copy(),
	})
}

// Fault reports a locally detected fault. The handler runs after the
// current machine callback returns (outside the process mutex), so a
// coordinator may inspect and roll back every process.
func (c *liveCtx) Fault(desc string) {
	p := c.p
	rec := dsim.FaultRecord{Proc: p.id, Desc: desc, Time: p.sub.Now(), Clock: p.clock.Copy()}
	p.scroll.Append(scroll.Record{
		Kind: scroll.KindFault, Payload: []byte(desc),
		Lamport: p.lamport.Now(), Clock: p.clock.Copy(),
	})
	p.sub.mu.Lock()
	p.sub.faults = append(p.sub.faults, rec)
	p.sub.mu.Unlock()
	p.pendingFaults = append(p.pendingFaults, rec)
}

// Checkpoint takes an explicit checkpoint and returns its ID.
func (c *liveCtx) Checkpoint(label string) string {
	return c.p.takeCheckpointLocked(label).ID
}

// Speculate is unavailable on the live substrate: aborting a speculation
// requires recalling messages from the network, which only a simulated
// network can do.
func (c *liveCtx) Speculate(string) (string, error) {
	return "", fmt.Errorf("substrate: speculation requires the simulated substrate")
}

// Commit implements dsim.Context (no live speculations exist to commit).
func (c *liveCtx) Commit(string) error {
	return fmt.Errorf("substrate: speculation requires the simulated substrate")
}

// AbortSpec implements dsim.Context.
func (c *liveCtx) AbortSpec(string, string) error {
	return fmt.Errorf("substrate: speculation requires the simulated substrate")
}

// Halt stops the process permanently.
func (c *liveCtx) Halt() { c.p.halted = true }
