package substrate

import (
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
	"repro/internal/scroll"
	"repro/internal/transport"
	"repro/internal/vclock"
)

// LiveConfig parameterizes the live (real-goroutine) substrate. Its timing
// is fixed: one virtual tick is 1 ms of wall time, Run and Resume declare
// quiescence once the system has stayed idle for 75 ms and return after
// 10 s at the latest, and each process's heap is checkpoint.DefaultHeapSize
// (64 KiB) of checkpoint.DefaultPageSize pages, the simulator's default.
type LiveConfig struct {
	// Seed drives the chaos-injection probability draws. Unlike the
	// simulator it does not make runs replayable (see Capabilities).
	Seed int64
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

const (
	// liveTick is the real duration of one virtual tick. Chaos windows,
	// injected delays and timer delays are expressed in ticks.
	liveTick = time.Millisecond
	// liveSettle is how long the system must stay idle (no queued events,
	// no in-flight messages) before Run declares quiescence — generous
	// enough to cover loopback-TCP propagation.
	liveSettle = 75 * time.Millisecond
	// liveMaxWait bounds one Run/Resume call.
	liveMaxWait = 10 * time.Second
)

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

	mu      sync.Mutex // registry, handler, control injections
	procs   map[string]*liveProc
	order   []string
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
	if cfg.HubAddr == "" {
		cfg.HubAddr = "127.0.0.1:0"
	}
	s := &LiveSubstrate{
		cfg:      cfg,
		procs:    make(map[string]*liveProc),
		rng:      rand.New(rand.NewSource(cfg.Seed)),
		store:    checkpoint.NewStore(),
		shutdown: make(chan struct{}),
	}
	s.pauseCond = sync.NewCond(&s.pauseMu)
	s.net = transport.NewChaosNet(s.Now, liveTick, cfg.Seed)
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

// liveProc is the runtime of one live process: its kernel, with memory of
// its own, plus what only the live backend keeps.
type liveProc struct {
	dsim.Kernel
	sub     *LiveSubstrate
	mu      sync.Mutex   // serializes machine callbacks and state access
	durable durableStore // the write-ahead log under the kernel's cells
	tr      transport.Transport
	inbox   <-chan transport.Message
	events  chan liveEvent
	// incarnation is bumped by every restore (crash-restart AND rollback)
	// and by a restart that re-runs Init: pending time.AfterFunc timers of
	// the previous incarnation cannot be recalled, so their fires are fenced
	// by generation instead. The global
	// epoch cannot serve here — crash-restart re-arms checkpointed timers
	// without advancing the timeline.
	incarnation uint64

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
		Kernel: dsim.NewKernel(id, m, checkpoint.NewHeap(checkpoint.DefaultHeapSize), sc),
		sub:    s,
		tr:     tr,
		inbox:  inbox,
		events: make(chan liveEvent, 1024),
	}
	if p.durable, err = openDurableStore(s.cfg.DurableDir, id, p.Cells()); err != nil {
		panic(fmt.Sprintf("substrate: durable store for %q: %v", id, err))
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
	ctx := &liveCtx{p}
	switch ev.kind {
	case levInit:
		p.Rehome(ev.tab) // nothing has ticked the clock yet: Run queues levInit first
		p.Machine().Init(ctx)
		if s.cfg.InitCheckpoint {
			p.takeCheckpointLocked("init")
		}
	case levMsg:
		if p.Down() {
			s.crashDrops.Add(1)
			return
		}
		if epoch := s.epoch.Load(); ev.msg.Epoch < epoch {
			// The message was sent on a timeline a rollback has since
			// abandoned; the real network could not recall it, so fence it
			// here — turning redelivery from at-least-once into
			// exactly-once-per-timeline. The fence is recorded in the scroll
			// (a KindCustom record, a no-op under dsim.Replay) so per-process
			// replay and divergence checking see the same history.
			p.RecordFence(ev.msg.ID, ev.msg.From, ev.msg.Epoch, epoch)
			s.epochFences.Add(1)
			return
		}
		if s.cfg.CICheckpoint {
			p.takeCheckpointLocked("cic")
		}
		p.RecordRecv(ev.msg.ID, ev.msg.From, ev.msg.Payload, ev.msg.Lamport, ev.msg.Clock)
		periodic := p.Delivered(s.cfg.CheckpointEvery)
		s.delivered.Add(1)
		s.steps.Add(1)
		p.Machine().OnMessage(ctx, ev.msg.From, ev.msg.Payload)
		if periodic {
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
		if p.Down() {
			return
		}
		p.RecordTimer(ev.timer)
		s.timerFires.Add(1)
		s.steps.Add(1)
		p.Machine().OnTimer(ctx, ev.timer)
	case levCrash:
		if p.Crash() {
			s.crashes.Add(1)
		}
	case levRestart:
		// A restart with nothing to restore is a fresh incarnation: Init arms
		// its own timers, and the crashed incarnation's pending fires are
		// fenced, as after a restore.
		if p.Restart(ctx, s.store, p.restoreLocked, func() { p.incarnation, p.pendingTimers = p.incarnation+1, nil }) {
			s.restarts.Add(1)
		}
	}
}

// rollbackLatest performs an injected deliberate rollback anchored at one
// process (fault.Rollback): the line dsim.InjectedLine decides, restored
// through RollbackTo as a heal-driven rollback would be; a crashed member's
// fence is logged in its write-ahead log. It runs on the
// anchor's event loop, the only one that crashes or restarts the anchor. A
// line a concurrent rollback pruned makes it a no-op.
func (s *LiveSubstrate) rollbackLatest(anchor *liveProc) {
	line := dsim.InjectedLine(s.store, s.Procs(), s.kernels, &anchor.Kernel, func(k *dsim.Kernel, _ *checkpoint.Checkpoint, fenced []string) {
		p := s.proc(k.Self())
		p.logged(p.durable.fence(k.Cells(), fenced), "invalidation")
	})
	if line != nil {
		s.RollbackTo(line) //nolint:errcheck // a line gone stale is a rollback superseded
	}
}

// kernels yields every process's kernel in ID order, each under its mutex.
func (s *LiveSubstrate) kernels(yield func(*dsim.Kernel) bool) {
	for _, p := range s.inOrder() {
		p.mu.Lock()
		more := yield(&p.Kernel)
		p.mu.Unlock()
		if !more {
			return
		}
	}
}

// logged panics on err, the outcome of a write-ahead log append, unless the
// substrate is closing: the cells already hold what the append logs, and
// losing it mirrors the transport's drop-on-close behavior.
func (p *liveProc) logged(err error, what string) {
	if err == nil {
		return
	}
	select {
	case <-p.sub.shutdown:
	default:
		panic(fmt.Sprintf("substrate: durable %s for %s: %v", what, p.Self(), err))
	}
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
	ck := p.Checkpoint(p.sub.store, p.sub.Now(), label, append([]string(nil), p.pendingTimers...))
	p.sub.ckpts.Add(1)
	return ck
}

// restoreLocked is the live restore of a process to a checkpoint (caller
// holds p.mu): Kernel.Restore, a new incarnation — which fences the
// orphaned time.AfterFunc fires of the old one — and the checkpoint's
// timers re-armed. Its cells are left alone: what a deliberate rollback
// abandons is Kernel.Abandon's, whose fence its callers log, and a
// crash-restart (Kernel.Restart) recovers from them. Messages already in
// flight cannot be recalled; they are fenced at delivery by the timeline
// epoch stamped on every transport.Message, so redelivery is
// exactly-once-per-timeline rather than the historical at-least-once.
func (p *liveProc) restoreLocked(ck *checkpoint.Checkpoint) {
	p.incarnation++
	p.Restore(ck)
	p.pendingTimers = nil
	ctx := &liveCtx{p}
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
// quiescence, liveMaxWait, Stop, or a protected fault pauses the run.
func (s *LiveSubstrate) Run() dsim.Stats {
	s.mu.Lock()
	if !s.started {
		s.started = true
		now := wallNow()
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
			s.procs[id].Stagger(i, s.cfg.CheckpointEvery)
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
// run is paused, or liveMaxWait elapses.
func (s *LiveSubstrate) waitQuiesce() dsim.Stats {
	deadline := wallNow().Add(liveMaxWait)
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
		now := wallNow()
		if now.After(deadline) {
			return s.Stats()
		}
		if s.idle() {
			if quietSince.IsZero() {
				quietSince = now
			}
			if now.Sub(quietSince) >= liveSettle {
				return s.Stats()
			}
		} else {
			quietSince = time.Time{}
		}
		wallSleep(2 * time.Millisecond)
	}
}

// Epoch returns the current timeline epoch: 0 until the first deliberate
// rollback (runs that never roll back report 0, keeping artifacts
// byte-stable against pre-epoch output).
func (s *LiveSubstrate) Epoch() uint64 { return s.epoch.Load() }

// Now returns the current virtual tick: monotonic time since Run divided
// by the tick duration (0 before the run starts).
func (s *LiveSubstrate) Now() uint64 {
	start := s.startAt.Load()
	if start == nil {
		return 0
	}
	return uint64(wallNow().Sub(*start) / liveTick)
}

// The live backend's only doors to real time: every wall-clock read, wait
// and timer in this file goes through one of these three.

func wallNow() time.Time { return time.Now() } //fixd:wallclock the live backend maps elapsed wall time onto virtual ticks and deadlines

func wallSleep(d time.Duration) { time.Sleep(d) } //fixd:wallclock the live backend polls for quiescence in real time

func wallAfter(d time.Duration, f func()) *time.Timer { return time.AfterFunc(d, f) } //fixd:wallclock the live backend arms real timers for process timers and scheduled injections

// Stats returns the cumulative counters.
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

// proc returns the named process, nil if the substrate runs none.
func (s *LiveSubstrate) proc(id string) *liveProc {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.procs[id]
}

// inOrder returns the processes in sorted ID order.
func (s *LiveSubstrate) inOrder() []*liveProc {
	s.mu.Lock()
	defer s.mu.Unlock()
	procs := make([]*liveProc, len(s.order))
	for i, id := range s.order {
		procs[i] = s.procs[id]
	}
	return procs
}

// Scroll implements Substrate.
func (s *LiveSubstrate) Scroll(id string) *scroll.Scroll {
	if p := s.proc(id); p != nil {
		return p.Scroll()
	}
	return nil
}

// MergedScroll implements Substrate.
func (s *LiveSubstrate) MergedScroll() []scroll.Record {
	return scroll.Merge(s.Scrolls()...)
}

// Scrolls returns the live per-process scrolls in sorted ID order — the
// copy-free input to scroll.Fingerprinter. Pause the substrate (or wait
// for quiescence) before fingerprinting: recording is concurrent.
func (s *LiveSubstrate) Scrolls() []*scroll.Scroll {
	procs := s.inOrder()
	scrolls := make([]*scroll.Scroll, len(procs))
	for i, p := range procs {
		scrolls[i] = p.Scroll()
	}
	return scrolls
}

// MachineState implements Substrate.
func (s *LiveSubstrate) MachineState(id string) []byte {
	p := s.proc(id)
	if p == nil {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.MachineState()
}

// --- Substrate: fault detection ---

// SetFaultHandler implements Substrate.
func (s *LiveSubstrate) SetFaultHandler(h func(dsim.FaultRecord) bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.handler = h
}

// --- Substrate: stable storage ---

// DurableSnapshot implements Substrate (dsim.Disks). Pause the substrate
// (or wait for quiescence) before relying on a snapshot — recording is
// concurrent.
func (s *LiveSubstrate) DurableSnapshot() map[string]map[string][]byte { return dsim.Disks(s.kernels) }

// DurableSnapshotAt implements heal.Target as dsim.Sim does (dsim.DisksAt).
func (s *LiveSubstrate) DurableSnapshotAt(line map[string]*checkpoint.Checkpoint) map[string]map[string][]byte {
	return dsim.DisksAt(s.kernels, line)
}

// --- Substrate: checkpoint / rollback ---

// Store implements Substrate.
func (s *LiveSubstrate) Store() *checkpoint.Store { return s.store }

// RollbackTo restores the given recovery line, advances the timeline epoch
// and, as the simulator does, re-delivers the messages in transit across
// the line (scroll.InTransit) to its members: through their senders'
// transports, stamped with the new epoch, so chaos rules apply to them and
// an old-epoch copy still in flight is fenced. Every process is held while
// the epoch moves and the line is cut, so every send the cut holds carries
// the old epoch. Durable puts made after the restored checkpoints are cut
// and later checkpoints pruned, so a crash-restart after the rollback
// recovers the restored timeline.
func (s *LiveSubstrate) RollbackTo(line map[string]string) error {
	cks, err := s.store.ResolveLine(line)
	if err != nil {
		return err
	}
	procs, scrolls := s.inOrder(), s.Scrolls()
	// Nothing moves — not the epoch, not one process — unless the whole line
	// can be applied.
	members := make([]*liveProc, len(cks))
	for i, ck := range cks {
		if members[i] = s.proc(ck.Proc); members[i] == nil {
			return fmt.Errorf("substrate: unknown process %q", ck.Proc)
		}
	}
	for _, p := range procs {
		p.mu.Lock()
	}
	epoch := s.epoch.Add(1)
	for i, p := range members {
		p.restoreLocked(cks[i])
		p.logged(p.durable.fence(p.Cells(), p.Abandon(s.store, cks[i])), "invalidation")
	}
	var resend []transport.Message
	for r := range scroll.InTransit(scrolls, nil) {
		if _, ok := line[r.Peer]; ok {
			resend = append(resend, transport.Message{ID: r.MsgID, From: r.Proc, To: r.Peer,
				Payload: r.Payload, Lamport: r.Lamport, Clock: r.Clock.Copy(), Epoch: epoch})
		}
	}
	for _, p := range procs {
		if _, ok := line[p.Self()]; !ok {
			p.mu.Unlock()
		}
	}
	for _, p := range members {
		p.Machine().OnRollback(&liveCtx{p}, dsim.RollbackInfo{Manual: true, Reason: "time machine rollback"})
		p.mu.Unlock()
	}
	for _, msg := range resend {
		if p := s.proc(msg.From); p != nil { // a scroll loaded from disk may name another process
			p.tr.Send(msg) //nolint:errcheck // loss is within the model
		}
	}
	return nil
}

// ReplaceMachine implements Substrate — the dynamic-update primitive.
func (s *LiveSubstrate) ReplaceMachine(procID string, m dsim.Machine, state []byte) error {
	p := s.proc(procID)
	if p == nil {
		return fmt.Errorf("substrate: unknown process %q", procID)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if err := p.Replace(m, state); err != nil {
		return err
	}
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
	d := time.Duration(s.ctl[0].At)*liveTick - wallNow().Sub(*s.startAt.Load())
	s.ctlTim = wallAfter(max(d, 0), func() { s.releaseDue(s.Now()) })
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
	return Capabilities{Name: "live", Deterministic: false, Speculation: false}
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
	s.mu.Unlock()
	procs := s.inOrder()

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
		p.Scroll().Close() //nolint:errcheck // memory scrolls are no-ops; WAL errors mirror durable close
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

// liveCtx is the dsim.Context implementation for live processes: the
// process's kernel (through *liveProc) serves the calls whose outcome is the
// process's own and records every nondeterministic outcome in its scroll,
// as on the simulator, so the offline per-process replay (dsim.Replay)
// works on live recordings. The methods below reach the substrate.
type liveCtx struct {
	*liveProc
}

// Now returns the virtual tick — offset by injected skew — and records it.
func (c *liveCtx) Now() uint64 {
	return c.RecordTime(c.sub.net.Skewed(c.Self(), c.sub.Now()))
}

// Random returns a seeded pseudo-random uint64 and records it.
func (c *liveCtx) Random() uint64 {
	c.sub.rngMu.Lock()
	v := c.sub.rng.Uint64()
	c.sub.rngMu.Unlock()
	return c.RecordRandom(v)
}

// Send records the transmission and routes it through the (chaos-wrapped)
// transport. Transport errors are dropped messages: the live network is
// allowed to lose traffic, and machines must already tolerate loss.
func (c *liveCtx) Send(to string, payload []byte) {
	id := fmt.Sprintf("L%d", c.sub.msgN.Add(1))
	body, lam, _ := c.RecordSend(id, to, payload)
	c.tr.Send(transport.Message{ //nolint:errcheck // loss is within the model
		ID: id, From: c.Self(), To: to, Payload: body, Lamport: lam, Clock: c.ClockSnap(),
		Epoch: c.sub.epoch.Load(),
	})
}

// SetTimer schedules OnTimer(name) after delay ticks of wall time. The
// arming incarnation rides along so a fire from before a restore is fenced
// (callers hold p.mu, so the read is stable). A slow node's own timers lag
// by the injected extra, matching the simulator's per-handler slowdown.
func (c *liveCtx) SetTimer(name string, delay uint64) {
	p := c.liveProc
	gen := p.incarnation
	delay += p.sub.net.Slow(p.Self(), p.sub.Now())
	p.pendingTimers = append(p.pendingTimers, name)
	p.sub.activity.Add(1) // held until the timer event is handled
	wallAfter(time.Duration(delay)*liveTick, func() {
		p.post(liveEvent{kind: levTimer, timer: name, gen: gen}, false)
	})
}

// DurablePut implements dsim.Context: the kernel records the write and
// writes the cell, as on the simulator, and the write is logged to the
// process's WAL when LiveConfig.DurableDir is set, with the current
// timeline epoch and its scroll position.
func (c *liveCtx) DurablePut(key string, value []byte) {
	body, seq := c.RecordDurablePut(key, value)
	c.logged(c.durable.put(key, body, c.sub.epoch.Load(), seq), "put")
}

// Fault reports a locally detected fault. The handler runs after the
// current machine callback returns (outside the process mutex), so a
// coordinator may inspect and roll back every process.
func (c *liveCtx) Fault(desc string) {
	c.pendingFaults = append(c.pendingFaults, c.RecordFault(desc, c.sub.Now()))
}

// Checkpoint takes an explicit checkpoint and returns its ID.
func (c *liveCtx) Checkpoint(label string) string {
	return c.takeCheckpointLocked(label).ID
}
