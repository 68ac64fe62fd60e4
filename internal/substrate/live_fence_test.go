package substrate

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/dsim"
	"repro/internal/fault"
	"repro/internal/scroll"
	"repro/internal/transport"
)

// fenceProbe counts machine callbacks and keeps no other state.
type fenceProbe struct {
	st struct{ Msgs, Timers int }
}

func (f *fenceProbe) State() any                                 { return &f.st }
func (f *fenceProbe) Init(dsim.Context)                          {}
func (f *fenceProbe) OnMessage(dsim.Context, string, []byte)     { f.st.Msgs++ }
func (f *fenceProbe) OnTimer(dsim.Context, string)               { f.st.Timers++ }
func (f *fenceProbe) OnRollback(dsim.Context, dsim.RollbackInfo) {}

// TestLiveEpochFenceMessage drives the delivery path directly: a message
// stamped with the current epoch is delivered; after the epoch advances,
// the same-shaped frame is fenced — dropped deterministically, counted,
// and recorded in the scroll under EpochFenceMsgID so replay sees the
// drop as part of the timeline.
func TestLiveEpochFenceMessage(t *testing.T) {
	s, err := NewLive(LiveConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	probe := &fenceProbe{}
	s.AddProcess("w", probe)
	s.mu.Lock()
	p := s.procs["w"]
	s.mu.Unlock()

	p.handle(liveEvent{kind: levMsg, msg: transport.Message{
		ID: "m1", From: "x", Payload: []byte("a"), Epoch: s.epoch.Load()}})
	s.epoch.Add(1)
	p.handle(liveEvent{kind: levMsg, msg: transport.Message{
		ID: "m2", From: "x", Payload: []byte("b")}}) // epoch 0 < 1: stale timeline

	if probe.st.Msgs != 1 {
		t.Errorf("machine saw %d messages, want 1", probe.st.Msgs)
	}
	var fences int
	for _, r := range p.Scroll().Records() {
		if r.Kind == scroll.KindCustom && r.MsgID == dsim.EpochFenceMsgID {
			fences++
		}
	}
	if fences != 1 {
		t.Errorf("fenced delivery left %d fence records, want 1", fences)
	}
	if s.epochFences.Load() != 1 {
		t.Errorf("epochFences = %d, want 1", s.epochFences.Load())
	}
}

// TestLiveIncarnationFenceTimer: a timer fire carrying a previous
// incarnation's generation is fenced — the restore re-armed the
// checkpointed timers itself, and the orphaned time.AfterFunc cannot be
// recalled.
func TestLiveIncarnationFenceTimer(t *testing.T) {
	s, err := NewLive(LiveConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	probe := &fenceProbe{}
	s.AddProcess("w", probe)
	s.mu.Lock()
	p := s.procs["w"]
	s.mu.Unlock()

	p.handle(liveEvent{kind: levTimer, timer: "tick", gen: 0})
	if probe.st.Timers != 1 {
		t.Fatal("current-incarnation timer did not fire")
	}
	p.mu.Lock()
	p.incarnation++ // what any restore does
	p.mu.Unlock()
	p.handle(liveEvent{kind: levTimer, timer: "tick", gen: 0})
	if probe.st.Timers != 1 {
		t.Errorf("stale-incarnation timer fired (count %d)", probe.st.Timers)
	}
	if s.epochFences.Load() != 1 {
		t.Errorf("epochFences = %d, want 1", s.epochFences.Load())
	}
}

// TestLiveRestartWithoutCheckpointFencesTimers: a restart with no
// checkpoint re-runs Init as a new incarnation, so a fire the crashed
// incarnation armed is fenced rather than handed to the new one, and a
// later checkpoint does not list the dead timer as pending.
func TestLiveRestartWithoutCheckpointFencesTimers(t *testing.T) {
	s, err := NewLive(LiveConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	probe := &fenceProbe{}
	s.AddProcess("w", probe)
	s.mu.Lock()
	p := s.procs["w"]
	s.mu.Unlock()

	p.mu.Lock()
	p.pendingTimers = append(p.pendingTimers, "tick") // armed by incarnation 0
	p.mu.Unlock()
	p.handle(liveEvent{kind: levCrash})
	p.handle(liveEvent{kind: levRestart}) // no checkpoint: re-Init
	p.handle(liveEvent{kind: levTimer, timer: "tick", gen: 0})
	if probe.st.Timers != 0 {
		t.Errorf("the crashed incarnation's timer fired into the restarted one (%d fires)", probe.st.Timers)
	}
	if s.epochFences.Load() != 1 {
		t.Errorf("epochFences = %d, want 1", s.epochFences.Load())
	}
	p.mu.Lock()
	ck := p.takeCheckpointLocked("probe")
	p.mu.Unlock()
	if len(ck.Timers) != 0 {
		t.Errorf("checkpoint after the restart lists pending timers %v, want none", ck.Timers)
	}
}

// TestLiveControlInjectionsReleaseInTickOrder drives the release step
// directly, with no clock: however the injections were armed and however
// late the one wake-up comes, a process's event loop receives its control
// events in (tick, arm order). A restart handled before its crash no-ops
// and leaves the process down for the rest of the run; a rollback handled
// after the crash scheduled behind it no-ops on a crashed anchor and the
// epoch never advances — both seen on the live storm tests under load when
// every injection had a timer of its own.
func TestLiveControlInjectionsReleaseInTickOrder(t *testing.T) {
	s, err := NewLive(LiveConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	// Processes with an inbox and no event loop: what is posted stays put.
	procs := map[string]*liveProc{}
	for _, id := range []string{"p", "q"} {
		procs[id] = &liveProc{Kernel: dsim.NewKernel(id, nil, nil, nil), sub: s, events: make(chan liveEvent, 8)}
	}
	s.mu.Lock()
	s.procs = procs
	s.mu.Unlock()

	const at = 9
	s.Inject(fault.Injection{Kind: fault.Restart, Proc: "p", At: at + 1}) // armed before its crash
	s.Inject(fault.Injection{Kind: fault.Crash, Proc: "p", At: at})
	s.Inject(fault.Injection{Kind: fault.Crash, Proc: "q", At: at + 4})
	s.Inject(fault.Injection{Kind: fault.Rollback, Proc: "q", At: at})
	s.Inject(fault.Injection{Kind: fault.Restart, Proc: "q", At: at + 4}) // same tick as the crash: arm order
	s.Inject(fault.Injection{Kind: fault.Crash, Proc: "p", At: at + 5})   // not due yet
	if s.idle() {
		t.Error("substrate idle with control injections pending")
	}

	s.releaseDue(at + 4) // one late wake-up for all of it
	want := map[string][]int{
		"p": {levCrash, levRestart},
		"q": {levRollback, levCrash, levRestart},
	}
	for id, kinds := range want {
		var got []int
		for len(procs[id].events) > 0 {
			got = append(got, (<-procs[id].events).kind)
		}
		if !slices.Equal(got, kinds) {
			t.Errorf("%s received control events %v, want %v", id, got, kinds)
		}
	}
	s.releaseDue(at + 5)
	if got := len(procs["p"].events); got != 1 {
		t.Errorf("after tick %d p holds %d events, want the one late crash", at+5, got)
	}
	s.mu.Lock()
	left := len(s.ctl)
	s.mu.Unlock()
	if left != 0 {
		t.Errorf("%d control injections never released", left)
	}
}

// initOrder sends one message to last from Init, and counts the messages it
// was handed before its own Init ran.
type initOrder struct {
	st struct {
		Inited bool
		Early  int
	}
	last string
}

func (m *initOrder) State() any { return &m.st }
func (m *initOrder) Init(ctx dsim.Context) {
	m.st.Inited = true
	ctx.Send(m.last, []byte("hello"))
}
func (m *initOrder) OnMessage(dsim.Context, string, []byte) {
	if !m.st.Inited {
		m.st.Early++
	}
}
func (m *initOrder) OnTimer(dsim.Context, string)               {}
func (m *initOrder) OnRollback(dsim.Context, dsim.RollbackInfo) {}

// TestLiveInitPrecedesDeliveries: as on the simulator, every process runs
// Init before it is handed any message, however early its peers got going.
// The last process is started last and written to by all the others; when
// traffic could overtake its Init, its init checkpoint already reflected
// sends no peer checkpoint remembered, and a loaded run was left without
// any consistent recovery line (the injected rollback of the live storm
// tests then had nothing to restore).
func TestLiveInitPrecedesDeliveries(t *testing.T) {
	for round := 0; round < 4; round++ {
		s, err := NewLive(LiveConfig{})
		if err != nil {
			t.Fatal(err)
		}
		ms := make([]*initOrder, 32)
		last := fmt.Sprintf("p%02d", len(ms)-1)
		for i := range ms {
			ms[i] = &initOrder{last: last}
			s.AddProcess(fmt.Sprintf("p%02d", i), ms[i])
		}
		s.Run()
		s.Close()
		for i, m := range ms {
			if m.st.Early > 0 || !m.st.Inited {
				t.Fatalf("round %d: p%02d inited=%v after %d early deliveries", round, i, m.st.Inited, m.st.Early)
			}
		}
	}
}
