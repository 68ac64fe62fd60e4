package substrate

import (
	"testing"

	"repro/internal/dsim"
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
	for _, r := range p.scroll.Records() {
		if r.Kind == scroll.KindCustom && r.MsgID == EpochFenceMsgID {
			fences++
		}
	}
	if fences != 1 {
		t.Errorf("fenced delivery left %d fence records, want 1", fences)
	}
	if s.EpochFences() != 1 {
		t.Errorf("EpochFences() = %d, want 1", s.EpochFences())
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
	if s.EpochFences() != 1 {
		t.Errorf("EpochFences() = %d, want 1", s.EpochFences())
	}
}
