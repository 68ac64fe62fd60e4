package dsim

import (
	"testing"

	"repro/internal/inject"
)

// stamper records when its handlers ran and what bytes arrived; with a
// payload set it sends them to peer on Init.
type stamper struct {
	st struct {
		MsgAt   uint64
		TimerAt uint64
		Got     string
	}
	peer    string
	payload []byte
}

func (m *stamper) State() any { return &m.st }
func (m *stamper) Init(ctx Context) {
	ctx.SetTimer("t", 5)
	if m.payload != nil {
		ctx.Send(m.peer, m.payload)
	}
}
func (m *stamper) OnMessage(ctx Context, _ string, payload []byte) {
	m.st.MsgAt = ctx.Now()
	m.st.Got = string(payload)
}
func (m *stamper) OnTimer(ctx Context, _ string)    { m.st.TimerAt = ctx.Now() }
func (m *stamper) OnRollback(Context, RollbackInfo) {}

func TestInjectCorruptMutatesReceiverCopy(t *testing.T) {
	const orig = "corruptible"
	run := func() (got string, corrupted uint64, sent string) {
		s := New(Config{Seed: 7, MinLatency: 1, MaxLatency: 3})
		buf := []byte(orig)
		b := &stamper{}
		s.AddProcess("a", &stamper{peer: "b", payload: buf})
		s.AddProcess("b", b)
		s.Inject(inject.Injection{Kind: inject.Corrupt, At: 0, Until: 1_000, Prob: 1.0})
		s.Run()
		return b.st.Got, s.Corrupted(), string(buf)
	}
	got, corrupted, sent := run()
	if got == orig {
		t.Fatal("receiver saw the original bytes under a p=1.0 corrupt rule")
	}
	if len(got) != len(orig) {
		t.Errorf("corruption changed the length: %d vs %d", len(got), len(orig))
	}
	// The mutation happened on a copy: the sender's buffer — which backs
	// its scroll record — is untouched.
	if sent != orig {
		t.Errorf("sender's payload buffer was mutated in place: %q", sent)
	}
	if corrupted != 1 {
		t.Errorf("Corrupted() = %d, want 1", corrupted)
	}
	// Corruption is seeded: a same-seed rerun produces the same lie.
	if got2, _, _ := run(); got2 != got {
		t.Errorf("same seed corrupted differently: %q vs %q", got, got2)
	}
}

func TestInjectCorruptWindowScoped(t *testing.T) {
	s := New(Config{Seed: 7, MinLatency: 1, MaxLatency: 3})
	b := &stamper{}
	s.AddProcess("a", &stamper{peer: "b", payload: []byte("safe")})
	s.AddProcess("b", b)
	s.Inject(inject.Injection{Kind: inject.Corrupt, At: 500, Until: 1_000, Prob: 1.0}) // delivery happens well before 500
	s.Run()
	if b.st.Got != "safe" {
		t.Errorf("out-of-window rule mutated the payload: %q", b.st.Got)
	}
	if s.Corrupted() != 0 {
		t.Errorf("Corrupted() = %d, want 0", s.Corrupted())
	}
}

// TestInjectSlowLagsHandlerEvents: a slow node lags everything it handles
// — inbound deliveries and its own timer fires — by exactly extra, while
// other processes (including ones it sends to) keep their baseline times.
func TestInjectSlowLagsHandlerEvents(t *testing.T) {
	run := func(extra uint64) (a, b *stamper) {
		s := New(Config{Seed: 3, MinLatency: 2, MaxLatency: 2})
		a = &stamper{peer: "b", payload: []byte("x")}
		b = &stamper{peer: "a", payload: []byte("y")}
		s.AddProcess("a", a)
		s.AddProcess("b", b)
		if extra > 0 {
			s.Inject(inject.Injection{Kind: inject.SlowNode, Proc: "b", At: 0, Until: 10_000, Extra: extra})
		}
		s.Run()
		return a, b
	}
	a0, b0 := run(0)
	const extra = 50
	a1, b1 := run(extra)
	if b1.st.MsgAt != b0.st.MsgAt+extra {
		t.Errorf("delivery to the slow node at %d, want %d", b1.st.MsgAt, b0.st.MsgAt+extra)
	}
	if b1.st.TimerAt != b0.st.TimerAt+extra {
		t.Errorf("slow node's timer fired at %d, want %d", b1.st.TimerAt, b0.st.TimerAt+extra)
	}
	// The slowdown is per-handler, not per-link: traffic FROM the slow
	// node and the other process's timers keep their baseline times.
	if a1.st.MsgAt != a0.st.MsgAt {
		t.Errorf("delivery from the slow node lagged: %d vs %d", a1.st.MsgAt, a0.st.MsgAt)
	}
	if a1.st.TimerAt != a0.st.TimerAt {
		t.Errorf("healthy node's timer lagged: %d vs %d", a1.st.TimerAt, a0.st.TimerAt)
	}
}

func TestInjectSlowWindowScoped(t *testing.T) {
	run := func(slow bool) (uint64, uint64) {
		s := New(Config{Seed: 3, MinLatency: 2, MaxLatency: 2})
		b := &stamper{}
		s.AddProcess("a", &stamper{peer: "b", payload: []byte("x")})
		s.AddProcess("b", b)
		if slow {
			s.Inject(inject.Injection{Kind: inject.SlowNode, Proc: "b", At: 500, Until: 1_000, Extra: 50}) // events all happen before 500
		}
		s.Run()
		return b.st.MsgAt, b.st.TimerAt
	}
	m0, t0 := run(false)
	m1, t1 := run(true)
	if m1 != m0 || t1 != t0 {
		t.Errorf("out-of-window slow rule shifted events: msg %d vs %d, timer %d vs %d",
			m1, m0, t1, t0)
	}
}
