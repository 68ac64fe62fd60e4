package dsim

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/inject"
	"repro/internal/scroll"
	"repro/internal/vclock"
)

// pingpong bounces a counter between two processes until Limit rounds.
type pingpongState struct {
	Count int
	Done  bool
}

type pingpong struct {
	st     pingpongState
	peer   string
	opener bool
	limit  int
}

func (m *pingpong) State() any { return &m.st }

func (m *pingpong) Init(ctx Context) {
	if m.opener {
		ctx.Send(m.peer, []byte{0})
	}
}

func (m *pingpong) OnMessage(ctx Context, from string, payload []byte) {
	m.st.Count++
	if m.st.Count >= m.limit {
		m.st.Done = true
		return
	}
	ctx.Send(from, []byte{byte(m.st.Count)})
}

func (m *pingpong) OnTimer(Context, string)          {}
func (m *pingpong) OnRollback(Context, RollbackInfo) {}

func newPingPair(limit int) (*pingpong, *pingpong) {
	a := &pingpong{peer: "b", opener: true, limit: limit}
	b := &pingpong{peer: "a", limit: limit}
	return a, b
}

func TestPingPongDelivery(t *testing.T) {
	s := New(Config{Seed: 1})
	a, b := newPingPair(6)
	s.AddProcess("a", a)
	s.AddProcess("b", b)
	stats := s.Run()
	// Deliveries alternate b,a,b,a,...; the opener's peer reaches the limit
	// first, after 2*limit-1 total deliveries.
	if got := a.st.Count + b.st.Count; got != 11 {
		t.Errorf("total count = %d, want 11", got)
	}
	if stats.Delivered != 11 {
		t.Errorf("delivered = %d, want 11", stats.Delivered)
	}
	if !a.st.Done && !b.st.Done {
		t.Error("neither side finished")
	}
}

func TestDeterminismSameSeed(t *testing.T) {
	run := func() ([]scroll.Record, string) {
		s := New(Config{Seed: 42, MaxLatency: 20})
		a, b := newPingPair(10)
		s.AddProcess("a", a)
		s.AddProcess("b", b)
		s.Run()
		return s.MergedScroll(), fmt.Sprintf("%+v%+v", a.st, b.st)
	}
	recs1, st1 := run()
	recs2, st2 := run()
	if st1 != st2 {
		t.Fatalf("final states differ: %s vs %s", st1, st2)
	}
	if len(recs1) != len(recs2) {
		t.Fatalf("scroll lengths differ: %d vs %d", len(recs1), len(recs2))
	}
	for i := range recs1 {
		if recs1[i].Proc != recs2[i].Proc || recs1[i].Kind != recs2[i].Kind ||
			recs1[i].Lamport != recs2[i].Lamport || recs1[i].MsgID != recs2[i].MsgID {
			t.Fatalf("record %d differs: %+v vs %+v", i, recs1[i], recs2[i])
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	final := func(seed int64) uint64 {
		s := New(Config{Seed: seed, MaxLatency: 50})
		a, b := newPingPair(10)
		s.AddProcess("a", a)
		s.AddProcess("b", b)
		s.Run()
		// The message ordering itself is the same here (sequential
		// ping-pong), so compare virtual completion times instead.
		return s.Now()
	}
	if final(1) == final(2) {
		t.Skip("seeds coincided; latency draw happened to match")
	}
}

// timerMachine counts timer fires.
type timerMachine struct {
	st struct{ Fires int }
}

func (m *timerMachine) State() any { return &m.st }
func (m *timerMachine) Init(ctx Context) {
	ctx.SetTimer("tick", 5)
	ctx.SetTimer("tock", 10)
}
func (m *timerMachine) OnMessage(Context, string, []byte) {}
func (m *timerMachine) OnTimer(ctx Context, name string) {
	m.st.Fires++
	if name == "tick" && m.st.Fires < 4 {
		ctx.SetTimer("tick", 5)
	}
}
func (m *timerMachine) OnRollback(Context, RollbackInfo) {}

func TestTimers(t *testing.T) {
	s := New(Config{Seed: 1})
	m := &timerMachine{}
	s.AddProcess("t", m)
	stats := s.Run()
	if m.st.Fires != 4 { // tick at 5,10,15 (3 fires, stops at 4 incl tock) + tock at 10
		t.Errorf("fires = %d, want 4", m.st.Fires)
	}
	if stats.TimerFires != 4 {
		t.Errorf("stats.TimerFires = %d", stats.TimerFires)
	}
}

// counter machine: receives "inc" messages, writes its count into the heap,
// checkpoints at a threshold, and reports a fault at a trigger value.
type counterState struct {
	Count    int
	Alt      bool // set when taking the alternate path after rollback
	Rolledby string
}

type counterMachine struct {
	st         counterState
	ckptAt     int
	faultAt    int
	haltAfter  int
	checkpoint string
}

func (m *counterMachine) State() any   { return &m.st }
func (m *counterMachine) Init(Context) {}

func (m *counterMachine) OnMessage(ctx Context, from string, payload []byte) {
	m.st.Count++
	ctx.Heap().WriteUint64(0, uint64(m.st.Count))
	if m.ckptAt > 0 && m.st.Count == m.ckptAt {
		m.checkpoint = ctx.Checkpoint("manual")
	}
	if m.faultAt > 0 && m.st.Count == m.faultAt {
		ctx.Fault(fmt.Sprintf("count reached %d", m.st.Count))
	}
	if m.haltAfter > 0 && m.st.Count >= m.haltAfter {
		ctx.Halt()
	}
}

func (m *counterMachine) OnTimer(Context, string) {}
func (m *counterMachine) OnRollback(ctx Context, info RollbackInfo) {
	m.st.Alt = true
	m.st.Rolledby = info.Reason
}

// driver sends n inc messages to a target at Init.
type driver struct {
	st     struct{ Sent int }
	target string
	n      int
}

func (d *driver) State() any { return &d.st }
func (d *driver) Init(ctx Context) {
	for i := 0; i < d.n; i++ {
		ctx.Send(d.target, []byte("inc"))
		d.st.Sent++
	}
}
func (d *driver) OnMessage(Context, string, []byte) {}
func (d *driver) OnTimer(Context, string)           {}
func (d *driver) OnRollback(Context, RollbackInfo)  {}

func TestManualCheckpointAndRollbackTo(t *testing.T) {
	s := New(Config{Seed: 3})
	c := &counterMachine{ckptAt: 4}
	s.AddProcess("ctr", c)
	s.AddProcess("drv", &driver{target: "ctr", n: 10})
	s.Run()
	if c.st.Count != 10 {
		t.Fatalf("count = %d, want 10", c.st.Count)
	}
	ck := s.Store().Latest("ctr")
	if ck == nil {
		t.Fatal("no checkpoint stored")
	}
	if err := s.RollbackTo(map[string]string{"ctr": ck.ID}); err != nil {
		t.Fatal(err)
	}
	if c.st.Count != 4 {
		t.Errorf("count after rollback = %d, want 4", c.st.Count)
	}
	if got := s.Heap("ctr").ReadUint64(0); got != 4 {
		t.Errorf("heap after rollback = %d, want 4", got)
	}
	if !c.st.Alt || c.st.Rolledby != "time machine rollback" {
		t.Errorf("OnRollback not signaled: %+v", c.st)
	}
	// Scroll truncated to the checkpoint position.
	if got := uint64(s.Scroll("ctr").Len()); got != ck.ScrollSeq {
		t.Errorf("scroll len = %d, want %d", got, ck.ScrollSeq)
	}
}

func TestRollbackToUnknownCheckpoint(t *testing.T) {
	s := New(Config{Seed: 1})
	s.AddProcess("x", &counterMachine{})
	if err := s.RollbackTo(map[string]string{"x": "ghost"}); err == nil {
		t.Error("want error for unknown checkpoint")
	}
}

func TestFaultHandlerStopsSim(t *testing.T) {
	s := New(Config{Seed: 1})
	c := &counterMachine{faultAt: 3}
	s.AddProcess("ctr", c)
	s.AddProcess("drv", &driver{target: "ctr", n: 10})
	var seen []FaultRecord
	s.SetFaultHandler(func(f FaultRecord) bool {
		seen = append(seen, f)
		return true
	})
	s.Run()
	if len(seen) != 1 || seen[0].Proc != "ctr" {
		t.Fatalf("faults = %+v", seen)
	}
	if c.st.Count != 3 {
		t.Errorf("count = %d, want 3 (stopped at fault)", c.st.Count)
	}
	if len(s.Faults()) != 1 {
		t.Errorf("Faults() = %v", s.Faults())
	}
}

func TestCICheckpointPolicy(t *testing.T) {
	s := New(Config{Seed: 1, CICheckpoint: true})
	c := &counterMachine{}
	s.AddProcess("ctr", c)
	s.AddProcess("drv", &driver{target: "ctr", n: 5})
	stats := s.Run()
	// One checkpoint before each of the 5 deliveries.
	if stats.Checkpoints != 5 {
		t.Errorf("checkpoints = %d, want 5", stats.Checkpoints)
	}
	if got := len(s.Store().List("ctr")); got != 5 {
		t.Errorf("stored = %d, want 5", got)
	}
}

func TestPeriodicCheckpointPolicy(t *testing.T) {
	s := New(Config{Seed: 1, CheckpointEvery: 3})
	c := &counterMachine{}
	s.AddProcess("ctr", c)
	s.AddProcess("drv", &driver{target: "ctr", n: 9})
	s.Run()
	// ctr is index 0 (sorted: ctr < drv -> "ctr","drv"): skew 0, so
	// checkpoints after deliveries 3, 6, 9.
	if got := len(s.Store().List("ctr")); got != 3 {
		t.Errorf("stored = %d, want 3", got)
	}
}

func TestCrashAndRestartFromCheckpoint(t *testing.T) {
	s := New(Config{Seed: 5, MinLatency: 1, MaxLatency: 1})
	c := &counterMachine{ckptAt: 3}
	s.AddProcess("ctr", c)
	s.AddProcess("drv", &driver{target: "ctr", n: 6}) // deliveries at t=1..~6
	s.Inject(inject.Injection{Kind: inject.Crash, Proc: "ctr", At: 4})
	s.Inject(inject.Injection{Kind: inject.Restart, Proc: "ctr", At: 100})
	stats := s.Run()
	if stats.Crashes != 1 || stats.Restarts != 1 {
		t.Fatalf("stats = %+v", stats)
	}
	// After restart the counter resumes from the checkpoint (count=3);
	// messages in flight during the crash were dropped.
	if !c.st.Alt {
		t.Error("restart should signal OnRollback")
	}
	if c.st.Count != 3 {
		t.Errorf("count = %d, want 3 (restored)", c.st.Count)
	}
}

// initTimer arms one timer from Init and counts its Init runs and fires.
type initTimer struct {
	st struct{ Inits, Fires int }
}

func (m *initTimer) State() any { return &m.st }
func (m *initTimer) Init(ctx Context) {
	m.st.Inits++
	ctx.SetTimer("t", 100)
}
func (m *initTimer) OnMessage(Context, string, []byte) {}
func (m *initTimer) OnTimer(Context, string)           { m.st.Fires++ }
func (m *initTimer) OnRollback(Context, RollbackInfo)  {}

// TestRestartWithoutCheckpointKillsTimers: a restart with no checkpoint to
// restore re-runs Init, which arms the timer afresh; the one the crashed
// incarnation armed must not fire into the new incarnation as well.
func TestRestartWithoutCheckpointKillsTimers(t *testing.T) {
	s := New(Config{Seed: 1})
	m := &initTimer{}
	s.AddProcess("p", m)
	s.Inject(inject.Injection{Kind: inject.Crash, Proc: "p", At: 10})
	s.Inject(inject.Injection{Kind: inject.Restart, Proc: "p", At: 20})
	stats := s.Run()
	if m.st.Inits != 2 || m.st.Fires != 1 || stats.TimerFires != 1 {
		t.Errorf("Init ran %d times and OnTimer %d (%d timer fires), want 2 and 1", m.st.Inits, m.st.Fires, stats.TimerFires)
	}
	if s.Now() != 120 {
		t.Errorf("run ended at %d, want 120 (the restarted incarnation's timer)", s.Now())
	}
}

// wholeRun is a rule of the given kind and probability over every virtual
// tick: loss and duplication the way the chaos matrix injects them.
func wholeRun(kind inject.Kind, p float64) inject.Injection {
	return inject.Injection{Kind: kind, Prob: p, Until: math.MaxUint64}
}

func TestDropRate(t *testing.T) {
	s := New(Config{Seed: 7})
	s.Inject(wholeRun(inject.Drop, 1))
	c := &counterMachine{}
	s.AddProcess("ctr", c)
	s.AddProcess("drv", &driver{target: "ctr", n: 5})
	stats := s.Run()
	if stats.Delivered != 0 {
		t.Errorf("delivered = %d, want 0", stats.Delivered)
	}
	if stats.Dropped != 5 {
		t.Errorf("dropped = %d, want 5", stats.Dropped)
	}
	// Sends are still in the scroll (in-transit semantics).
	sends := 0
	for _, r := range s.Scroll("drv").Records() {
		if r.Kind == scroll.KindSend {
			sends++
		}
	}
	if sends != 5 {
		t.Errorf("send records = %d, want 5", sends)
	}
}

func TestPartition(t *testing.T) {
	s := New(Config{Seed: 1, MinLatency: 1, MaxLatency: 1})
	c := &counterMachine{}
	s.AddProcess("ctr", c)
	s.AddProcess("drv", &driver{target: "ctr", n: 4}) // all delivered at t=1
	s.Inject(inject.Injection{Kind: inject.Partition, Group: []string{"drv"}, At: 0, Until: 100})
	stats := s.Run()
	if stats.Delivered != 0 || stats.Dropped != 4 {
		t.Errorf("stats = %+v, want all dropped", stats)
	}
}

func TestDupRate(t *testing.T) {
	s := New(Config{Seed: 9})
	s.Inject(wholeRun(inject.Duplicate, 1))
	c := &counterMachine{}
	s.AddProcess("ctr", c)
	s.AddProcess("drv", &driver{target: "ctr", n: 3})
	stats := s.Run()
	if stats.Delivered != 6 {
		t.Errorf("delivered = %d, want 6 (all duplicated)", stats.Delivered)
	}
	if c.st.Count != 6 {
		t.Errorf("count = %d", c.st.Count)
	}
}

func TestHalt(t *testing.T) {
	s := New(Config{Seed: 1})
	c := &counterMachine{haltAfter: 2}
	s.AddProcess("ctr", c)
	s.AddProcess("drv", &driver{target: "ctr", n: 10})
	stats := s.Run()
	if c.st.Count != 2 {
		t.Errorf("count = %d, want 2", c.st.Count)
	}
	if stats.Delivered != 2 {
		t.Errorf("delivered = %d, want 2", stats.Delivered)
	}
}

func TestDuplicateProcessPanics(t *testing.T) {
	s := New(Config{})
	s.AddProcess("x", &counterMachine{})
	defer func() {
		if recover() == nil {
			t.Error("want panic on duplicate process")
		}
	}()
	s.AddProcess("x", &counterMachine{})
}

// randomUser exercises Random/Now recording.
type randomUser struct {
	st struct {
		Draws []uint64
		Times []uint64
	}
	peer string
}

func (m *randomUser) State() any { return &m.st }
func (m *randomUser) Init(ctx Context) {
	if m.peer != "" {
		ctx.Send(m.peer, []byte("go"))
	}
}
func (m *randomUser) OnMessage(ctx Context, from string, payload []byte) {
	m.st.Draws = append(m.st.Draws, ctx.Random())
	m.st.Times = append(m.st.Times, ctx.Now())
	v := ctx.Random() % 3
	ctx.Heap().WriteUint64(int(8*(len(m.st.Draws)%100)), v)
	if len(m.st.Draws) < 5 {
		ctx.Send(from, []byte("again"))
	}
}
func (m *randomUser) OnTimer(Context, string)          {}
func (m *randomUser) OnRollback(Context, RollbackInfo) {}

func TestReplayReproducesExecution(t *testing.T) {
	s := New(Config{Seed: 11})
	a := &randomUser{peer: "b"}
	b := &randomUser{}
	s.AddProcess("a", a)
	s.AddProcess("b", b)
	s.Run()

	liveHash := s.Heap("b").Hash()
	liveDraws := append([]uint64(nil), b.st.Draws...)

	fresh := &randomUser{}
	res, err := Replay("b", fresh, s.Scroll("b").Records(), 64<<10, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Diverged {
		t.Fatalf("replay diverged at %d", res.DivergeAt)
	}
	if len(fresh.st.Draws) != len(liveDraws) {
		t.Fatalf("draws = %d, want %d", len(fresh.st.Draws), len(liveDraws))
	}
	for i := range liveDraws {
		if fresh.st.Draws[i] != liveDraws[i] {
			t.Errorf("draw %d = %d, want %d", i, fresh.st.Draws[i], liveDraws[i])
		}
	}
	if res.HeapHash != liveHash {
		t.Errorf("replayed heap hash %x != live %x", res.HeapHash, liveHash)
	}
	if res.Events == 0 || res.Sends == 0 {
		t.Errorf("res = %+v", res)
	}
}

func TestReplayDetectsTamperedScroll(t *testing.T) {
	s := New(Config{Seed: 13})
	a := &randomUser{peer: "b"}
	b := &randomUser{}
	s.AddProcess("a", a)
	s.AddProcess("b", b)
	s.Run()

	recs := s.Scroll("b").Records()
	// Tamper with the second recorded random outcome (the one feeding the
	// heap write: draw%3) so the replayed heap must differ: (v+1)%3 != v%3.
	tampered := false
	seen := 0
	for i, r := range recs {
		if r.Kind == scroll.KindRandom {
			seen++
			if seen == 2 {
				v := binary.LittleEndian.Uint64(r.Payload)
				recs[i].Payload = binary.LittleEndian.AppendUint64(nil, v+1)
				tampered = true
				break
			}
		}
	}
	if !tampered {
		t.Skip("no random record to tamper")
	}
	fresh := &randomUser{}
	res, err := Replay("b", fresh, recs, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	// The +1 tampering changes a heap write only (draw%3), not sends, so
	// divergence may not be flagged — but the heap hash must differ from
	// an untampered replay.
	clean := &randomUser{}
	cleanRes, err := Replay("b", clean, s.Scroll("b").Records(), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Diverged && res.HeapHash == cleanRes.HeapHash {
		t.Error("tampering had no observable effect")
	}
}

// A time or random record whose outcome is not 8 bytes — as a log damaged on
// disk may hold — is a divergence at that record, not a panic.
func TestReplayShortOutcomeDiverges(t *testing.T) {
	s := New(Config{Seed: 11})
	s.AddProcess("a", &randomUser{peer: "b"})
	s.AddProcess("b", &randomUser{})
	s.Run()
	for _, kind := range []scroll.Kind{scroll.KindRandom, scroll.KindTime} {
		recs := s.Scroll("b").Records()
		at := slices.IndexFunc(recs, func(r scroll.Record) bool { return r.Kind == kind })
		if at < 0 {
			t.Fatalf("b recorded no %v", kind)
		}
		recs[at].Payload = []byte{1, 2, 3}
		res, err := Replay("b", &randomUser{}, recs, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Diverged || res.DivergeAt != recs[at].Seq {
			t.Errorf("%v outcome of 3 bytes at seq %d: diverged %v at %d", kind, recs[at].Seq, res.Diverged, res.DivergeAt)
		}
	}
}

func TestResumeAfterStop(t *testing.T) {
	s := New(Config{Seed: 1})
	c := &counterMachine{faultAt: 3}
	s.AddProcess("ctr", c)
	s.AddProcess("drv", &driver{target: "ctr", n: 10})
	s.SetFaultHandler(func(FaultRecord) bool { return true }) // stop at fault
	s.Run()
	if c.st.Count != 3 {
		t.Fatalf("count = %d", c.st.Count)
	}
	c.faultAt = 0 // "fix" the bug
	s.Resume()
	if c.st.Count != 10 {
		t.Errorf("count after resume = %d, want 10", c.st.Count)
	}
}

// specMachine exercises speculation absorb/abort through real messages.
type specState struct {
	Applied  int
	AltPath  bool
	SpecID   string
	Rollback string
}

type specMachine struct {
	st       specState
	peer     string
	initiate bool
}

func (m *specMachine) State() any { return &m.st }
func (m *specMachine) Init(ctx Context) {
	if m.initiate {
		id, err := ctx.Speculate("peer will accept")
		if err != nil {
			panic(err)
		}
		m.st.SpecID = id
		ctx.Send(m.peer, []byte("speculative-data"))
		ctx.SetTimer("verify", 50)
	}
}
func (m *specMachine) OnMessage(ctx Context, from string, payload []byte) {
	m.st.Applied++
	ctx.Heap().WriteUint64(0, uint64(m.st.Applied))
}
func (m *specMachine) OnTimer(ctx Context, name string) {
	if name == "verify" && m.st.SpecID != "" {
		// Assumption turns out false: abort.
		ctx.AbortSpec(m.st.SpecID, "peer rejected")
	}
}
func (m *specMachine) OnRollback(ctx Context, info RollbackInfo) {
	m.st.AltPath = true
	m.st.Rollback = info.Reason
}

func TestSpeculationAbortRollsBackBothProcesses(t *testing.T) {
	s := New(Config{Seed: 2, MinLatency: 1, MaxLatency: 1})
	init := &specMachine{peer: "recv", initiate: true}
	recv := &specMachine{}
	s.AddProcess("init", init)
	s.AddProcess("recv", recv)
	s.Run()

	// The receiver consumed the speculative message (Applied=1), then the
	// abort rolled it back to its absorption checkpoint (Applied=0).
	if recv.st.Applied != 0 {
		t.Errorf("receiver Applied = %d, want 0 after rollback", recv.st.Applied)
	}
	if got := s.Heap("recv").ReadUint64(0); got != 0 {
		t.Errorf("receiver heap = %d, want 0", got)
	}
	if !recv.st.AltPath || recv.st.Rollback != "peer rejected" {
		t.Errorf("receiver rollback info = %+v", recv.st)
	}
	if !init.st.AltPath {
		t.Error("initiator should have rolled back too")
	}
	st := s.SpeculationStats()
	if st.Aborts != 1 || st.Absorptions != 1 || st.Rollbacks != 2 {
		t.Errorf("spec stats = %+v", st)
	}
}

func TestSpeculationCommitKeepsState(t *testing.T) {
	s := New(Config{Seed: 2, MinLatency: 1, MaxLatency: 1})
	init := &specMachine{peer: "recv", initiate: true}
	recv := &specMachine{}
	// Replace abort with commit by clearing SpecID before the timer...
	// simpler: use a machine whose timer commits.
	init2 := &commitMachine{specMachine: init}
	s.AddProcess("init", init2)
	s.AddProcess("recv", recv)
	s.Run()
	if recv.st.Applied != 1 {
		t.Errorf("receiver Applied = %d, want 1 (committed)", recv.st.Applied)
	}
	if recv.st.AltPath {
		t.Error("no rollback expected on commit")
	}
}

// bystander sends init one message from a timer at 10, inside init's
// speculation but outside the speculation itself.
type bystander struct{ st struct{ Sent int } }

func (m *bystander) State() any                        { return &m.st }
func (m *bystander) Init(ctx Context)                  { ctx.SetTimer("send", 10) }
func (m *bystander) OnMessage(Context, string, []byte) {}
func (m *bystander) OnTimer(ctx Context, name string) {
	ctx.Send("init", []byte("not speculative"))
	m.st.Sent++
}
func (m *bystander) OnRollback(Context, RollbackInfo) {}

// speculationWithBystander is TestSpeculationAbortRollsBackBothProcesses's
// run with communication-induced checkpoints and a bystander: the abort at
// 50 undoes init's receive of the bystander's message at 11, and the
// checkpoint init took before it.
func speculationWithBystander() (*Sim, *specMachine) {
	s := New(Config{Seed: 2, MinLatency: 1, MaxLatency: 1, CICheckpoint: true})
	init := &specMachine{peer: "recv", initiate: true}
	s.AddProcess("init", init)
	s.AddProcess("recv", &specMachine{})
	s.AddProcess("third", &bystander{})
	return s, init
}

// TestSpeculationAbortRedeliversInTransit: a speculation abort is a
// deliberate rollback like any other, so what the line leaves in transit —
// the bystander's message, sent but no longer received — is re-delivered.
func TestSpeculationAbortRedeliversInTransit(t *testing.T) {
	s, init := speculationWithBystander()
	s.Run()
	if init.st.Applied != 1 {
		t.Errorf("init handled %d messages, want 1: the abort lost the bystander's message", init.st.Applied)
	}
	if id := orphanReceive(s.MergedScroll()); id != "" {
		t.Errorf("receive of %s has no send before it", id)
	}
}

// TestSpeculationAbortAbandonsCheckpoints: a speculation abort abandons the
// timeline past its line like any other deliberate rollback. No checkpoint
// ever lies past its process's scroll end, and a crash-restart right after
// the abort restores the checkpoint init began the speculation from, not
// one of the abandoned timeline.
func TestSpeculationAbortAbandonsCheckpoints(t *testing.T) {
	s, init := speculationWithBystander()
	s.Inject(inject.Injection{Kind: inject.Crash, Proc: "init", At: 51})
	s.Inject(inject.Injection{Kind: inject.Restart, Proc: "init", At: 51})
	s.SetStepMonitor(1, func() bool {
		for _, id := range s.Procs() {
			for _, ck := range s.Store().List(id) {
				if end := uint64(s.Scroll(id).Len()); ck.ScrollSeq > end {
					t.Errorf("at %d: %s lies at %d, past %s's scroll end %d", s.Now(), ck.ID, ck.ScrollSeq, id, end)
					return true
				}
			}
		}
		return false
	})
	s.Run()
	if st := s.Stats(); st.Restarts != 1 {
		t.Fatalf("restarts = %d, want 1", st.Restarts)
	}
	if init.st.SpecID != "" || init.st.Rollback != "crash restart" {
		t.Errorf("init after its restart = %+v, want the state from before it speculated", init.st)
	}
}

// speculatingSender speculates in Init, sends peer one message at send (0: in
// Init) and aborts its speculation at abort.
type speculatingSender struct {
	st          specState
	peer        string
	send, abort uint64
}

func (m *speculatingSender) State() any { return &m.st }
func (m *speculatingSender) Init(ctx Context) {
	id, err := ctx.Speculate("peer will accept")
	if err != nil {
		panic(err)
	}
	m.st.SpecID = id
	if m.send == 0 {
		ctx.Send(m.peer, []byte("speculative-data"))
	} else {
		ctx.SetTimer("send", m.send)
	}
	ctx.SetTimer("abort", m.abort)
}
func (m *speculatingSender) OnMessage(Context, string, []byte) { m.st.Applied++ }
func (m *speculatingSender) OnTimer(ctx Context, name string) {
	switch name {
	case "send":
		ctx.Send(m.peer, []byte("speculative-data"))
	case "abort":
		if err := ctx.AbortSpec(m.st.SpecID, "peer rejected"); err != nil {
			panic(err)
		}
	}
}
func (m *speculatingSender) OnRollback(Context, RollbackInfo) { m.st.AltPath = true }

// TestConcurrentSpeculationsRedeliverSpeculatively: x, in its speculation
// s2, sends m a message at 18 that is still in transit when a's speculation
// s1, which m joined at 5, aborts at 20. The abort re-delivers the message
// from x's scroll, and it absorbs m into s2 as the original would have; so
// s2's abort at 40, which takes x back before the send, takes m back before
// the receive.
func TestConcurrentSpeculationsRedeliverSpeculatively(t *testing.T) {
	s := New(Config{Seed: 2, MinLatency: 5, MaxLatency: 5})
	m := &specMachine{}
	s.AddProcess("a", &speculatingSender{peer: "m", abort: 20})
	s.AddProcess("m", m)
	s.AddProcess("x", &speculatingSender{peer: "m", send: 18, abort: 40})
	s.Run()
	if id := orphanReceive(s.MergedScroll()); id != "" {
		t.Errorf("receive of %s has no send before it", id)
	}
	if m.st.Applied != 0 {
		t.Errorf("m handled %d messages, want 0: both messages it received were undone with their sends", m.st.Applied)
	}
	if st := s.SpeculationStats(); st.Aborts != 2 || st.Absorptions != 2 || st.Rollbacks != 4 {
		t.Errorf("spec stats = %+v", st)
	}
}

// TestSpeculationAbortAfterRollbackPastJoin: a Time Machine rollback takes
// recv back past the checkpoint it joined init's speculation at; recv leaves
// the speculation, and the message re-delivered to it absorbs it anew. The
// abort then resolves, and rolls both processes back.
func TestSpeculationAbortAfterRollbackPastJoin(t *testing.T) {
	s := New(Config{Seed: 2, MinLatency: 1, MaxLatency: 1, InitCheckpoint: true})
	init := &specMachine{peer: "recv", initiate: true}
	recv := &specMachine{}
	s.AddProcess("init", init)
	s.AddProcess("recv", recv)
	s.SetStepMonitor(1, func() bool { return recv.st.Applied == 1 })
	s.Run()
	if recv.st.Applied != 1 {
		t.Fatalf("recv handled %d messages before the rollback, want 1", recv.st.Applied)
	}
	if err := s.RollbackTo(map[string]string{"recv": s.Store().List("recv")[0].ID}); err != nil {
		t.Fatal(err)
	}
	s.SetStepMonitor(0, nil)
	s.Resume()
	if init.st.SpecID != "" || !init.st.AltPath {
		t.Errorf("init = %+v, want rolled back to before it speculated", init.st)
	}
	if recv.st.Applied != 0 {
		t.Errorf("recv handled %d messages, want 0 after the abort", recv.st.Applied)
	}
	if st := s.SpeculationStats(); st.Aborts != 1 || st.Absorptions != 2 || st.Rollbacks != 2 {
		t.Errorf("spec stats = %+v", st)
	}
}

// commitMachine overrides the verify timer to commit instead of abort.
type commitMachine struct{ *specMachine }

func (m *commitMachine) OnTimer(ctx Context, name string) {
	if name == "verify" && m.st.SpecID != "" {
		ctx.Commit(m.st.SpecID)
	}
}

func TestTraceConsistencyOfFullRun(t *testing.T) {
	s := New(Config{Seed: 21})
	a, b := newPingPair(8)
	s.AddProcess("a", a)
	s.AddProcess("b", b)
	s.Run()
	if id := orphanReceive(s.MergedScroll()); id != "" {
		t.Errorf("receive of %s has no send that happens before it: a completed run's scrolls must be consistent", id)
	}
}

// orphanReceive returns the MsgID of the first receive in the merged scroll
// whose send is not recorded causally before it, or "" when every receive
// has its send — what makes the full cut of a run consistent.
func orphanReceive(recs []scroll.Record) string {
	sends := make(map[string]vclock.VC)
	for _, r := range recs {
		if r.Kind == scroll.KindSend {
			sends[r.MsgID] = r.Clock
		}
	}
	for _, r := range recs {
		if r.Kind != scroll.KindRecv {
			continue
		}
		if sent, ok := sends[r.MsgID]; !ok || sent.Compare(r.Clock) != vclock.Before {
			return r.MsgID
		}
	}
	return ""
}
