package dsim

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"reflect"
	"testing"

	"repro/internal/inject"
	"repro/internal/scroll"
)

// durMachine increments a durable counter on a timer cadence. Its
// serializable state mirrors the counter, so a crash-restart visibly
// rewinds the state while the durable cell must not move backwards.
type durMachine struct {
	st    struct{ Seen uint64 }
	ticks uint64
}

func (m *durMachine) State() any { return &m.st }

func (m *durMachine) Init(ctx Context) { ctx.SetTimer("tick", 2) }

func (m *durMachine) OnMessage(Context, string, []byte) {}

func (m *durMachine) OnTimer(ctx Context, name string) {
	n := durCount(ctx)
	n++
	ctx.DurablePut("n", binary.LittleEndian.AppendUint64(nil, n))
	m.st.Seen = n
	if n < m.ticks {
		ctx.SetTimer("tick", 2)
	}
}

// OnRollback recovers the authoritative counter from stable storage after
// a crash restart (the tick timer pending at the checkpoint is re-armed by
// the restore itself).
func (m *durMachine) OnRollback(ctx Context, info RollbackInfo) {
	if info.CrashRestart {
		m.st.Seen = durCount(ctx)
	}
}

func durCount(ctx Context) uint64 {
	v, ok := ctx.DurableGet("n")
	if !ok || len(v) != 8 {
		return 0
	}
	return binary.LittleEndian.Uint64(v)
}

// TestDurableSurvivesCrashRestart: the cell store is not rewound when a
// crash-restart restores the process from a checkpoint, and the machine
// can recover from it.
func TestDurableSurvivesCrashRestart(t *testing.T) {
	s := New(Config{Seed: 1, InitCheckpoint: true})
	s.AddProcess("p", &durMachine{ticks: 8})
	s.Inject(inject.Injection{Kind: inject.Crash, Proc: "p", At: 7})
	s.Inject(inject.Injection{Kind: inject.Restart, Proc: "p", At: 12})
	stats := s.Run()
	if stats.Crashes != 1 || stats.Restarts != 1 {
		t.Fatalf("crashes=%d restarts=%d, want 1/1", stats.Crashes, stats.Restarts)
	}
	if stats.Rollbacks == 0 {
		t.Fatal("restart did not restore from a checkpoint")
	}
	snap := s.DurableSnapshot()
	v := snap["p"]["n"]
	if len(v) != 8 || binary.LittleEndian.Uint64(v) != 8 {
		t.Fatalf("durable counter = %v, want 8: the counter lost progress across crash-restart", v)
	}
}

// TestDurableFencedByRollbackTo: a Time-Machine rollback abandons the
// timeline it rewinds, so durable cells written after the restored
// checkpoint are fenced — invisible to reads and snapshots — and a
// crash-restart arriving later recovers the restored timeline, not the
// abandoned one. Re-execution on the new timeline revives the cells.
func TestDurableFencedByRollbackTo(t *testing.T) {
	s := New(Config{Seed: 2, InitCheckpoint: true})
	m := &durMachine{ticks: 6}
	s.AddProcess("p", m)
	s.Run()
	if m.st.Seen != 6 {
		t.Fatalf("ticks ran %d times, want 6", m.st.Seen)
	}
	if s.Epoch() != 0 {
		t.Fatalf("epoch = %d before any rollback, want 0", s.Epoch())
	}
	ck := s.Store().Latest("p") // the init checkpoint: every put came after
	if ck == nil {
		t.Fatal("no checkpoint")
	}
	if err := s.RollbackTo(map[string]string{"p": ck.ID}); err != nil {
		t.Fatal(err)
	}
	if s.Epoch() != 1 {
		t.Fatalf("epoch = %d after rollback, want 1", s.Epoch())
	}
	if snap := s.DurableSnapshot(); snap["p"] != nil {
		t.Fatalf("durable cells %v visible after deliberate rollback, want all fenced", snap["p"])
	}
	// The rollback was deliberate (not a crash restart), so the machine
	// must hold the checkpoint's state, not the durable cell's.
	var ckSt struct{ Seen uint64 }
	ckJSON, err := ck.StateJSON()
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(ckJSON, &ckSt); err != nil {
		t.Fatal(err)
	}
	if m.st.Seen != ckSt.Seen {
		t.Fatalf("state Seen=%d after time-machine rollback, want checkpoint's %d", m.st.Seen, ckSt.Seen)
	}
	// A crash-restart firing right after the rollback must recover the
	// restored timeline (counter absent), not re-install the abandoned
	// timeline's cell — the pre-epoch bug.
	s.Inject(inject.Injection{Kind: inject.Crash, Proc: "p", At: s.Now() + 1})
	s.Inject(inject.Injection{Kind: inject.Restart, Proc: "p", At: s.Now() + 2})
	s.Resume()
	if m.st.Seen < 6 {
		t.Fatalf("new timeline reached %d ticks, want the re-run to complete 6", m.st.Seen)
	}
	snap := s.DurableSnapshot()
	if v := snap["p"]["n"]; len(v) != 8 || binary.LittleEndian.Uint64(v) != m.st.Seen {
		t.Fatalf("durable counter = %v after re-execution, want %d (revived on the new timeline)", v, m.st.Seen)
	}
}

// TestDurableResetEquivalence: a Reset arena must start every run with
// empty stable storage and produce byte-identical outcomes to a fresh
// simulation — the pooled-chaos-runner contract (satellite of
// TestResetEquivalence).
func TestDurableResetEquivalence(t *testing.T) {
	PoisonRewound(t)
	cfg := Config{Seed: 5, InitCheckpoint: true}
	run := func(s *Sim) (Stats, string, map[string]map[string][]byte) {
		s.AddProcess("p", &durMachine{ticks: 8})
		s.AddProcess("q", &durMachine{ticks: 3})
		s.Inject(inject.Injection{Kind: inject.Crash, Proc: "p", At: 9})
		s.Inject(inject.Injection{Kind: inject.Restart, Proc: "p", At: 15})
		stats := s.Run()
		return stats, scroll.Digest(s.MergedScroll()), s.DurableSnapshot()
	}
	wantStats, wantDig, wantSnap := run(New(cfg))

	arena := New(cfg)
	arena.AddProcess("p", &durMachine{ticks: 5}) // dirty the arena's durable state first
	arena.Run()
	if arena.DurableSnapshot() == nil {
		t.Fatal("warm-up run wrote no durable state; the leak check below would be vacuous")
	}
	for i := 0; i < 3; i++ {
		arena.Reset(cfg)
		if snap := arena.DurableSnapshot(); snap != nil {
			t.Fatalf("reset %d: durable state leaked across Reset: %v", i, snap)
		}
		stats, dig, snap := run(arena)
		if stats != wantStats || dig != wantDig {
			t.Fatalf("reset %d: stats/digest diverged from fresh sim (durable leak changes execution)", i)
		}
		if !reflect.DeepEqual(snap, wantSnap) {
			t.Fatalf("reset %d: durable snapshot diverged from fresh sim\n got %v\nwant %v", i, snap, wantSnap)
		}
	}
}

// durChatty exercises every durable context call inside handlers so the
// scroll-replay path is covered: put, get (hit and miss), and keys.
type durChatty struct {
	st struct{ Rounds int }
}

func (m *durChatty) State() any { return &m.st }

func (m *durChatty) Init(ctx Context) { ctx.SetTimer("go", 2) }

func (m *durChatty) OnMessage(Context, string, []byte) {}

func (m *durChatty) OnTimer(ctx Context, name string) {
	if _, ok := ctx.DurableGet("missing"); ok {
		ctx.Fault("phantom cell")
	}
	ctx.DurablePut("round", []byte{byte(m.st.Rounds)})
	ctx.DurablePut("const", []byte("x"))
	if v, ok := ctx.DurableGet("round"); !ok || len(v) != 1 {
		ctx.Fault("round cell lost")
	}
	if keys := ctx.DurableKeys(); len(keys) != 2 {
		ctx.Fault("key enumeration wrong")
	}
	m.st.Rounds++
	if m.st.Rounds < 3 {
		ctx.SetTimer("go", 2)
	}
}

func (m *durChatty) OnRollback(Context, RollbackInfo) {}

// TestDurableReplay: a scroll recorded with durable operations replays the
// process without divergence (the recorded outcomes are fed back), and a
// machine writing different durable contents is caught as divergence.
func TestDurableReplay(t *testing.T) {
	s := New(Config{Seed: 3})
	s.AddProcess("p", &durChatty{})
	s.Run()
	recs := s.Scroll("p").Records()
	hasEnv := false
	for _, r := range recs {
		if r.Kind == scroll.KindEnv {
			hasEnv = true
		}
	}
	if !hasEnv {
		t.Fatal("run recorded no durable (env) records")
	}

	rep, err := Replay("p", &durChatty{}, recs, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Diverged {
		t.Fatalf("faithful replay diverged at %d", rep.DivergeAt)
	}
	if len(rep.Faults) != 0 {
		t.Fatalf("replay re-reported faults: %v", rep.Faults)
	}

	rep2, err := Replay("p", &tamperedDurChatty{}, recs, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !rep2.Diverged {
		t.Fatal("tampered durable write did not diverge")
	}
}

// tamperedDurChatty writes a different value into the "const" cell.
type tamperedDurChatty struct{ durChatty }

func (m *tamperedDurChatty) OnTimer(ctx Context, name string) {
	if _, ok := ctx.DurableGet("missing"); ok {
		ctx.Fault("phantom cell")
	}
	ctx.DurablePut("round", []byte{byte(m.st.Rounds)})
	ctx.DurablePut("const", []byte("TAMPERED"))
	m.st.Rounds++
}

// TestDurableGetEncoding pins the scroll payload round-trip the replay
// context depends on.
func TestDurableGetEncoding(t *testing.T) {
	for _, tc := range []struct {
		v  []byte
		ok bool
	}{
		{nil, false},
		{nil, true},
		{[]byte("commit"), true},
		{[]byte{0, 1, 2}, true},
	} {
		v, ok, err := DecodeDurableGet(EncodeDurableGet(tc.v, tc.ok))
		if err != nil {
			t.Fatal(err)
		}
		if ok != tc.ok || !bytes.Equal(v, tc.v) {
			t.Fatalf("round trip (%q,%v) -> (%q,%v)", tc.v, tc.ok, v, ok)
		}
	}
	if _, _, err := DecodeDurableGet(nil); err == nil {
		t.Fatal("empty durable-get payload decoded")
	}

	keys := []string{"", "a", "2pc:decision", "kv:k1"}
	got, err := DecodeDurableKeys(EncodeDurableKeys(keys))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, keys) {
		t.Fatalf("keys round trip %v -> %v", keys, got)
	}
	if _, err := DecodeDurableKeys([]byte{0xFF}); err == nil {
		t.Fatal("malformed durable-keys payload decoded")
	}
}
