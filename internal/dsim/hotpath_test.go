package dsim

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"testing"
	"unsafe"

	"repro/internal/scroll"
)

// The hot-path overhaul (typed event queue, pooled arenas, gfsr source,
// shared clock snapshots) must be invisible in every observable output.
// These tests pin the equivalences the chaos engine depends on.

// gfsrSeeds are the seeds the source is checked on: small, negative, past
// 2³¹, both sides of the modulus (2³¹−1 reduces to the zero seed's
// substitute), and the int64 extremes.
var gfsrSeeds = []int64{0, 1, 2, 42, -7, 1 << 40, 2147483647, -2147483647, math.MinInt64, math.MaxInt64}

// drawsMatch draws n values from got and want, cycling through the drawing
// methods dsim uses, and reports the first difference.
func drawsMatch(t *testing.T, tag string, got, want *rand.Rand, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		var g, w any
		switch i % 4 {
		case 0:
			g, w = got.Uint64(), want.Uint64()
		case 1:
			g, w = got.Int63n(97), want.Int63n(97)
		case 2:
			g, w = got.Float64(), want.Float64()
		case 3:
			g, w = got.Int63(), want.Int63()
		}
		if g != w {
			t.Fatalf("%s draw %d: %v != %v", tag, i, g, w)
		}
	}
}

// TestGFSRMatchesStdlib: the lazily seeded source must be bit-exact with
// math/rand's default source. 2,000 draws read every register word once
// while it is still built lazily and again after it has been overwritten;
// reseeding mid-stream — the path Sim.Reset and the chaos generator take —
// must forget whatever the previous seed had built, however far it got.
func TestGFSRMatchesStdlib(t *testing.T) {
	src := &gfsrSource{}
	got := rand.New(src)
	for _, seed := range gfsrSeeds {
		src.Seed(seed)
		drawsMatch(t, fmt.Sprintf("seed %d", seed), got, rand.New(rand.NewSource(seed)), 2000)
	}
	for i, seed := range gfsrSeeds {
		next := gfsrSeeds[(i+1)%len(gfsrSeeds)]
		for _, cut := range []int{0, 1, 5, 300, 606, 607, 608, 1500} {
			src.Seed(seed)
			drawsMatch(t, fmt.Sprintf("seed %d", seed), got, rand.New(rand.NewSource(seed)), cut)
			src.Seed(next)
			drawsMatch(t, fmt.Sprintf("seed %d after %d draws of seed %d", next, cut, seed), got, rand.New(rand.NewSource(next)), 2000)
		}
	}
}

// TestReseedableRand: Reseed rewinds to the exact stdlib stream, and a
// reseed plus the handful of draws a short run makes allocates nothing.
func TestReseedableRand(t *testing.T) {
	r := NewReseedableRand()
	for i := 0; i < 3; i++ {
		r.Reseed(99)
		want := rand.New(rand.NewSource(99))
		for j := 0; j < 50; j++ {
			if g, w := r.Uint64(), want.Uint64(); g != w {
				t.Fatalf("reseed %d draw %d: %d != %d", i, j, g, w)
			}
		}
	}
	seed := int64(0)
	if allocs := testing.AllocsPerRun(100, func() {
		seed++
		r.Reseed(seed)
		for range 6 {
			r.Uint64()
		}
	}); allocs != 0 {
		t.Fatalf("Reseed plus 6 draws allocates %v times, want 0", allocs)
	}
}

// BenchmarkReseed: one reseed plus the 6 draws of a typical generated
// scenario, on a fresh seed each time.
func BenchmarkReseed(b *testing.B) {
	r := NewReseedableRand()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.Reseed(int64(i))
		for range 6 {
			r.Uint64()
		}
	}
}

// chattyRun drives a timer+message workload with checkpoints — enough
// machinery to exercise the event queue, the clock snapshots, the timer
// caches and the checkpoint store.
func chattyRun(s *Sim) (Stats, string) {
	a, b := newPingPair(12)
	s.AddProcess("a", a)
	s.AddProcess("b", b)
	s.AddProcess("t", &tickerMachine{fires: 6})
	stats := s.Run()
	return stats, scroll.Digest(s.MergedScroll())
}

// tickerMachine re-arms a timer a fixed number of times, reading the clock
// and drawing randomness so Time/Random records hit the payload arena.
type tickerMachine struct {
	st    struct{ Fired int }
	fires int
}

func (m *tickerMachine) State() any                        { return &m.st }
func (m *tickerMachine) Init(ctx Context)                  { ctx.SetTimer("tick", 3) }
func (m *tickerMachine) OnMessage(Context, string, []byte) {}
func (m *tickerMachine) OnTimer(ctx Context, name string) {
	m.st.Fired++
	ctx.Now()
	ctx.Random()
	if m.st.Fired < m.fires {
		ctx.SetTimer("tick", 3)
	}
}
func (m *tickerMachine) OnRollback(Context, RollbackInfo) {}

// TestResetEquivalence: a Reset simulation must be observationally
// identical to a fresh one — stats and merged-scroll digest — for the same
// seed and machines, including when the Reset changes seed and config, and
// when the arena previously ran a completely different process set.
func TestResetEquivalence(t *testing.T) {
	PoisonRewound(t)
	cfgA := Config{Seed: 3, CheckpointEvery: 4, InitCheckpoint: true}
	cfgB := Config{Seed: 9, MinLatency: 2, MaxLatency: 7, CICheckpoint: true}

	fresh := func(cfg Config) (Stats, string) { return chattyRun(New(cfg)) }
	wantStatsA, wantDigA := fresh(cfgA)
	wantStatsB, wantDigB := fresh(cfgB)

	arena := New(cfgB)
	arena.AddProcess("other", &tickerMachine{fires: 3}) // different shape first
	arena.Run()
	for i := 0; i < 3; i++ {
		arena.Reset(cfgA)
		if stats, dig := chattyRun(arena); stats != wantStatsA || dig != wantDigA {
			t.Fatalf("reset run %d (cfgA): stats/digest diverged from fresh sim\n got %+v %s\nwant %+v %s",
				i, stats, dig, wantStatsA, wantDigA)
		}
		arena.Reset(cfgB)
		if stats, dig := chattyRun(arena); stats != wantStatsB || dig != wantDigB {
			t.Fatalf("reset run %d (cfgB): stats/digest diverged from fresh sim\n got %+v %s\nwant %+v %s",
				i, stats, dig, wantStatsB, wantDigB)
		}
	}
}

// TestStepMonitorEarlyExit: the monitor halts the run at its cadence and
// attributes the halt on Stats.EarlyExit; without a monitor the same run
// drains normally.
func TestStepMonitorEarlyExit(t *testing.T) {
	s := New(Config{Seed: 1})
	full, _ := chattyRun(s)
	if full.EarlyExit {
		t.Fatal("unmonitored run reported EarlyExit")
	}

	s = New(Config{Seed: 1})
	calls := 0
	s.SetStepMonitor(4, func() bool {
		calls++
		return calls >= 3 // trip on the third check, i.e. step 12
	})
	stats, _ := chattyRun(s)
	if !stats.EarlyExit {
		t.Fatal("monitored run did not report EarlyExit")
	}
	if stats.Steps != 12 {
		t.Fatalf("early exit at step %d, want 12 (cadence 4, tripped on check 3)", stats.Steps)
	}
	if stats.Steps >= full.Steps {
		t.Fatalf("early exit did not save steps: %d >= %d", stats.Steps, full.Steps)
	}
}

// TestWarmArenaAllocs bounds the whole per-run allocation count of a warm
// Reset arena. The floor is semantic — machine construction and what the
// machines themselves allocate — and sits far below the fresh-simulation
// path, which pays maps, heaps, scroll buffers and slab chunks every run.
// Message IDs, send bodies, record payloads and clock snapshots are not
// part of it: they come out of the intern tables and the run-scoped slabs
// Reset rewinds. This configuration takes no checkpoints
// (TestCheckpointStateAllocs bounds those, at zero). Re-measured at 26 (78
// while Reset dropped the slabs and every send rendered its ID and copied
// its body); the ceiling is that floor plus 10 %.
func TestWarmArenaAllocs(t *testing.T) {
	cfg := Config{Seed: 5}
	arena := New(cfg)
	run := func() {
		arena.Reset(cfg)
		a, b := newPingPair(12)
		arena.AddProcess("a", a)
		arena.AddProcess("b", b)
		arena.AddProcess("t", &tickerMachine{fires: 6})
		arena.Run()
	}
	run() // warm the arena

	if allocs := testing.AllocsPerRun(10, run); allocs > 28 {
		t.Fatalf("warm arena allocates %.0f times per run; want <= 28 (per-run pooling has regressed)", allocs)
	}
}

// TestAlternatingProcessSetsAllocs: a pooled simulation whose runs alternate
// between two process sets — one arena serving two applications' runs, as
// the fleet's interleaved leases have it — allocates per pair of runs what
// two simulations that each repeat one set allocate together. A recycled
// process's clock brings the table of the set it last ran in, so switching
// sets builds no clock table and re-homes no clock.
func TestAlternatingProcessSetsAllocs(t *testing.T) {
	cfg := Config{Seed: 5}
	pings := func(s *Sim) {
		s.Reset(cfg)
		a, b := newPingPair(12)
		s.AddProcess("a", a)
		s.AddProcess("b", b)
		s.Run()
	}
	tickers := func(s *Sim) {
		s.Reset(cfg)
		s.AddProcess("t", &tickerMachine{fires: 6})
		s.AddProcess("u", &tickerMachine{fires: 6})
		s.AddProcess("v", &tickerMachine{fires: 6})
		s.Run()
	}
	ping, tick, both := New(cfg), New(cfg), New(cfg)
	pings(ping)
	tickers(tick)
	pings(both)
	tickers(both) // every arena warm
	repeated := testing.AllocsPerRun(10, func() { pings(ping) }) + testing.AllocsPerRun(10, func() { tickers(tick) })
	alternating := testing.AllocsPerRun(10, func() { pings(both); tickers(both) })
	if alternating != repeated {
		t.Errorf("alternating two process sets allocates %.0f times a pair of runs, repeating each %.0f: switching sets rebuilds clock tables",
			alternating, repeated)
	}
}

// TestMsgIDAllocatesPerBlock: inside the intern table a message ID is free
// once rendered; past it, IDs are carved from blocks of text — a thousand of
// them cost a handful of blocks, not an allocation each (the twin of
// checkpoint.TestAssignedIDAllocatesOnlyTheID).
func TestMsgIDAllocatesPerBlock(t *testing.T) {
	s := New(Config{})
	for n := uint64(1); n <= maxInternedMsgIDs; n++ {
		s.msgID(n)
	}
	if got := s.msgID(maxInternedMsgIDs + 7); got != "m1031" {
		t.Fatalf("msgID = %q", got)
	}
	if n := testing.AllocsPerRun(100, func() { s.msgID(9) }); n != 0 {
		t.Errorf("interned ID: %v allocations, want 0", n)
	}
	const ids = 1000
	n := uint64(maxInternedMsgIDs)
	got := testing.AllocsPerRun(1, func() {
		for range ids {
			n++
			s.msgID(n)
		}
	})
	if got > ids/64 {
		t.Errorf("%d IDs past the intern table: %v allocations, want at most %d", ids, got, ids/64)
	}
}

// TestMsgIDsOutliveReset: message IDs leave the run that rendered them
// (inside scroll records copied into RunResults and artifacts), so neither
// later sends nor Reset may touch one — interned or carved past the table.
func TestMsgIDsOutliveReset(t *testing.T) {
	PoisonRewound(t)
	s := New(Config{})
	var got []string
	for n := uint64(1); n <= maxInternedMsgIDs+300; n++ {
		got = append(got, s.msgID(n))
	}
	s.Reset(Config{})
	for n := uint64(1); n <= 10_000; n++ {
		s.msgID(n)
	}
	s.Reset(Config{})
	for i, id := range got {
		if want := "m" + strconv.Itoa(i+1); id != want {
			t.Fatalf("ID %d reads %q after 10k more and two Resets, want %q", i+1, id, want)
		}
	}
}

// Every queued message and timer is an event, copied into the queue and out
// of it, so its size is what each one costs a run. A message carries its
// send's scroll position, from which its delivery decides speculative
// absorption, not a list of the speculations its sender was in.
func TestEventSizeDoesNotGrow(t *testing.T) {
	if got := unsafe.Sizeof(event{}); got > 160 {
		t.Errorf("unsafe.Sizeof(event{}) = %d, want <= 160", got)
	}
}
