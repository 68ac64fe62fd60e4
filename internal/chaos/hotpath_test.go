package chaos

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/apps"
	"repro/internal/dsim"
	"repro/internal/fault"
	"repro/internal/scroll"
)

// TestRunnerPathEquivalence: the pooled run path (per-worker arena +
// streaming fingerprints) must produce byte-identical RunResults to the
// fresh-simulation reference (RunFresh) for every registered application
// across fault kinds.
func TestRunnerPathEquivalence(t *testing.T) {
	PoisonRewound(t)
	for _, spec := range apps.Registry() {
		for _, buggy := range []bool{false, true} {
			if buggy && spec.Name == "tokenring" {
				continue // covered by TestEarlyExitEquivalence
			}
			r := Runner{Spec: spec, Buggy: buggy, Seed: 2, Probe: true}
			for _, kind := range []string{"crash", "reorder", "drop"} {
				var sched Schedule
				for _, k := range MatrixKinds {
					if k.String() == kind {
						sched = Schedule{Generate(k, r.Procs(), r.Crashable(), spec.Horizon, 2)}
					}
				}
				if sched == nil {
					t.Fatalf("kind %q not found in MatrixKinds; equivalence coverage would silently vanish", kind)
				}
				pj, _ := json.Marshal(r.Run(sched))
				wj, _ := json.Marshal(r.RunFresh(sched))
				if !bytes.Equal(pj, wj) {
					t.Fatalf("%s buggy=%v %s: pooled path diverged from the fresh reference\n pooled %s\n fresh  %s",
						spec.Name, buggy, kind, pj, wj)
				}
			}
		}
	}
}

// kvCell returns the runner and schedule of the kvstore/reorder/s2 matrix
// cell.
func kvCell(t testing.TB) (Runner, Schedule) {
	spec, err := apps.Lookup("kvstore")
	if err != nil {
		t.Fatal(err)
	}
	r := Runner{Spec: spec, Seed: 2, Probe: true}
	return r, Schedule{Generate(fault.Reorder, r.Procs(), r.Crashable(), spec.Horizon, 2)}
}

// warmKVRun returns one pooled kvstore run under a reorder schedule — the
// whole per-run path the matrix and the search pay: Spec.Make, Reset,
// Compile, the run itself and the streaming fingerprint.
func warmKVRun(t *testing.T) func() {
	r, sched := kvCell(t)
	return func() { r.Run(sched) }
}

// TestWarmRunnerAllocs bounds what one warm pooled kvstore run allocates.
// Measured 92, also under -race (97 and 99 under -race while every run built
// its sorted ID list, its invariant monitor and its scroll list; 116 while
// the schedule compiled into a fresh plan and durable writes were copied per
// cell; 412 while handlers built payloads with fmt.Sprintf and cut them with
// strings.Split; 658 while Reset dropped the run's arenas, message and
// checkpoint IDs were rendered per run and every checkpoint was its own
// objects; 955 while checkpoints and invariant checks went through
// encoding/json; 1246 with a map clone per Lamport tick on top). The
// ceiling is the floor + 10 %.
func TestWarmRunnerAllocs(t *testing.T) {
	run := warmKVRun(t)
	// The cheapest of a few single warm runs: a dropped Put of the run
	// arena itself makes the next run pay a fresh simulation.
	best := math.Inf(1)
	for i := 0; i < 256; i++ {
		best = min(best, testing.AllocsPerRun(1, run))
	}
	if limit := 101.0; best > limit {
		t.Fatalf("warm kvstore/reorder run allocates %.0f times; want <= %.0f (the pooled run path has regressed)", best, limit)
	}
}

// TestWarmCellAllocs bounds what one warm two-run matrix cell allocates,
// and holds it to no more than two pooled runs — what a cell cost while
// both of its runs were fingerprinted. Measured 182 against 2 × 92 (the
// second run's result strings saved), also under -race (193 against 2 × 97,
// and 197 under -race, while every run built its scroll list). The ceiling
// is the floor + 10 %.
func TestWarmCellAllocs(t *testing.T) {
	r, sched := kvCell(t)
	cell, run := math.Inf(1), math.Inf(1)
	for i := 0; i < 256; i++ {
		cell = min(cell, testing.AllocsPerRun(1, func() { r.runTwice(sched) }))
		run = min(run, testing.AllocsPerRun(1, func() { r.Run(sched) }))
	}
	limit := 200.0
	if cell > limit || cell > 2*run {
		t.Fatalf("warm kvstore/reorder cell allocates %.0f times; want <= %.0f and <= two runs (2 × %.0f)", cell, limit, run)
	}
}

// TestWarmCompareAllocs: comparing the scrolls of two warm simulations of
// one cell, as the matrix's determinism check does, allocates nothing.
func TestWarmCompareAllocs(t *testing.T) {
	r, sched := kvCell(t)
	a, b := r.checkout(), r.checkout()
	defer release(a)
	defer release(b)
	r.execute(sched, a)
	r.execute(sched, b)
	x, y := a.sim.Scrolls(), b.sim.Scrolls()
	if !scroll.Equal(x, y) {
		t.Fatal("two runs of one cell compare unequal")
	}
	if allocs := testing.AllocsPerRun(16, func() { scroll.Equal(x, y) }); allocs != 0 {
		t.Fatalf("comparing two runs' scrolls allocates %.1f times; want 0", allocs)
	}
}

// BenchmarkMatrixCell times one warm matrix cell, kvstore/reorder/s2: both
// runs, the first one's fingerprint and the determinism check.
func BenchmarkMatrixCell(b *testing.B) {
	r, sched := kvCell(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, ok := r.runTwice(sched); !ok {
			b.Fatal("the cell's second run diverged")
		}
	}
}

// TestWarmRunBytes bounds the bytes one warm pooled kvstore run allocates,
// so that an arena Reset drops instead of rewinds shows here and not only on
// the perf ledger: the clock-snapshot chunks alone were 15 kB a run, a
// copy-on-write page is 256 B. Measured 4,256 B (4,688 B while every run
// built its sorted ID list, its invariant monitor and its scroll list,
// 5,088 B with a plan compiled per run, 10,672 B with text-built payloads,
// 99,912 B while Reset dropped the arenas); the ceiling is that + 10 %.
func TestWarmRunBytes(t *testing.T) {
	if raceDetector {
		t.Skip("the race detector changes what allocates")
	}
	run := warmKVRun(t)
	const batch = 16
	best := uint64(math.MaxUint64)
	var before, after runtime.MemStats
	for i := 0; i < 32; i++ {
		runtime.ReadMemStats(&before)
		for range batch {
			run()
		}
		runtime.ReadMemStats(&after)
		best = min(best, (after.TotalAlloc-before.TotalAlloc)/batch)
	}
	if limit := uint64(4_681); best > limit {
		t.Fatalf("warm kvstore/reorder run allocates %d bytes; want <= %d (run-scoped memory is being dropped, not rewound)", best, limit)
	}
}

// TestWarmFaultingRunAllocs bounds a warm pooled run of the buggy bank,
// whose overdrafts report local faults: a report costs its text (the
// string the handler renders) and nothing else — its scroll payload is
// carved from the run's slab, and the runner counts reports without
// copying them. Measured 59 (64 while every run built its sorted ID list,
// its invariant monitor and its scroll list, 162 with a payload copy per
// report, Sprintf-built text, a copied fault list and a plan compiled per
// run); the ceiling is the floor + 10 %.
func TestWarmFaultingRunAllocs(t *testing.T) {
	if raceDetector {
		t.Skip("the race detector changes what allocates")
	}
	spec, err := apps.Lookup("bank")
	if err != nil {
		t.Fatal(err)
	}
	r := Runner{Spec: spec, Buggy: true, Seed: 2, Probe: true}
	sched := Schedule{Generate(fault.Reorder, r.Procs(), r.Crashable(), spec.Horizon, 2)}
	if res := r.Run(sched); res.LocalFaults == 0 {
		t.Fatal("the buggy bank run reported no fault; the test no longer measures the fault path")
	}
	best := math.Inf(1)
	for i := 0; i < 256; i++ {
		best = min(best, testing.AllocsPerRun(1, func() { r.Run(sched) }))
	}
	if limit := 64.0; best > limit {
		t.Fatalf("warm faulting bank run allocates %.0f times; want <= %.0f (the fault path has regressed)", best, limit)
	}
}

// TestFrontierCandidateAllocs bounds what the guided frontier allocates per
// candidate in steady state — NextBatch plus Admit of a result it has
// already seen, so the corpus stops growing: the mutant itself (its
// normalized scenarios and target lists) and the dedup key a new one is
// kept as; looking a key up allocates nothing. Measured 11.75 (22.5 while
// keys were JSON and a mutant's scratch copy lived on the heap); the
// ceiling is the floor + 10 %.
func TestFrontierCandidateAllocs(t *testing.T) {
	if raceDetector {
		t.Skip("the race detector changes what allocates")
	}
	f := NewFrontier(appByName(t, "kvstore"), SearchConfig{Seed: 3, Budget: math.MaxInt}, StrategyGuided)
	var seen *RunResult
	for _, c := range f.NextBatch() {
		seen = f.Runner().Run(c.Schedule)
		f.Admit(c, seen)
	}
	turn := func() {
		for _, c := range f.NextBatch() {
			f.Admit(c, seen)
		}
	}
	for range 64 {
		turn()
	}
	corpus := len(f.Corpus())
	perCand := testing.AllocsPerRun(256, turn) / searchBatch
	if len(f.Corpus()) != corpus {
		t.Fatal("the corpus grew; the test no longer measures the steady state")
	}
	if limit := 12.92; perCand > limit {
		t.Fatalf("frontier allocates %.2f times per candidate; want <= %.2f (generation or dedup has regressed)", perCand, limit)
	}
}

// TestRunResultOutlivesArena: a RunResult holds nothing of the arena that
// produced it. A failing run's result — violations, stable-storage snapshot
// and all — marshals to the same bytes after the same arena has been Reset
// (poisoning what it rewinds) and has run a different application.
func TestRunResultOutlivesArena(t *testing.T) {
	PoisonRewound(t)
	r, err := RunnerFor("twopc", true, 1, true)
	if err != nil {
		t.Fatal(err)
	}
	sched := Schedule{{Kind: fault.Crash, Targets: []int{procIndex(t, r.Procs(), apps.CoordName)},
		Window: Window{From: 14, To: 40}}}
	cfg := r.Spec.Config(r.Buggy)
	cfg.Seed = r.Seed
	a := &runArena{sim: dsim.New(cfg)}
	res := r.fingerprinted(sched, a)
	if len(res.Violations) == 0 || len(res.Durable) == 0 {
		t.Fatalf("want a failing run with stable-storage contents, got %+v", res)
	}
	before, _ := json.Marshal(res)

	other, err := RunnerFor("kvstore", false, 3, true)
	if err != nil {
		t.Fatal(err)
	}
	cfg = other.Spec.Config(other.Buggy)
	cfg.Seed = other.Seed
	a.sim.Reset(cfg)
	other.fingerprinted(Schedule{Generate(fault.Reorder, other.Procs(), other.Crashable(), other.Spec.Horizon, 3)}, a)

	if after, _ := json.Marshal(res); !bytes.Equal(before, after) {
		t.Fatalf("the result changed under its arena's next run:\nbefore %s\nafter  %s", before, after)
	}
	if want := r.Run(sched); !reflect.DeepEqual(res, want) {
		t.Fatalf("arena run and pooled run differ:\n got %+v\nwant %+v", res, want)
	}
}

// TestMatrixPathEquivalence: every cell of a pooled sweep equals the
// fresh reference run of the same cell, and the whole report is
// byte-identical sequentially and sharded.
func TestMatrixPathEquivalence(t *testing.T) {
	PoisonRewound(t)
	cfg := MatrixConfig{Seeds: []int64{1, 2}}
	rep := RunMatrix(cfg)
	for _, cell := range rep.Cells {
		r, err := RunnerFor(cell.App, false, cell.Seed, true)
		if err != nil {
			t.Fatal(err)
		}
		if want := r.RunFresh(Schedule{cell.Scenario}); !reflect.DeepEqual(cell.Result, want) {
			t.Fatalf("%s: pooled cell diverged from the fresh reference\n pooled %+v\n fresh  %+v", cell, cell.Result, want)
		}
	}
	newRep, _ := json.Marshal(rep)
	cfg.Workers = 4
	shardRep, _ := json.Marshal(RunMatrix(cfg))
	if !bytes.Equal(newRep, shardRep) {
		t.Fatal("matrix report: sharded pooled sweep != sequential sweep")
	}
}

// TestSearchPathEquivalence: every schedule a pooled guided search kept —
// corpus entries and failures — runs to the same fingerprint and
// violations on the fresh reference, and the report is byte-identical
// across worker counts.
func TestSearchPathEquivalence(t *testing.T) {
	PoisonRewound(t)
	cfg := SearchConfig{Apps: fastApps(), Buggy: true,
		Seed: 1, Budget: 24, ShrinkBudget: -1}
	rep := Search(cfg)
	for _, app := range rep.Apps {
		r, err := RunnerFor(app.App, cfg.Buggy, cfg.Seed, true)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range app.Corpus {
			if want := r.RunFresh(e.Schedule); e.Fingerprint != (Fingerprint{want.Digest, want.Shape}) {
				t.Fatalf("%s corpus entry %s: pooled fingerprint diverged from the fresh reference", app.App, e.Schedule)
			}
		}
		for _, f := range app.Failures {
			if want := r.RunFresh(f.Schedule); !reflect.DeepEqual(f.Violations, want.Violations) {
				t.Fatalf("%s failure %s: pooled violations %v, fresh reference %v", app.App, f.Schedule, f.Violations, want.Violations)
			}
		}
	}
	newRep, _ := json.Marshal(rep)
	cfg.Workers = 3
	shardRep, _ := json.Marshal(Search(cfg))
	if !bytes.Equal(newRep, shardRep) {
		t.Fatal("search report: 3-worker search != sequential search")
	}
}

// TestEarlyExitEquivalence: early exit on the buggy tokenring must (a)
// halt far below the step bound with the violation attributed, (b) be
// deterministic, (c) produce identical results on the pooled path and the
// fresh reference, and (d) replay byte-identically through an artifact
// that records the cadence.
func TestEarlyExitEquivalence(t *testing.T) {
	r, err := RunnerFor("tokenring", true, 1, true)
	if err != nil {
		t.Fatal(err)
	}
	r.CheckEvery = 256
	sched := Schedule{Generate(MatrixKinds[0], r.Procs(), r.Crashable(), r.Spec.Horizon, 1)}

	res := r.Run(sched)
	if !res.Stats.EarlyExit {
		t.Fatal("buggy tokenring run did not early-exit")
	}
	if res.Stats.Steps >= 10_000 {
		t.Fatalf("early exit burned %d steps; want far below the 200k bound", res.Stats.Steps)
	}
	if len(res.Violations) == 0 {
		t.Fatal("early exit without a recorded violation")
	}

	again := r.Run(sched)
	if again.Digest != res.Digest {
		t.Fatal("early-exit run is not deterministic")
	}
	if b := r.RunFresh(sched); b.Digest != res.Digest || b.Stats != res.Stats {
		t.Fatal("early-exit run differs between the pooled path and the fresh reference")
	}

	art := NewArtifact(r, sched, res)
	loaded := reloaded(t, art)
	if loaded.CheckEvery != r.CheckEvery {
		t.Fatalf("artifact lost the cadence: %d != %d", loaded.CheckEvery, r.CheckEvery)
	}
	if err := loaded.Verify(); err != nil {
		t.Fatalf("early-exit artifact failed to replay: %v", err)
	}
}

// TestCheckEveryOffMatchesQuiescence: cadence 0 must be exactly the
// classic run-to-quiescence behavior (EarlyExit never set).
func TestCheckEveryOffMatchesQuiescence(t *testing.T) {
	r, err := RunnerFor("kvstore", false, 1, true)
	if err != nil {
		t.Fatal(err)
	}
	sched := Schedule{Generate(MatrixKinds[3], r.Procs(), r.Crashable(), r.Spec.Horizon, 1)}
	res := r.Run(sched)
	if res.Stats.EarlyExit {
		t.Fatal("EarlyExit set without a cadence")
	}
	r.CheckEvery = 64 // correct variant: invariants hold, so no exit either
	monitored := r.Run(sched)
	if monitored.Stats.EarlyExit {
		t.Fatalf("correct variant early-exited: %v", monitored.Violations)
	}
	if monitored.Digest != res.Digest {
		t.Fatal("a non-tripping monitor changed the execution digest")
	}
}
