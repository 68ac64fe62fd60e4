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

// warmKVRun returns one pooled kvstore run under a reorder schedule — the
// whole per-run path the matrix and the search pay: Spec.Make, Reset,
// Compile, the run itself and the streaming fingerprint.
func warmKVRun(t *testing.T) func() {
	spec, err := apps.Lookup("kvstore")
	if err != nil {
		t.Fatal(err)
	}
	r := Runner{Spec: spec, Seed: 2, Probe: true}
	sched := Schedule{Generate(fault.Reorder, r.Procs(), r.Crashable(), spec.Horizon, 2)}
	return func() { r.Run(sched) }
}

// TestWarmRunnerAllocs bounds what one warm pooled kvstore run allocates.
// Measured 116 (412 while handlers built payloads with fmt.Sprintf and cut
// them with strings.Split; 658 while Reset dropped the run's arenas, message
// and checkpoint IDs were rendered per run and every checkpoint was its own
// objects; 955 while checkpoints and invariant checks went through
// encoding/json; 1246 with a map clone per Lamport tick on top), and 118
// under -race. The ceiling is the floor + 10 %.
func TestWarmRunnerAllocs(t *testing.T) {
	run := warmKVRun(t)
	// The cheapest of a few single warm runs: a dropped Put of the run
	// arena itself makes the next run pay a fresh simulation.
	best := math.Inf(1)
	for i := 0; i < 256; i++ {
		best = min(best, testing.AllocsPerRun(1, run))
	}
	limit := 127.0
	if raceDetector {
		limit = 129
	}
	if best > limit {
		t.Fatalf("warm kvstore/reorder run allocates %.0f times; want <= %.0f (the pooled run path has regressed)", best, limit)
	}
}

// TestWarmRunBytes bounds the bytes one warm pooled kvstore run allocates,
// so that an arena Reset drops instead of rewinds shows here and not only on
// the perf ledger: the clock-snapshot chunks alone were 15 kB a run, a
// copy-on-write page is 1 KiB. Measured 5,088 B (10,672 B with text-built
// payloads, 99,912 B while Reset dropped the arenas); the ceiling is that
// + 10 %.
func TestWarmRunBytes(t *testing.T) {
	if raceDetector {
		t.Skip("under -race sync.Pool drops a quarter of the run arenas, and a fresh simulation is 300 kB")
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
	if limit := uint64(5_596); best > limit {
		t.Fatalf("warm kvstore/reorder run allocates %d bytes; want <= %d (run-scoped memory is being dropped, not rewound)", best, limit)
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
	runIn := func(r Runner, sched Schedule) *RunResult {
		res := r.execute(sched, a.sim)
		res.Digest, res.Shape = a.fp.Fingerprint(a.sim.Scrolls(), ShapeBucket)
		return res
	}
	res := runIn(r, sched)
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
	runIn(other, Schedule{Generate(fault.Reorder, other.Procs(), other.Crashable(), other.Spec.Horizon, 3)})

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
	cfg := SearchConfig{Apps: apps.RegistryExcept("tokenring"), Buggy: true,
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
	raw, err := art.JSON()
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadArtifact(raw)
	if err != nil {
		t.Fatal(err)
	}
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
