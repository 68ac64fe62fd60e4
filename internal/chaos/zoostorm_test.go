package chaos

import (
	"bytes"
	"encoding/json"
	"sort"
	"testing"

	"repro/internal/apps"
	"repro/internal/fault"
	"repro/internal/substrate"
)

// The zoo storm suite extends the crash-storm and timeline-storm gates to
// the scenario-zoo workloads (mservice, cacheaside) and pins the opt-in
// fault kinds they exist to exercise: Corrupt breaks exactly the invariants
// that assume honest payloads, SlowNode is harmless to loss-robust
// workloads, and both stay out of the default matrix.

// zooStormCases names each zoo workload's most state-laden process — the
// one whose crash-restart must not forget a committed side effect or an
// acknowledged write.
var zooStormCases = []struct {
	app  string
	proc string
}{
	{"mservice", apps.MSBackName},
	{"cacheaside", apps.CAPrimaryName},
}

// TestZooCrashStormSim: across 50 seeds per zoo workload, a generated
// crash scenario stacked with a forced crash-restart of the backend/primary
// upholds the correct variant's invariants, deterministically.
func TestZooCrashStormSim(t *testing.T) {
	for _, tc := range zooStormCases {
		r, err := RunnerFor(tc.app, false, 1, true)
		if err != nil {
			t.Fatal(err)
		}
		procs := r.Procs()
		crashable := r.Crashable()
		if len(crashable) != len(procs)-1 { // every app process; only the probe stays out
			t.Fatalf("%s: crashable %v does not cover all of %v", tc.app, crashable, procs)
		}
		target := procIndex(t, procs, tc.proc)
		horizon := r.Spec.Horizon
		for seed := int64(1); seed <= 50; seed++ {
			r.Seed = seed
			from := 5 + uint64(seed)%horizon
			sched := Schedule{
				Generate(fault.Crash, procs, crashable, horizon, seed),
				{Kind: fault.Crash, Targets: []int{target},
					Window: Window{From: from, To: from + horizon/3}},
			}.Normalize()
			res := r.Run(sched)
			if len(res.Violations) > 0 {
				t.Fatalf("%s seed %d: crash-restart of %s violated %v under %s",
					tc.app, seed, tc.proc, res.Violations, sched)
			}
			if res.Stats.Crashes == 0 {
				t.Fatalf("%s seed %d: schedule %s crashed nothing", tc.app, seed, sched)
			}
			if again := r.Run(sched); again.Digest != res.Digest {
				t.Fatalf("%s seed %d: crash-restart run is nondeterministic", tc.app, seed)
			}
		}
	}
}

// TestZooTimelineStormSim: deliberate rollbacks racing crash-restarts on
// the zoo workloads — the timeline-fencing gate, extended.
func TestZooTimelineStormSim(t *testing.T) {
	for _, tc := range zooStormCases {
		r, err := RunnerFor(tc.app, false, 1, true)
		if err != nil {
			t.Fatal(err)
		}
		procs := r.Procs()
		crashable := r.Crashable()
		target := procIndex(t, procs, tc.proc)
		horizon := r.Spec.Horizon
		epochHits := 0
		for seed := int64(1); seed <= 50; seed++ {
			r.Seed = seed
			from := 5 + uint64(seed)%horizon
			sched := Schedule{
				Generate(fault.Rollback, procs, crashable, horizon, seed),
				{Kind: fault.Crash, Targets: []int{target},
					Window: Window{From: from, To: from + horizon/3}},
			}.Normalize()
			res := r.Run(sched)
			if len(res.Violations) > 0 {
				t.Fatalf("%s seed %d: rollback × crash-restart of %s violated %v under %s",
					tc.app, seed, tc.proc, res.Violations, sched)
			}
			if res.Epoch > 0 {
				epochHits++
			}
			if again := r.Run(sched); again.Digest != res.Digest {
				t.Fatalf("%s seed %d: rollback × crash-restart run is nondeterministic", tc.app, seed)
			}
		}
		if epochHits < 10 {
			t.Errorf("%s: only %d/50 storm runs performed a rollback (epoch advanced)", tc.app, epochHits)
		}
	}
}

// TestZooStormLive re-runs the rollback × crash-restart slice on the live
// substrate for the zoo workloads, resolving specs through apps.Lookup —
// the path zoo workloads share with artifact replay.
func TestZooStormLive(t *testing.T) {
	for _, tc := range zooStormCases {
		spec, err := apps.Lookup(tc.app)
		if err != nil {
			t.Fatal(err)
		}
		for _, seed := range []int64{1, 2} {
			live, err := substrate.NewLive(substrate.LiveConfig{Seed: seed,
				InitCheckpoint: true, CheckpointEvery: 4})
			if err != nil {
				t.Fatal(err)
			}
			ms := spec.Make(false)
			ids := make([]string, 0, len(ms))
			for id := range ms {
				ids = append(ids, id)
			}
			sort.Strings(ids)
			for _, id := range ids {
				live.AddProcess(id, ms[id])
			}
			target := procIndex(t, live.Procs(), tc.proc)
			from := 8 + uint64(seed)
			sched := Schedule{
				{Kind: fault.Rollback, Targets: []int{target}, Window: Window{From: from}},
				{Kind: fault.Crash, Targets: []int{target},
					Window: Window{From: from + 4, To: from + 4 + spec.Horizon/3}},
			}
			sched.Compile(live.Procs()).Apply(live)
			stats := live.Run()
			if stats.Crashes == 0 || stats.Restarts == 0 {
				t.Errorf("%s seed %d (live): crashes=%d restarts=%d, want >= 1/1",
					tc.app, seed, stats.Crashes, stats.Restarts)
			}
			if live.Epoch() == 0 {
				t.Errorf("%s seed %d (live): injected rollback never advanced the epoch", tc.app, seed)
			}
			var violated []string
			for _, v := range fault.NewMonitor(spec.Invariants(false)...).Check(live) {
				violated = append(violated, v.Invariant)
			}
			if len(violated) > 0 {
				t.Errorf("%s seed %d (live): rollback × crash-restart of %s violated %v",
					tc.app, seed, tc.proc, violated)
			}
			live.Close()
		}
	}
}

// TestZooSlowNodeHarmless: SlowNode models resource exhaustion, not data
// loss — the correct zoo variants degrade gracefully (bounded retries,
// fenced reads) and hold every invariant under generated slow-node
// scenarios stacked with a forced slowdown of the backend/primary.
func TestZooSlowNodeHarmless(t *testing.T) {
	for _, tc := range zooStormCases {
		r, err := RunnerFor(tc.app, false, 1, true)
		if err != nil {
			t.Fatal(err)
		}
		procs := r.Procs()
		crashable := r.Crashable()
		target := procIndex(t, procs, tc.proc)
		horizon := r.Spec.Horizon
		for seed := int64(1); seed <= 20; seed++ {
			r.Seed = seed
			sched := Schedule{
				Generate(fault.SlowNode, procs, crashable, horizon, seed),
				{Kind: fault.SlowNode, Targets: []int{target},
					Window:    Window{From: 2, To: 2 + horizon},
					Intensity: Intensity{Extra: 15}},
			}.Normalize()
			res := r.Run(sched)
			if len(res.Violations) > 0 {
				t.Fatalf("%s seed %d: slow-node storm violated %v under %s",
					tc.app, seed, res.Violations, sched)
			}
			if again := r.Run(sched); again.Digest != res.Digest {
				t.Fatalf("%s seed %d: slow-node run is nondeterministic", tc.app, seed)
			}
		}
	}
}

// TestZooCorruptBreaksCacheAuthority: byzantine payload corruption is the
// fault kind the cache-aside workload exists for — on the CORRECT variant,
// a fill's version digit mutated in flight puts the cache ahead of its
// primary, something no amount of drop/delay/duplication can do (the
// invariant assumes honest payloads). The generated Corrupt scenario class
// — exactly what ExtraKinds seeds into the searcher — finds it within a
// modest seed sweep, the failure shrinks to a 1-minimal schedule, and the
// artifact replays through the same registry path as matrix workloads.
func TestZooCorruptBreaksCacheAuthority(t *testing.T) {
	r, err := RunnerFor("cacheaside", false, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	horizon := r.Spec.Horizon
	procs := r.Procs()
	crashable := r.Crashable()
	var found Schedule
	for seed := int64(1); seed <= 50; seed++ {
		r.Seed = seed
		sched := Schedule{Generate(fault.Corrupt, procs, crashable, horizon, seed)}.Normalize()
		if out := r.Run(sched); len(out.Violations) > 0 {
			found = sched
			break
		}
	}
	if found == nil {
		t.Fatal("50 generated corrupt scenarios never violated the correct cache-aside variant")
	}
	fails := func(s Schedule) bool { return len(r.Run(s).Violations) > 0 }
	shrunk := Shrink(found, fails, 200)
	if !shrunk.Minimal {
		t.Errorf("corrupt failure did not shrink to a 1-minimal schedule: %s", shrunk.Schedule)
	}
	final := r.Run(shrunk.Schedule)
	if !final.Violated("cacheaside: cache never ahead of primary") {
		t.Fatalf("shrunk schedule reproduces %v, want the cache-authority violation", final.Violations)
	}
	art := NewArtifact(r, shrunk.Schedule, final)
	raw, err := art.JSON()
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadArtifact(raw)
	if err != nil {
		t.Fatal(err)
	}
	if err := loaded.Verify(); err != nil {
		t.Fatalf("corruption artifact failed registry replay: %v", err)
	}
}

// TestZooSearchExtraKinds: guided search over the buggy mservice chain
// with the opt-in kinds seeded — the corpus must carry corrupt/slow-node
// schedules (the provenance the default search never has), the
// timeout-cascade failure must be found, shrunk and captured, and the
// report must stay byte-identical across worker counts.
func TestZooSearchExtraKinds(t *testing.T) {
	spec, err := apps.Lookup("mservice")
	if err != nil {
		t.Fatal(err)
	}
	cfg := SearchConfig{
		Apps: []apps.AppSpec{spec}, Buggy: true, Seed: 1,
		Budget: 32, CheckEvery: 256,
		ExtraKinds: []fault.Kind{fault.Corrupt, fault.SlowNode},
	}
	rep := Search(cfg)
	if len(rep.Failures()) == 0 {
		t.Fatal("search never found the seeded timeout cascade")
	}
	f := rep.Failures()[0]
	// The cascade is a misconfiguration that manifests fault-free, so the
	// 1-minimal reproduction may be the empty schedule (which Shrink reports
	// as trivially un-shrinkable rather than Minimal).
	if len(f.Shrunk) > 0 && !f.Minimal {
		t.Errorf("timeout-cascade failure did not shrink to 1-minimal: %s", f.Shrunk)
	}
	if f.Artifact == nil {
		t.Fatal("failure captured no artifact")
	}
	raw, err := f.Artifact.JSON()
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadArtifact(raw)
	if err != nil {
		t.Fatal(err)
	}
	if err := loaded.Verify(); err != nil {
		t.Fatalf("timeout-cascade artifact failed registry replay: %v", err)
	}
	// Corpus admission is shape-gated, so assert the seeding itself: the
	// frontier's candidate stream must carry one generated scenario per
	// extra kind, after the matrix-kind seeds.
	seeded := map[string]bool{}
	fr := NewFrontier(spec, cfg, StrategyGuided)
	for batch := fr.NextBatch(); len(batch) > 0; batch = fr.NextBatch() {
		res := make([]*RunResult, len(batch))
		for i, c := range batch {
			seeded[c.Op] = true
			res[i] = fr.Runner().Run(c.Schedule)
		}
		for i := range batch {
			fr.Admit(batch[i], res[i])
		}
	}
	if !seeded["seed:corrupt"] || !seeded["seed:slow-node"] {
		t.Errorf("ExtraKinds did not seed the candidate stream: provenance %v", seeded)
	}

	cfg.Workers = 4
	again := Search(cfg)
	j1, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	j4, err := json.Marshal(again)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(j1, j4) {
		t.Error("ExtraKinds search report diverges across worker counts")
	}
}

// TestZooMatrixCorruptSlow sweeps the opt-in kinds over the correct
// mservice chain — whose retry discipline is robust to both — including a
// live-lane sample, proving the new kinds compile and run on both
// substrates through the stock matrix machinery.
func TestZooMatrixCorruptSlow(t *testing.T) {
	rep := RunMatrix(MatrixConfig{
		Apps:       []apps.AppSpec{appByName(t, "mservice")},
		Kinds:      []fault.Kind{fault.Corrupt, fault.SlowNode},
		Seeds:      []int64{1, 2, 3},
		LiveSample: 2,
		CheckEvery: 256,
	})
	for _, c := range rep.Cells {
		if !c.Pass() {
			t.Errorf("cell %s failed: %s", c.Cell, c.Fail())
		}
	}
	if len(rep.Live) != 2 {
		t.Fatalf("live lane ran %d cells, want 2", len(rep.Live))
	}
	for _, l := range rep.Live {
		if l.Err != "" {
			t.Errorf("%s: live run errored: %s", l.Cell, l.Err)
		}
		if len(l.Violations) > 0 {
			t.Errorf("%s under %s: diverged on live backend: %v", l.Cell, l.Scenario, l.Violations)
		}
	}
}
