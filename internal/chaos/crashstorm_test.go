package chaos

import (
	"sort"
	"testing"

	"repro/internal/apps"
	"repro/internal/fault"
	"repro/internal/substrate"
)

// The crash-storm suite pins the tentpole claim of the stable-storage
// layer: the 2PC coordinator and the KV primary — the two processes the
// registry excluded from crash-restart before they durably logged their
// decisions and version assignments — now survive crash-restart scenarios
// with their invariants intact, on both backends, deterministically.

// crashStormCases names each workload's historically crash-unsafe process.
var crashStormCases = []struct {
	app  string
	proc string
}{
	{"twopc", apps.CoordName},
	{"kvstore", apps.KVPrimaryName},
}

// procIndex returns proc's index in the sorted process list.
func procIndex(t *testing.T, procs []string, proc string) int {
	t.Helper()
	i := sort.SearchStrings(procs, proc)
	if i >= len(procs) || procs[i] != proc {
		t.Fatalf("process %q not in %v", proc, procs)
	}
	return i
}

// TestCrashStormSim: across 50 seeds per workload, a generated crash
// scenario stacked with a forced coordinator/primary crash-restart upholds
// the invariants, deterministically (byte-identical digest on re-run). It
// also checks the generator actually samples the newly crashable targets —
// the scenario class that was structurally unreachable before this layer.
func TestCrashStormSim(t *testing.T) {
	for _, tc := range crashStormCases {
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
		genHits := 0
		horizon := r.Spec.Horizon
		for seed := int64(1); seed <= 50; seed++ {
			r.Seed = seed
			scen := Generate(fault.Crash, procs, crashable, horizon, seed)
			if len(scen.Targets) == 1 && scen.Targets[0] == target {
				genHits++
			}
			from := 5 + uint64(seed)%horizon
			sched := Schedule{
				scen,
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
		if genHits == 0 {
			t.Errorf("%s: 50 generated crash scenarios never targeted %s", tc.app, tc.proc)
		}
	}
}

// TestCrashStormLive re-runs the coordinator/primary crash-restart slice
// on the live substrate — the same machines as real goroutines — checking
// invariants only (replay digests are sim-only).
func TestCrashStormLive(t *testing.T) {
	for _, tc := range crashStormCases {
		var spec apps.AppSpec
		for _, s := range apps.Registry() {
			if s.Name == tc.app {
				spec = s
			}
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
			sched := Schedule{{Kind: fault.Crash, Targets: []int{target},
				Window: Window{From: 6, To: 6 + spec.Horizon/3}}}
			sched.Compile(live.Procs()).Apply(live)
			stats := live.Run()
			if stats.Crashes == 0 || stats.Restarts == 0 {
				t.Errorf("%s seed %d (live): crashes=%d restarts=%d, want >= 1/1",
					tc.app, seed, stats.Crashes, stats.Restarts)
			}
			var violated []string
			for _, v := range fault.NewMonitor(spec.Invariants(false)...).Check(live) {
				violated = append(violated, v.Invariant)
			}
			if len(violated) > 0 {
				t.Errorf("%s seed %d (live): crash-restart of %s violated %v",
					tc.app, seed, tc.proc, violated)
			}
			live.Close()
		}
	}
}

// TestMatrixSweepsCoordinatorPrimaryCrashes: the stock matrix cells now
// include crash scenarios targeting the coordinator and primary, and those
// cells pass like any other.
func TestMatrixSweepsCoordinatorPrimaryCrashes(t *testing.T) {
	rep := RunMatrix(MatrixConfig{Kinds: []fault.Kind{fault.Crash},
		Seeds: []int64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}})
	hit := map[string]bool{}
	for _, c := range rep.Cells {
		if !c.Pass() {
			t.Errorf("crash cell %s failed: %s", c.Cell, c.Fail())
		}
		for _, tc := range crashStormCases {
			if c.App != tc.app {
				continue
			}
			r, err := RunnerFor(tc.app, false, c.Seed, true)
			if err != nil {
				t.Fatal(err)
			}
			target := procIndex(t, r.Procs(), tc.proc)
			for _, ti := range c.Scenario.Targets {
				if ti == target {
					hit[tc.proc] = true
				}
			}
		}
	}
	for _, tc := range crashStormCases {
		if !hit[tc.proc] {
			t.Errorf("12-seed crash sweep never targeted %s; widen the seed range", tc.proc)
		}
	}
}

// TestSearchReachesCoordinatorPrimaryCrashes: guided search on the
// correct variants now explores (and admits into its corpus) crash
// schedules targeting the coordinator and primary — the scenario class
// that was structurally unreachable while they were excluded — without
// finding any invariant violation.
func TestSearchReachesCoordinatorPrimaryCrashes(t *testing.T) {
	seeds := map[string]int64{"twopc": 2, "kvstore": 1} // seeds whose trajectories sample the target
	for _, tc := range crashStormCases {
		var spec apps.AppSpec
		for _, s := range apps.Registry() {
			if s.Name == tc.app {
				spec = s
			}
		}
		r := Runner{Spec: spec, Probe: true}
		target := procIndex(t, r.Procs(), tc.proc)
		rep := Search(SearchConfig{Apps: []apps.AppSpec{spec}, Seed: seeds[tc.app],
			Budget: 48, CheckEvery: 256})
		hits := 0
		for _, a := range rep.Apps {
			if len(a.Failures) > 0 {
				t.Errorf("%s: correct-variant search found failures: %v", tc.app, a.Failures[0].Violations)
			}
			for _, e := range a.Corpus {
				for _, sc := range e.Schedule {
					if sc.Kind != fault.Crash {
						continue
					}
					for _, ti := range sc.Targets {
						if ti == target {
							hits++
						}
					}
				}
			}
		}
		if hits == 0 {
			t.Errorf("%s: search corpus holds no crash schedule targeting %s", tc.app, tc.proc)
		}
	}
}

// TestCoordinatorCrashArtifactReplay: a failing run that crash-restarts
// the (buggy) coordinator captures its stable-storage contents in the
// artifact, replays byte-identically through Verify and VerifyWith, and
// the durable contents genuinely participate in the replay contract —
// tampering with them fails verification.
func TestCoordinatorCrashArtifactReplay(t *testing.T) {
	r, err := RunnerFor("twopc", true, 1, true)
	if err != nil {
		t.Fatal(err)
	}
	target := procIndex(t, r.Procs(), apps.CoordName)
	// The buggy coordinator times out at 10 and commits against the slow
	// no-voter's unilateral abort; crash it just after so recovery has a
	// decision to re-install.
	sched := Schedule{{Kind: fault.Crash, Targets: []int{target},
		Window: Window{From: 14, To: 40}}}
	res := r.Run(sched)
	if len(res.Violations) == 0 {
		t.Fatal("buggy twopc under coordinator crash produced no violation")
	}
	if res.Stats.Crashes == 0 || res.Stats.Restarts == 0 {
		t.Fatalf("coordinator never crash-restarted: %+v", res.Stats)
	}
	if string(res.Durable[apps.CoordName]["2pc:decision"]) == "" {
		t.Fatalf("run result carries no coordinator decision cell: %v", res.Durable)
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
	if err := loaded.Verify(); err != nil {
		t.Fatalf("coordinator-crash artifact failed registry replay: %v", err)
	}
	if err := loaded.VerifyWith(r); err != nil {
		t.Fatalf("coordinator-crash artifact failed VerifyWith replay: %v", err)
	}

	loaded.Durable[apps.CoordName]["2pc:decision"] = []byte("tampered")
	if err := loaded.VerifyWith(r); err == nil {
		t.Fatal("tampered stable-storage contents passed verification")
	}
}
