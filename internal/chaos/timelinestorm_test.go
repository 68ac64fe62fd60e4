package chaos

import (
	"bytes"
	"encoding/json"
	"sort"
	"testing"

	"repro/internal/apps"
	"repro/internal/dsim"
	"repro/internal/fault"
	"repro/internal/heal"
	"repro/internal/substrate"
)

// The timeline storm suite pins the tentpole claim of timeline fencing:
// deliberate rollbacks (Time Machine, heal) racing crash-restarts never
// let a process observe the abandoned timeline — neither a stale durable
// decision re-installed by crash-restart recovery nor a pre-rollback
// in-flight message redelivered after the epoch advanced.

// TestTimelineStormSim: across 50 seeds per workload, an injected
// deliberate rollback (anchored on the historically crash-unsafe process)
// stacked with crash-restarts of the same process upholds the invariants
// on the correct variant, deterministically. Normalize must keep the
// Rollback scenario — mutation/minimization treating it as an unknown kind
// would silently drop the race this suite exists to exercise.
func TestTimelineStormSim(t *testing.T) {
	for _, tc := range crashStormCases {
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
			roll := Generate(fault.Rollback, procs, crashable, horizon, seed)
			from := 5 + uint64(seed)%horizon
			sched := Schedule{
				roll,
				{Kind: fault.Crash, Targets: []int{target},
					Window: Window{From: from, To: from + horizon/3}},
			}.Normalize()
			kept := false
			for _, sc := range sched {
				kept = kept || sc.Kind == fault.Rollback
			}
			if !kept {
				t.Fatalf("%s seed %d: Normalize dropped the rollback scenario from %s",
					tc.app, seed, sched)
			}
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
		// A crashed anchor makes the injection a no-op, so not every seed
		// rolls back — but the storm is vacuous if hardly any do.
		if epochHits < 10 {
			t.Errorf("%s: only %d/50 storm runs performed a rollback (epoch advanced)", tc.app, epochHits)
		}
	}
}

// TestTimelineStormLive re-runs the rollback × crash-restart slice on the
// live substrate: real goroutines, where in-flight messages cannot be
// recalled and are instead fenced at delivery by the timeline epoch.
func TestTimelineStormLive(t *testing.T) {
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
			from := 8 + uint64(seed)
			sched := Schedule{
				{Kind: fault.Rollback, Targets: []int{target}, Window: Window{From: from}},
				{Kind: fault.Crash, Targets: []int{target},
					Window: Window{From: from + 4, To: from + 4 + spec.Horizon/3}},
			}
			sched.Compile(live.Procs()).Apply(live)
			live.Run()
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

// healCrashRace runs the full heal-then-crash-restart race on the buggy
// 2PC workload: run to the seeded atomicity violation, heal (rollback to a
// verified line + inject the fixed coordinator), then crash-restart the
// coordinator before the healed timeline re-decides, and resume to
// quiescence. Unfenced, the restart would re-install the buggy timeline's
// durable "commit" against the healed timeline's abort; the heal's rollback
// invalidates the abandoned cell, so recovery finds nothing — the helper
// asserts the cell was there before the heal and is gone after it.
// ok reports whether the race was actually staged (bug manifested, line
// found, heal verified) — callers skip seeds where it was not.
func healCrashRace(t *testing.T, seed int64) (violations []string, ok bool) {
	t.Helper()
	var spec apps.AppSpec
	for _, s := range apps.Registry() {
		if s.Name == "twopc" {
			spec = s
		}
	}
	cfg := spec.Config(true)
	cfg.Seed = seed
	cfg.CICheckpoint = true // fine-grained recovery lines, as RunPipeline uses
	s := dsim.New(cfg)
	ms := spec.Make(true)
	ids := make([]string, 0, len(ms))
	for id := range ms {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		s.AddProcess(id, ms[id])
	}
	invs := spec.Invariants(true)
	s.Run()
	if len(fault.NewMonitor(invs...).Check(s)) == 0 {
		return nil, false // seeded bug did not manifest under this seed
	}
	line := heal.VerifiedLine(s, invs)
	if line == nil {
		return nil, false
	}
	factories := make(map[string]func() dsim.Machine, len(ids))
	for _, id := range ids {
		factories[id] = func() dsim.Machine { return spec.MakeFixed()[id] }
	}
	decided := func() bool {
		_, ok := s.DurableSnapshot()[apps.CoordName]["2pc:decision"]
		return ok
	}
	before := decided()
	rep, err := heal.Apply(s, line, heal.Program{Version: "fixed", Factories: factories},
		nil, heal.VerifyOptions{Invariants: invs})
	if err != nil || !rep.Verified() {
		return nil, false
	}
	if after := decided(); !before || after {
		t.Errorf("seed %d: coordinator's durable decision live before heal = %v, after = %v; "+
			"want the buggy timeline's cell written, then fenced by the heal's rollback", seed, before, after)
	}
	// Race the crash-restart into the window between the rollback and the
	// healed coordinator's re-armed vote timeout (well before Timeout=10).
	now := s.Now()
	s.Inject(fault.Injection{Kind: fault.Crash, Proc: apps.CoordName, At: now + 1})
	s.Inject(fault.Injection{Kind: fault.Restart, Proc: apps.CoordName, At: now + 3})
	s.Resume()
	for _, v := range fault.NewMonitor(invs...).Check(s) {
		violations = append(violations, v.Invariant)
	}
	return violations, true
}

// TestHealCrashRaceRegression pins the fix for the stale-durable
// re-installation bug: on every staged seed the heal's rollback fences the
// coordinator's durable decision (healCrashRace asserts it), and the
// crash-restart raced in behind it violates nothing.
func TestHealCrashRaceRegression(t *testing.T) {
	staged := 0
	for seed := int64(1); seed <= 24; seed++ {
		violations, ok := healCrashRace(t, seed)
		if !ok {
			continue
		}
		staged++
		if len(violations) > 0 {
			t.Errorf("seed %d: heal × crash-restart violated %v despite timeline fencing", seed, violations)
		}
	}
	if staged == 0 {
		t.Fatal("no seed staged the heal × crash-restart race; widen the seed range")
	}
}

// TestRunResultEpochOmitted: schedules that never roll back report Epoch 0
// and omit the field from JSON entirely, keeping matrix/search artifacts
// byte-identical to pre-epoch output; rollback schedules record it.
func TestRunResultEpochOmitted(t *testing.T) {
	r, err := RunnerFor("twopc", false, 1, true)
	if err != nil {
		t.Fatal(err)
	}
	target := procIndex(t, r.Procs(), apps.CoordName)
	crash := r.Run(Schedule{{Kind: fault.Crash, Targets: []int{target},
		Window: Window{From: 8, To: 20}}})
	if crash.Epoch != 0 {
		t.Fatalf("crash-only schedule reported epoch %d, want 0", crash.Epoch)
	}
	raw, err := json.Marshal(crash)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(raw, []byte(`"Epoch"`)) {
		t.Fatalf("epoch field serialized for a no-rollback run: %s", raw)
	}
	roll := r.Run(Schedule{{Kind: fault.Rollback, Targets: []int{target},
		Window: Window{From: 12}}})
	if roll.Epoch == 0 {
		t.Fatal("rollback schedule did not advance the timeline epoch")
	}
}
