package repair

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/apps"
	"repro/internal/chaos"
)

// findArtifact runs a small guided search over an app's seeded-bug variant
// and returns the first shrunk failure artifact.
func findArtifact(t *testing.T, app string) *chaos.Artifact {
	t.Helper()
	spec, err := apps.Lookup(app)
	if err != nil {
		t.Fatal(err)
	}
	rep := chaos.Search(chaos.SearchConfig{
		Apps:       []apps.AppSpec{spec},
		Buggy:      true,
		Seed:       1,
		Budget:     16,
		CheckEvery: 256,
	})
	fails := rep.Failures()
	if len(fails) == 0 {
		t.Fatalf("search found no failure in buggy %s", app)
	}
	if fails[0].Artifact == nil {
		t.Fatalf("first %s failure has no artifact", app)
	}
	return fails[0].Artifact
}

func quickCfg(a *chaos.Artifact) Config {
	return Config{
		Artifact:     a,
		Seed:         1,
		MatrixSeeds:  []int64{1},
		SearchBudget: 12,
		CheckEvery:   256,
	}
}

// TestRepairTwoPCSeededBug: the commit-on-timeout bug is fixed by raising
// the coordinator timeout past the slow no-vote delay; repair must find a
// verified assignment.
func TestRepairTwoPCSeededBug(t *testing.T) {
	a := findArtifact(t, "twopc")
	rep, err := Repair(quickCfg(a))
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Fixed {
		out, _ := rep.JSON()
		t.Fatalf("twopc not repaired:\n%s", out)
	}
	if len(rep.Winner) == 0 || rep.Evidence == nil || !rep.Evidence.ReplayClean {
		t.Fatalf("winner/evidence missing: %+v", rep)
	}
	if rep.Evidence.MatrixCells == 0 || rep.Runs <= len(rep.Trials) {
		t.Errorf("evidence does not account for verification cost: %+v", rep.Evidence)
	}
	// The fix must move a knob off its current value.
	moved := false
	for _, k := range rep.Knobs {
		if v, ok := rep.Winner[k.Name]; ok && v != k.Current {
			moved = true
		}
	}
	if !moved {
		t.Errorf("winner %v changes nothing", rep.Winner)
	}
}

// TestRepairDeterministicAcrossWorkers: same seed + artifact must produce
// a byte-identical RepairReport at any worker count, for every registry
// application with knobs — fixed or not.
func TestRepairDeterministicAcrossWorkers(t *testing.T) {
	for _, app := range []string{"twopc", "election", "tokenring", "kvstore"} {
		a := findArtifact(t, app)
		var outs [][]byte
		for _, workers := range []int{1, 4} {
			cfg := quickCfg(a)
			cfg.Workers = workers
			rep, err := Repair(cfg)
			if err != nil {
				t.Fatal(err)
			}
			out, err := rep.JSON()
			if err != nil {
				t.Fatal(err)
			}
			outs = append(outs, out)
		}
		if !bytes.Equal(outs[0], outs[1]) {
			t.Fatalf("%s: report differs across worker counts:\n--- w=1\n%s\n--- w=4\n%s", app, outs[0], outs[1])
		}
	}
}

// TestRepairNoFixInRange: when no assignment in range can fix the bug —
// kvstore's blind apply is not a latency problem, whatever its knobs say —
// repair must terminate within budget and report honestly.
func TestRepairNoFixInRange(t *testing.T) {
	a := findArtifact(t, "kvstore")
	cfg := quickCfg(a)
	rep, err := Repair(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Fixed || rep.Winner != nil || rep.Evidence != nil {
		t.Fatalf("claimed a fix that cannot exist: %+v", rep)
	}
	if len(rep.Trials) == 0 || len(rep.Trials) > maxTrials {
		t.Fatalf("trial count %d outside budget", len(rep.Trials))
	}
	for _, tr := range rep.Trials {
		if tr.Verified {
			t.Fatalf("no trial should verify: %+v", tr)
		}
	}
}

// TestRepairAllSeededBugs: election's premature re-election and
// tokenring's token regeneration are also knob-repairable; kvstore's
// blind apply is not a latency problem, so its repair must honestly fail.
func TestRepairAllSeededBugs(t *testing.T) {
	for _, tc := range []struct {
		app     string
		fixable bool
	}{
		{"election", true},
		{"tokenring", true},
		{"kvstore", false},
	} {
		t.Run(tc.app, func(t *testing.T) {
			rep, err := Repair(quickCfg(findArtifact(t, tc.app)))
			if err != nil {
				t.Fatal(err)
			}
			if rep.Fixed != tc.fixable {
				out, _ := rep.JSON()
				t.Fatalf("Fixed = %v, want %v:\n%s", rep.Fixed, tc.fixable, out)
			}
			if tc.fixable && rep.Evidence == nil {
				t.Fatal("fixed without evidence")
			}
		})
	}
}

// TestRepairMServiceTimeoutCascade: the scenario-zoo microservice chain's
// seeded timeout misconfiguration is knob-repairable — stretching the
// chain's patience past the backend slow path stops the duplicate-commit
// failover — and the report stays byte-identical across worker counts.
// This is the case that needs ApplyKnobs to rebuild the invariants from
// the patched config: the retry-storm limit and latency bound are derived
// from the knob values, so a static oracle would reject every fix.
func TestRepairMServiceTimeoutCascade(t *testing.T) {
	a := findArtifact(t, "mservice")
	var outs [][]byte
	for _, workers := range []int{1, 4} {
		cfg := quickCfg(a)
		cfg.Workers = workers
		rep, err := Repair(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Fixed {
			out, _ := rep.JSON()
			t.Fatalf("mservice not repaired (workers=%d):\n%s", workers, out)
		}
		if len(rep.Winner) == 0 || rep.Evidence == nil || !rep.Evidence.ReplayClean {
			t.Fatalf("winner/evidence missing: %+v", rep)
		}
		moved := false
		for _, k := range rep.Knobs {
			if v, ok := rep.Winner[k.Name]; ok && v != k.Current {
				moved = true
			}
		}
		if !moved {
			t.Errorf("winner %v changes nothing", rep.Winner)
		}
		out, err := rep.JSON()
		if err != nil {
			t.Fatal(err)
		}
		outs = append(outs, out)
	}
	if !bytes.Equal(outs[0], outs[1]) {
		t.Fatalf("mservice repair report differs across worker counts:\n--- w=1\n%s\n--- w=4\n%s",
			outs[0], outs[1])
	}
}

// TestRepairRejectsNonReproducingArtifact: Repair refuses an artifact that
// does not reproduce on the program it names — a passing schedule is not a
// counterexample, and one whose baseline replay lands on another digest ran
// another program (the jitter-free kvstore band, or a tampered digest) —
// rather than "fix" a non-bug or search the wrong program.
func TestRepairRejectsNonReproducingArtifact(t *testing.T) {
	a := findArtifact(t, "twopc")
	clean := *a
	clean.Buggy = false // the correct variant does not fail this schedule
	if _, err := Repair(Config{Artifact: &clean}); err == nil {
		t.Fatal("expected a does-not-reproduce error")
	}

	tampered := *a
	tampered.Digest = strings.Repeat("0", len(a.Digest))
	rep := chaos.Search(chaos.SearchConfig{
		Apps: []apps.AppSpec{apps.JitterFreeKV()}, Buggy: true, Seed: 1, Budget: 160, Workers: 1,
	})
	fails := rep.Failures()
	if len(fails) == 0 || fails[0].Artifact == nil {
		t.Fatal("jitter-free kvstore search found no failure artifact")
	}
	for name, art := range map[string]*chaos.Artifact{"tampered twopc": &tampered, "jitter-free kvstore": fails[0].Artifact} {
		if _, err := Repair(quickCfg(art)); err == nil || !strings.Contains(err.Error(), "digest") {
			t.Errorf("%s artifact: want a digest error, got %v", name, err)
		}
	}
}
