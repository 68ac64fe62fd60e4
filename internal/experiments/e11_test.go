package experiments

import (
	"bytes"
	"testing"

	"repro/internal/apps"
	"repro/internal/chaos"
	"repro/internal/repair"
)

// E11 closes the detect → fix → prove loop. It prints no table — the
// bug_hunt ledger reports repair.fixed_apps and repair.runs — so its claim
// is checked here, against the registry applications with knob tables: the
// three whose seeded bugs are misconfigured timeouts, and kvstore, whose
// blind-apply bug no latency knob can fix.
var repairApps = []string{"twopc", "election", "tokenring", "kvstore"}

// repairArtifact hunts a minimal failing artifact for an app's seeded-bug
// variant with a small guided search — the front half of the pipeline.
func repairArtifact(t *testing.T, app string, budget int) *chaos.Artifact {
	t.Helper()
	spec, err := apps.Lookup(app)
	if err != nil {
		t.Fatal(err)
	}
	fails := chaos.Search(chaos.SearchConfig{Apps: []apps.AppSpec{spec}, Buggy: true, Seed: 1,
		Budget: budget, CheckEvery: searchCheckEvery}).Failures()
	if len(fails) == 0 || fails[0].Artifact == nil {
		t.Fatalf("no artifact found for buggy %s in %d runs", app, budget)
	}
	return fails[0].Artifact
}

// TestE11RepairsThreeApps: the knob-space repair stage, verifying with the
// default two-seed matrix and guided re-run, fixes twopc, election and
// tokenring and reports an honest failure for kvstore.
func TestE11RepairsThreeApps(t *testing.T) {
	want := map[string]bool{"twopc": true, "election": true, "tokenring": true, "kvstore": false}
	for _, app := range repairApps {
		rep, err := repair.Repair(repair.Config{Artifact: repairArtifact(t, app, 32), Seed: 1,
			CheckEvery: searchCheckEvery})
		if err != nil {
			t.Fatalf("%s: %v", app, err)
		}
		switch {
		case rep.Fixed != want[app]:
			t.Errorf("%s: fixed=%v, want %v", app, rep.Fixed, want[app])
		case rep.Fixed && len(rep.Winner) == 0:
			t.Errorf("%s: fixed but no winning assignment", app)
		case !rep.Fixed && len(rep.Winner) > 0:
			t.Errorf("%s: not fixed but reports winner %v", app, rep.Winner)
		}
	}
}

// TestRepairBenchQuick: the quick operating point app by app — three
// repaired applications, each report byte-identical at 2 workers and 1.
func TestRepairBenchQuick(t *testing.T) {
	repaired := 0
	for _, app := range repairApps {
		a := repairArtifact(t, app, 16)
		var out [2][]byte
		for i, workers := range []int{2, 1} {
			rep, err := repair.Repair(repair.Config{Artifact: a, Seed: 1, CheckEvery: searchCheckEvery,
				MatrixSeeds: []int64{1}, SearchBudget: 12, Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			if out[i], err = rep.JSON(); err != nil {
				t.Fatalf("%s: report does not render: %v", app, err)
			}
			if i == 0 && rep.Fixed {
				repaired++
				if rep.Runs <= 0 {
					t.Errorf("%s: fixed with %d runs-to-fix", app, rep.Runs)
				}
			}
		}
		if !bytes.Equal(out[0], out[1]) {
			t.Errorf("%s: report not byte-identical at 1 vs 2 workers", app)
		}
	}
	if repaired != 3 {
		t.Errorf("repaired %d apps, want 3", repaired)
	}
}
