package experiments

import (
	"encoding/json"
	"testing"

	"repro/internal/apps"
	"repro/internal/chaos"
)

// E10 compares coverage-guided chaos search with the matrix's blind seeded
// sampling. It prints no table — the bug_hunt ledger reports its numbers —
// so its claim is checked here, at its operating point: the full registry
// plus the scenario zoo, seeded bugs, 96 runs per application, and
// early-exit invariant checks every 256 steps (what makes the buggy
// tokenring's regeneration storm affordable; chaos.TestEarlyExitEquivalence).
const (
	searchBudget     = 96
	searchCheckEvery = 256
)

func searchConfig() chaos.SearchConfig {
	return chaos.SearchConfig{Apps: append(apps.Registry(), apps.Zoo()...), Buggy: true,
		Seed: 1, Budget: searchBudget, Workers: 4, CheckEvery: searchCheckEvery}
}

// randomSearch is the blind-sampling baseline: one random-strategy frontier
// per application, driven to exhaustion with the same coverage bookkeeping
// as Search.
func randomSearch(cfg chaos.SearchConfig) *chaos.SearchReport {
	rep := &chaos.SearchReport{Strategy: string(chaos.StrategyRandom), Seed: cfg.Seed, Budget: cfg.Budget, Buggy: cfg.Buggy}
	for _, spec := range cfg.Apps {
		f := chaos.NewFrontier(spec, cfg, chaos.StrategyRandom)
		for batch := f.NextBatch(); len(batch) > 0; batch = f.NextBatch() {
			for _, c := range batch {
				f.Admit(c, f.Runner().Run(c.Schedule))
			}
		}
		rep.Apps = append(rep.Apps, f.Finish())
	}
	return rep
}

// TestE10GuidedBeatsRandom: at an equal execution budget on the seeded-bug
// applications, guided search reaches strictly more distinct behavioral
// fingerprints in total than blind seeded sampling, and no application
// regresses. On the controlled jitter-free kvstore — which passes at
// baseline, so the failure must be found — the search reports a found,
// shrunk, replay-verified failing schedule.
func TestE10GuidedBeatsRandom(t *testing.T) {
	cfg := searchConfig()
	cfg.ShrinkBudget = -1
	guided, random := chaos.Search(cfg), randomSearch(cfg)
	if len(guided.Apps) != len(cfg.Apps) || len(random.Apps) != len(cfg.Apps) {
		t.Fatalf("reports cover %d and %d apps, want %d", len(guided.Apps), len(random.Apps), len(cfg.Apps))
	}
	for i, g := range guided.Apps {
		if r := random.Apps[i]; g.DistinctShapes < r.DistinctShapes {
			t.Errorf("%s: guided %d < random %d distinct shapes", g.App, g.DistinctShapes, r.DistinctShapes)
		}
	}
	if gs, rs := shapes(guided), shapes(random); gs <= rs {
		t.Errorf("guided total %d <= random total %d: coverage feedback bought nothing", gs, rs)
	}

	spec := apps.JitterFreeKV()
	rep := chaos.Search(chaos.SearchConfig{Apps: []apps.AppSpec{spec}, Buggy: true, Seed: 1, Budget: 160, Workers: 4})
	fails := rep.Failures()
	if len(fails) == 0 {
		t.Fatal("controlled jitter-free kvstore: no failing schedule found in 160 runs")
	}
	f := fails[0]
	if len(f.Shrunk) == 0 || len(f.Shrunk) > len(f.Schedule) {
		t.Errorf("shrunk %d scenarios to %d", len(f.Schedule), len(f.Shrunk))
	}
	if err := f.Artifact.VerifyWith(chaos.Runner{Spec: spec, Buggy: true, Seed: 1, Probe: true}); err != nil {
		t.Errorf("controlled reproduction did not verify: %v", err)
	}
}

func shapes(r *chaos.SearchReport) int {
	n, _ := r.Totals()
	return n
}

// TestSearchBench: E10's operating point with shrinking on — guided still
// beats random in total, every growth curve ends at the budget, and every
// failure carries its replayable artifact.
func TestSearchBench(t *testing.T) {
	cfg := searchConfig()
	guided := chaos.Search(cfg)
	cfg.ShrinkBudget = -1 // the baseline only measures coverage
	if gs, rs := shapes(guided), shapes(randomSearch(cfg)); gs <= rs {
		t.Errorf("guided %d shapes vs random %d: the headline claim is lost", gs, rs)
	}
	if len(guided.Apps) == 0 {
		t.Fatal("no per-app results")
	}
	for _, app := range guided.Apps {
		if len(app.Growth) == 0 {
			t.Fatalf("%s: empty growth curve", app.App)
		}
		if last := app.Growth[len(app.Growth)-1]; last.Execs != searchBudget {
			t.Errorf("%s: growth curve ends at %d execs, want %d", app.App, last.Execs, searchBudget)
		}
		for _, f := range app.Failures {
			if f.Artifact == nil {
				t.Errorf("%s: failure %s has no artifact", app.App, f.Schedule)
			} else if _, err := json.Marshal(f.Artifact); err != nil {
				t.Errorf("%s: artifact does not render: %v", app.App, err)
			}
		}
	}
}
