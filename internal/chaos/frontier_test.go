package chaos

import (
	"bytes"
	"encoding/json"
	"os"
	"testing"
)

// TestFrontierPreRefactorByteIdentity pins the Frontier extraction against
// reports recorded by the pre-refactor Search/RandomSearch implementations
// (testdata/search_prerefactor.json, generated at the commit that
// introduced the frontier): the shared candidate stream must consume the
// seeded rng in exactly the original order, so guided and random reports —
// corpus, growth curves, shrunk failures, artifacts — stay byte-identical.
// The fixture is re-baselined (go test -update, the flag every fixture in
// the tree regenerates under) when workload-app behavior changes on
// purpose; between re-baselines it pins search-driver refactors.
func TestFrontierPreRefactorByteIdentity(t *testing.T) {
	cfg := SearchConfig{Seed: 7, Budget: 24, Workers: 2, CheckEvery: 64}
	buggy := cfg
	buggy.Buggy = true
	got := map[string]*SearchReport{
		"guided":       Search(cfg),
		"random":       RandomSearch(cfg),
		"guided_buggy": Search(buggy),
		"random_buggy": RandomSearch(buggy),
	}
	out, err := json.MarshalIndent(got, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	out = append(out, '\n')
	if *update {
		if err := os.WriteFile("testdata/search_prerefactor.json", out, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Log("rewrote testdata/search_prerefactor.json")
		return
	}
	raw, err := os.ReadFile("testdata/search_prerefactor.json")
	if err != nil {
		t.Fatalf("missing pre-refactor fixture: %v", err)
	}
	if !bytes.Equal(out, raw) {
		line := 1
		for i := 0; i < len(out) && i < len(raw); i++ {
			if out[i] != raw[i] {
				lo, hi := max(0, i-80), min(len(out), i+80)
				t.Fatalf("report diverges from pre-refactor fixture at byte %d (line %d):\n...%s...",
					i, line, out[lo:hi])
			}
			if out[i] == '\n' {
				line++
			}
		}
		t.Fatalf("report length %d != fixture length %d", len(out), len(raw))
	}
}

// TestFrontierDriveMatchesSearch exercises the frontier protocol directly —
// the way the fleet coordinator consumes it, with an externally supplied
// evaluator and an external shrink delegate — and requires the outcome to
// be byte-identical to the packaged Search driver.
func TestFrontierDriveMatchesSearch(t *testing.T) {
	cfg := SearchConfig{Seed: 3, Budget: 20, Buggy: true, CheckEvery: 64}
	cfg = cfg.withDefaults()
	want := Search(cfg)

	rep := &SearchReport{Strategy: string(StrategyGuided), Seed: cfg.Seed, Budget: cfg.Budget, Buggy: cfg.Buggy}
	for _, spec := range cfg.Apps {
		f := NewFrontier(spec, cfg, StrategyGuided)
		runner := f.Runner()
		// External shrink delegate, as a fleet worker would run it.
		f.SetShrinker(LocalShrinker(runner, cfg.ShrinkBudget))
		for batch := f.NextBatch(); len(batch) > 0; batch = f.NextBatch() {
			// Evaluate out of order to prove admission order is what counts.
			results := make([]*RunResult, len(batch))
			for i := len(batch) - 1; i >= 0; i-- {
				results[i] = runner.Run(batch[i].Schedule)
			}
			for i := range batch {
				f.Admit(batch[i], results[i])
			}
		}
		rep.Apps = append(rep.Apps, f.Finish())
	}

	gotJSON, _ := json.Marshal(rep)
	wantJSON, _ := json.Marshal(want)
	if !bytes.Equal(gotJSON, wantJSON) {
		t.Fatal("frontier-driven report differs from Search report")
	}
}
