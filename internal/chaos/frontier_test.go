package chaos

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"slices"
	"testing"

	"repro/internal/apps"
	"repro/internal/fault"
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

// TestDedupKeyMatchesJSON: the frontier's dedup key is exact — two
// schedules share a key exactly when they marshal to the same JSON, which
// is what the frontier deduplicated by before. The schedules are 12k
// MutateOp outputs of seeded Registry+Zoo frontiers, mutated from a pool
// that grows with them (so duplicates occur), plus the pairs JSON does not
// tell apart and the near misses it does.
func TestDedupKeyMatchesJSON(t *testing.T) {
	byKey := map[string]string{}  // key -> JSON
	byJSON := map[string]string{} // JSON -> key
	dups := 0
	check := func(s Schedule) {
		t.Helper()
		raw, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		j, k := string(raw), string(appendKey(nil, s))
		if prev, ok := byKey[k]; ok && prev != j {
			t.Fatalf("one key for two JSON encodings:\n %s\n %s", prev, j)
		}
		if prev, ok := byJSON[j]; ok && prev != k {
			t.Fatalf("two keys for one JSON encoding %s", j)
		}
		if _, ok := byJSON[j]; ok {
			dups++
		}
		byKey[k], byJSON[j] = j, k
	}
	const perApp = 12_000 / 7
	for _, spec := range append(apps.Registry(), apps.Zoo()...) {
		f := NewFrontier(spec, SearchConfig{Seed: 5}, StrategyGuided)
		var pool []Schedule
		for _, c := range f.seedBatch() {
			check(c.Schedule)
			if c.Schedule != nil {
				pool = append(pool, c.Schedule)
			}
		}
		for range perApp {
			parent, donor := pool[f.rng.Intn(len(pool))], pool[f.rng.Intn(len(pool))]
			op := MutationOps[f.rng.Intn(len(MutationOps))]
			cand := MutateOp(f.rng, op, parent, donor, f.procs, f.crashable, spec.Horizon)
			check(cand)
			pool = append(pool, cand)
		}
	}
	if dups == 0 {
		t.Fatal("no duplicate mutant: the test never exercises the equal-key direction")
	}

	negZero := math.Copysign(0, -1)
	sc := Scenario{Kind: fault.Drop, Targets: []int{1, 2}, Window: Window{From: 3, To: 9}, Intensity: Intensity{Prob: 0.5}}
	with := func(edit func(*Scenario)) Schedule {
		c := sc
		c.Targets = slices.Clone(sc.Targets)
		edit(&c)
		return Schedule{c}
	}
	for _, s := range []Schedule{
		nil, {}, {sc}, {sc, sc},
		with(func(c *Scenario) { c.Targets = nil }),
		with(func(c *Scenario) { c.Targets = []int{} }),
		with(func(c *Scenario) { c.Targets = []int{12} }),
		with(func(c *Scenario) { c.Targets = []int{1, 2, 0} }),
		with(func(c *Scenario) { c.Targets = []int{-1, 2} }),
		with(func(c *Scenario) { c.Intensity.Prob = 0 }),
		with(func(c *Scenario) { c.Intensity.Prob = negZero }),
		with(func(c *Scenario) { c.Intensity.Prob = math.Nextafter(0.5, 1) }),
		with(func(c *Scenario) { c.Intensity.Skew = -3 }),
		with(func(c *Scenario) { c.Intensity.Extra, c.Intensity.Jitter = 3, 0 }),
		with(func(c *Scenario) { c.Intensity.Extra, c.Intensity.Jitter = 0, 3 }),
		with(func(c *Scenario) { c.Window = Window{From: 9, To: 3} }),
		with(func(c *Scenario) { c.Kind = fault.Reorder }),
	} {
		check(s)
	}
}
