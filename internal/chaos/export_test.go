package chaos

import (
	"encoding/json"
	"testing"

	"repro/internal/dsim"
	"repro/internal/scroll"
	"repro/internal/slab"
)

// PoisonRewound makes the pooled run arenas, for the rest of the test,
// overwrite what Sim.Reset rewinds and recycles (slab.Poison): a RunResult
// that kept a reference into its arena changes under the next run.
func PoisonRewound(t testing.TB) {
	was := slab.Poison(true)
	t.Cleanup(func() { slab.Poison(was) })
}

// RandomSearch is the blind-sampling baseline guided search is measured
// against at the same budget: it evaluates the seeded single-scenario
// schedules the matrix would generate (kinds × seeds in matrix order) and
// keeps the identical coverage bookkeeping, but never mutates.
func RandomSearch(cfg SearchConfig) *SearchReport { return search(cfg, StrategyRandom) }

// reloaded is a written out and read back the way an artifact file is.
func reloaded(t testing.TB, a *Artifact) *Artifact {
	t.Helper()
	raw, err := json.MarshalIndent(a, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	var back Artifact
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	return &back
}

// RunFresh is the reference the path-equivalence tests hold Runner.Run to:
// the same schedule on a simulation built for this one run, its digest
// taken in one batch over the materialized merged scroll and its shape by a
// Fingerprinter made for this run. It shares no state with the pooled
// path — no arena, no Sim.Reset, no reused fingerprinter — so a pooled-path
// bug cannot cancel out of the comparison. (scroll's own tests hold the
// streaming shape to a batch reference model.)
func (r Runner) RunFresh(sched Schedule) *RunResult {
	cfg := r.Spec.Config(r.Buggy)
	cfg.Seed = r.Seed
	s := dsim.New(cfg)
	res := r.execute(sched, &runArena{sim: s})
	res.Digest = scroll.Digest(s.MergedScroll())
	var fp scroll.Fingerprinter
	_, res.Shape = fp.Fingerprint(s.Scrolls(), ShapeBucket)
	return res
}
