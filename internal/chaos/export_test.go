package chaos

import (
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

// RunFresh is the reference the path-equivalence tests hold Runner.Run to:
// the same schedule on a simulation built for this one run, fingerprinted
// in one batch over the materialized merged scroll. It shares no state
// with the pooled path — no arena, no Sim.Reset, no streaming
// fingerprinter — so a pooled-path bug cannot cancel out of the comparison.
func (r Runner) RunFresh(sched Schedule) *RunResult {
	cfg := r.Spec.Config(r.Buggy)
	cfg.Seed = r.Seed
	s := dsim.New(cfg)
	res := r.execute(sched, s)
	merged := s.MergedScroll()
	res.Digest = scroll.Digest(merged)
	res.Shape = scroll.Shape(merged, ShapeBucket)
	return res
}
