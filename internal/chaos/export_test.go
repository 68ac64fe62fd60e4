package chaos

import (
	"testing"

	"repro/internal/slab"
)

// PoisonRewound makes the pooled run arenas, for the rest of the test,
// overwrite what Sim.Reset rewinds and recycles (slab.Poison): a RunResult
// that kept a reference into its arena changes under the next run.
func PoisonRewound(t testing.TB) {
	was := slab.Poison(true)
	t.Cleanup(func() { slab.Poison(was) })
}
