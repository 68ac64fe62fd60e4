package dsim

import (
	"testing"

	"repro/internal/slab"
)

// PoisonRewound makes every Reset, for the rest of the test, overwrite the
// run-scoped memory it rewinds and the heap pages it recycles, so that
// anything that outlives its run reads as garbage instead of as the next
// run's data (slab.Poison). A correct caller cannot tell.
func PoisonRewound(t testing.TB) {
	was := slab.Poison(true)
	t.Cleanup(func() { slab.Poison(was) })
}
