package experiments

import (
	"fmt"
	"testing"

	"repro/internal/guard"
	"repro/internal/modeld"
)

// BenchmarkE7ModelDExplore measures the ModelD engine (Figure 7) on the safe
// n-process mutex model: exhaustive BFS, no violation.
func BenchmarkE7ModelDExplore(b *testing.B) {
	for _, n := range []int{2, 3, 4, 5} {
		b.Run(fmt.Sprintf("procs=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				root, engine := guard.Mutex(n, false)
				res := engine.Explore(root, modeld.Options{Strategy: modeld.BFS, MaxStates: 2_000_000})
				if res.Truncated || len(res.Violations) != 0 {
					b.Fatalf("unexpected result: %+v", res)
				}
			}
		})
	}
}
