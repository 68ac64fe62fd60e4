package dsim_test

import (
	"maps"
	"runtime"
	"slices"
	"testing"

	"repro/internal/apps"
	"repro/internal/dsim"
)

// TestLongRunAllocsPerStep bounds what a long simulation on a FRESH
// simulator (dsim.New, nothing pooled) allocates per step while it
// checkpoints constantly — the regime of the ledger's long_replay workload
// and its dsim.allocs_per_step row, which a warm pooled run never enters:
// past the intern tables every send names a message and every checkpoint
// itself, and every first write after a checkpoint copies a page. Those are
// carved from blocks (slab.Text) and batches (checkpoint.Heap.newPage), so
// what is left per step is what the machines keep in state (kvstore's
// value strings and stable-storage cells), the scroll's segments and the
// slabs' chunks. The ceilings are the measured values (tokenring 0.0557,
// kvstore 1.3040; 0.9573 and 3.8870 while IDs and pages were an allocation
// each) plus 10 %.
func TestLongRunAllocsPerStep(t *testing.T) {
	if raceDetector {
		t.Skip("the race detector changes what allocates")
	}
	for _, tc := range []struct {
		name    string
		make    func() map[string]dsim.Machine
		ceiling float64
	}{
		{"tokenring", func() map[string]dsim.Machine {
			return apps.NewTokenRing(apps.TokenRingConfig{N: 8, Rounds: 700})
		}, 0.0613},
		{"kvstore", func() map[string]dsim.Machine {
			return apps.NewKVStore(apps.KVConfig{Replicas: 4, Writes: 3500, Keys: 64})
		}, 1.4344},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ms := tc.make()
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			s := dsim.New(dsim.Config{Seed: 7, InitCheckpoint: true, CheckpointEvery: 4, MaxSteps: 50_000_000})
			for _, id := range slices.Sorted(maps.Keys(ms)) {
				s.AddProcess(id, ms[id])
			}
			stats := s.Run()
			runtime.ReadMemStats(&after)
			if stats.Steps < 20_000 || stats.Checkpoints < stats.Steps/10 {
				t.Fatalf("%d steps, %d checkpoints: not the long, checkpointing run this test is about", stats.Steps, stats.Checkpoints)
			}
			perStep := float64(after.Mallocs-before.Mallocs) / float64(stats.Steps)
			t.Logf("%d steps, %d checkpoints, %d allocations: %.4f per step", stats.Steps, stats.Checkpoints, after.Mallocs-before.Mallocs, perStep)
			if perStep > tc.ceiling {
				t.Errorf("%.4f allocations per step, want <= %.4f", perStep, tc.ceiling)
			}
		})
	}
}
