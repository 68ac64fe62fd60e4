// Property test guarding the chaos engine's foundation: the simulator is
// bit-for-bit deterministic under fault injection. It lives in an external
// test package so it can drive dsim through the chaos scenario DSL.
package dsim_test

import (
	"slices"
	"sort"
	"testing"

	"repro/internal/apps"
	"repro/internal/chaos"
	"repro/internal/dsim"
	"repro/internal/fault"
	"repro/internal/scroll"
)

// TestScrollDigestDeterminism: identical seed + scenario ⇒ byte-identical
// merged-scroll digest across 50 runs, for every registered application,
// under a composed schedule that exercises every injection hook (crash,
// partition, delay, reorder, duplication, drop and clock skew at once).
func TestScrollDigestDeterminism(t *testing.T) {
	for _, spec := range apps.Registry() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			runner := chaos.Runner{Spec: spec, Seed: 1234, Probe: true}
			procs := runner.Procs()
			sched := chaos.Schedule{}
			for _, kind := range chaos.MatrixKinds {
				sched = append(sched,
					chaos.Generate(kind, procs, runner.Crashable(), spec.Horizon, 1234))
			}
			want := runner.Run(sched)
			if want.Stats.Steps == 0 {
				t.Fatal("empty run; scenario generation is broken")
			}
			for i := 0; i < 49; i++ {
				if got := runner.Run(sched); got.Digest != want.Digest {
					t.Fatalf("run %d diverged: digest %s != %s",
						i+2, got.Digest[:12], want.Digest[:12])
				}
			}
		})
	}
}

// TestScrollDigestSensitivity: the digest actually discriminates — a
// different seed or a different scenario produces a different digest
// (otherwise the 50-run property above would be vacuous).
func TestScrollDigestSensitivity(t *testing.T) {
	spec := apps.Registry()[0]
	base := chaos.Runner{Spec: spec, Seed: 1, Probe: true}
	sched := chaos.Schedule{{
		Kind: fault.Drop, Window: chaos.Window{From: 5, To: 60},
		Intensity: chaos.Intensity{Prob: 0.4},
	}}
	d1 := base.Run(sched).Digest
	otherSeed := chaos.Runner{Spec: spec, Seed: 2, Probe: true}
	if d2 := otherSeed.Run(sched).Digest; d2 == d1 {
		t.Error("different seeds produced identical digests")
	}
	if d3 := base.Run(nil).Digest; d3 == d1 {
		t.Error("injected faults left no trace in the digest")
	}
}

// TestAddProcessOrderDoesNotChangeRun: a seed determines the run whatever
// order the caller adds processes in. The periodic-checkpoint stagger used
// to come from insertion position, so a caller ranging over a map of
// machines (experiments E5 and E6 did) got a different run each time.
func TestAddProcessOrderDoesNotChangeRun(t *testing.T) {
	for _, spec := range apps.Registry() {
		digest := func(reversed bool) string {
			cfg := spec.Config(false)
			cfg.Seed, cfg.CheckpointEvery = 7, 3
			ms := spec.Make(false)
			ids := make([]string, 0, len(ms))
			for id := range ms {
				ids = append(ids, id)
			}
			sort.Strings(ids)
			if reversed {
				slices.Reverse(ids)
			}
			s := dsim.New(cfg)
			for _, id := range ids {
				s.AddProcess(id, ms[id])
			}
			if s.Run().Checkpoints == 0 {
				t.Fatalf("%s: no periodic checkpoint taken; the test would be vacuous", spec.Name)
			}
			return scroll.Digest(s.MergedScroll())
		}
		if sorted, rev := digest(false), digest(true); sorted != rev {
			t.Errorf("%s: added in sorted order the run digests %s, in reverse %s", spec.Name, sorted[:12], rev[:12])
		}
	}
}
