package main

import (
	"crypto/sha256"
	"encoding/hex"
	"sort"

	"repro/internal/apps"
	"repro/internal/dsim"
)

// scale fixes the amount of work in one rep. full is sized for ≥ 2 s reps
// on the 2-core reference box; tiny exists for bench_test.go.
type scale struct {
	reps   int // timed reps per workload, at least; more until -seconds have passed
	setups int // cold set-ups per workload; setup_s is their median

	matrixSeeds int // matrix_sweep: seeds S..S+n-1 per app × kind

	huntSets   int // bug_hunt and fleet_hunt: work sets the timed reps cycle through
	huntSeeds  int // seeds per work set: set i searches S+i*n .. S+(i+1)*n-1
	huntBudget int // phase (a): executions per app
	kvBudget   int // phase (b): executions on JitterFreeKV
	repairApps int // phase (c): knobbed applications repaired per seed

	ringRounds, kvWrites, bankTransfers int // long_replay: the three long sims

	probeIters int // iterations of each leaf-layer probe
}

var scales = map[string]scale{
	"full": {reps: 5, setups: 3, matrixSeeds: 96, huntSets: 5, huntSeeds: 2, huntBudget: 192, kvBudget: 320, repairApps: 5,
		ringRounds: 2800, kvWrites: 7000, bankTransfers: 14000, probeIters: 200_000},
	"tiny": {reps: 1, setups: 1, matrixSeeds: 1, huntSets: 2, huntSeeds: 1, huntBudget: 12, kvBudget: 32, repairApps: 1,
		ringRounds: 20, kvWrites: 60, bankTransfers: 60, probeIters: 2_000},
}

func newWorkload(name string, opt options, tmp string) workload {
	switch name {
	case "matrix_sweep":
		return &matrixSweep{opt: opt}
	case "bug_hunt":
		return &bugHunt{opt: opt}
	case "fleet_hunt":
		return &fleetHunt{opt: opt, tmp: tmp}
	case "long_replay":
		return &longReplay{opt: opt, tmp: tmp}
	}
	panic("bench: BENCHMARK.json names a workload the harness does not implement: " + name)
}

// allApps is the application set the chaos workloads sweep: the matrix
// registry plus the scenario zoo.
func allApps() []apps.AppSpec { return append(apps.Registry(), apps.Zoo()...) }

// seedsOfSet are the seeds one work set of the hunts searches.
func seedsOfSet(opt options, set int) []int64 {
	n := opt.scale.huntSeeds
	return seedsFrom(opt.seed+int64(set*n), n)
}

func seedsFrom(base int64, n int) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = base + int64(i)
	}
	return out
}

func hashOf(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

func sortedIDs(ms map[string]dsim.Machine) []string {
	ids := make([]string, 0, len(ms))
	for id := range ms {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}
