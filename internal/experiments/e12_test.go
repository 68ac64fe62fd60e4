package experiments

import (
	"bytes"
	"testing"

	"repro/internal/apps"
	"repro/internal/chaos"
	"repro/internal/fault"
	"repro/internal/repair"
)

// TestE12ZooAcceptance: the scenario zoo end to end (E12 prints no table).
// A sweep of the opt-in kinds (corruption, slow nodes) over the zoo
// workloads' correct variants: corruption — and only corruption — breaks
// the cache-aside workload, whose authority invariant assumes honest
// payloads, and the microservice chain's bounded retries absorb both. Then
// detect → search → shrink → repair on mservice's seeded timeout cascade:
// the artifact replays, and the repair fixes it byte-identically at 1 and
// 2 workers.
func TestE12ZooAcceptance(t *testing.T) {
	kinds := []fault.Kind{fault.Corrupt, fault.SlowNode}
	// Corruption violates only when the flipped byte lands on a fill's
	// version digit, so hits are rare; the sweep is wider than E9's.
	seeds := make([]int64, 48)
	for i := range seeds {
		seeds[i] = int64(i + 1)
	}
	rep := chaos.RunMatrix(chaos.MatrixConfig{Apps: apps.Zoo(), Kinds: kinds, Seeds: seeds,
		Workers: 2, CheckEvery: searchCheckEvery})
	cells, violating := map[string]int{}, map[string]int{}
	for _, c := range rep.Cells {
		key := c.App + "/" + c.Kind.String()
		cells[key]++
		if len(c.Result.Violations) > 0 {
			violating[key]++
		}
	}
	for _, spec := range apps.Zoo() {
		for _, kind := range kinds {
			if key := spec.Name + "/" + kind.String(); cells[key] == 0 {
				t.Errorf("%s: no cells", key)
			}
		}
	}
	if violating["mservice/corrupt"] != 0 || violating["mservice/slow-node"] != 0 {
		t.Errorf("mservice should absorb both opt-in kinds: %v", violating)
	}
	if violating["cacheaside/slow-node"] != 0 {
		t.Errorf("slow nodes cannot produce stale state: %v", violating)
	}
	if violating["cacheaside/corrupt"] == 0 {
		t.Errorf("corruption never broke the correct cache-aside variant in %d seeds", len(seeds))
	}

	spec, err := apps.Lookup("mservice")
	if err != nil {
		t.Fatal(err)
	}
	fails := chaos.Search(chaos.SearchConfig{Apps: []apps.AppSpec{spec}, Buggy: true, Seed: 1,
		Budget: 32, CheckEvery: searchCheckEvery, ExtraKinds: kinds}).Failures()
	if len(fails) == 0 || fails[0].Artifact == nil {
		t.Fatal("mservice pipeline: no artifact found in 32 runs")
	}
	if err := fails[0].Artifact.Verify(); err != nil {
		t.Fatalf("mservice artifact does not replay: %v", err)
	}
	var reports [][]byte
	for _, workers := range []int{1, 2} {
		rrep, err := repair.Repair(repair.Config{Artifact: fails[0].Artifact, Seed: 1,
			CheckEvery: searchCheckEvery, Workers: workers})
		if err != nil {
			t.Fatalf("mservice repair (workers=%d): %v", workers, err)
		}
		if !rrep.Fixed {
			t.Errorf("mservice repair (workers=%d) did not fix the timeout cascade", workers)
		}
		raw, err := rrep.JSON()
		if err != nil {
			t.Fatal(err)
		}
		reports = append(reports, raw)
	}
	if !bytes.Equal(reports[0], reports[1]) {
		t.Error("mservice repair report differs at 1 vs 2 workers")
	}
}
