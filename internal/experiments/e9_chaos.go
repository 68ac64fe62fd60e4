package experiments

import (
	"fmt"

	"repro/internal/apps"
	"repro/internal/chaos"
	"repro/internal/fault"
)

// runE9 runs the chaos matrix: the scenario-diversity sweep (every fault
// kind × every workload application × seeds, each cell checked for
// invariant safety and replay determinism) plus one full detect → report
// → recover pipeline execution per application's seeded-bug variant.
func runE9() *Table {
	seeds := []int64{1, 2, 3, 4}
	t := &Table{
		ID:    "E9",
		Title: "Chaos matrix: fault scenarios × applications × seeds",
	}
	t.Header = append(t.Header, "app")
	for _, k := range chaos.MatrixKinds {
		t.Header = append(t.Header, k.String())
	}
	t.Header = append(t.Header, "pipeline")

	rep := chaos.RunMatrix(chaos.MatrixConfig{Seeds: seeds})
	pass := map[string]map[fault.Kind]int{}
	for _, c := range rep.Cells {
		if pass[c.App] == nil {
			pass[c.App] = map[fault.Kind]int{}
		}
		if c.Pass() {
			pass[c.App][c.Kind]++
		}
	}
	for _, spec := range apps.Registry() {
		cells := []any{spec.Name}
		for _, k := range chaos.MatrixKinds {
			cells = append(cells, fmt.Sprintf("%d/%d", pass[spec.Name][k], len(seeds)))
		}
		cells = append(cells, pipelineSummary(spec))
		t.Add(cells...)
	}
	t.Note("cell = scenarios passing invariant+determinism checks out of %d seeds", len(seeds))
	t.Note("pipeline = detect → trail → replay → heal → invariants restored on the seeded-bug variant")
	return t
}

// pipelineSummary runs the buggy-variant pipeline at the first seed that
// completes all stages (falling back to the first that at least detects)
// and renders the outcome.
func pipelineSummary(spec apps.AppSpec) string {
	partial := ""
	for seed := int64(1); seed <= 8; seed++ {
		p := chaos.RunPipeline(spec, seed)
		if p.Complete() {
			det := "local"
			if !p.LocalDetect {
				det = "monitor"
			}
			return fmt.Sprintf("complete@s%d (%s)", seed, det)
		}
		if p.Detected && partial == "" {
			partial = fmt.Sprintf("partial@s%d trail=%v replay=%v heal=%v recovered=%v",
				seed, p.TrailFound, p.ReplayClean, p.HealOK, p.Recovered)
		}
	}
	if partial != "" {
		return partial
	}
	return "bug not provoked in seeds 1..8"
}
