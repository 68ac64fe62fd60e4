package experiments

import (
	"strconv"
	"strings"
	"testing"

	"repro/internal/chaos"
)

// TestE10GuidedBeatsRandom: the acceptance claim — at an equal execution
// budget on the seeded-bug applications, guided search reaches strictly
// more distinct behavioral fingerprints in total than blind seeded
// sampling, and no application regresses. The controlled jitter-free
// kvstore note must report a found, shrunk, replay-verified failing
// schedule.
func TestE10GuidedBeatsRandom(t *testing.T) {
	tbl := RunE10(true)
	if len(tbl.Rows) == 0 {
		t.Fatal("no rows")
	}
	totalGuided, totalRandom := 0, 0
	for _, row := range tbl.Rows {
		g, err1 := strconv.Atoi(row[2])
		r, err2 := strconv.Atoi(row[3])
		if err1 != nil || err2 != nil {
			t.Fatalf("row %v: shape columns not numeric", row)
		}
		if g < r {
			t.Errorf("%s: guided %d < random %d distinct shapes", row[0], g, r)
		}
		totalGuided += g
		totalRandom += r
	}
	if totalGuided <= totalRandom {
		t.Errorf("guided total %d <= random total %d: coverage feedback bought nothing",
			totalGuided, totalRandom)
	}
	var controlled string
	for _, n := range tbl.Notes {
		if strings.Contains(n, "controlled jitter-free kvstore") {
			controlled = n
		}
	}
	switch {
	case controlled == "":
		t.Error("no controlled find→shrink→replay note")
	case !strings.Contains(controlled, "replay-verified"):
		t.Errorf("controlled reproduction did not verify: %s", controlled)
	}
}

// TestSearchBench: E10's operating point with shrinking on and the search
// sharded four ways — guided still beats random in total, every growth
// curve ends at the budget, and every failure carries its replayable
// artifact.
func TestSearchBench(t *testing.T) {
	cfg := chaos.SearchConfig{Apps: searchApps(), Buggy: true, Seed: 1,
		Budget: SearchBudget, Workers: 4, CheckEvery: SearchCheckEvery}
	guided := chaos.Search(cfg)
	cfg.ShrinkBudget = -1 // the baseline only measures coverage
	random := chaos.RandomSearch(cfg)
	gs, _ := guided.Totals()
	rs, _ := random.Totals()
	if gs <= rs {
		t.Errorf("guided %d shapes vs random %d: the headline claim is lost", gs, rs)
	}
	if len(guided.Apps) == 0 {
		t.Fatal("no per-app results")
	}
	for _, app := range guided.Apps {
		if len(app.Growth) == 0 {
			t.Fatalf("%s: empty growth curve", app.App)
		}
		if last := app.Growth[len(app.Growth)-1]; last.Execs != SearchBudget {
			t.Errorf("%s: growth curve ends at %d execs, want %d", app.App, last.Execs, SearchBudget)
		}
		for _, f := range app.Failures {
			if f.Artifact == nil {
				t.Errorf("%s: failure %s has no artifact", app.App, f.Schedule)
			} else if _, err := f.Artifact.JSON(); err != nil {
				t.Errorf("%s: artifact does not render: %v", app.App, err)
			}
		}
	}
}
