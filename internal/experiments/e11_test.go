package experiments

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/repair"
)

// TestE11RepairsThreeApps: the acceptance claim — the knob-space repair
// stage fixes every application whose seeded bug actually is a timeout
// misconfiguration (twopc, election, tokenring) and reports an honest
// failure for kvstore, whose blind-apply bug no latency knob can fix.
func TestE11RepairsThreeApps(t *testing.T) {
	tbl := RunE11(true)
	if len(tbl.Rows) != len(repairApps) {
		t.Fatalf("got %d rows, want %d", len(tbl.Rows), len(repairApps))
	}
	want := map[string]string{
		"twopc": "true", "election": "true", "tokenring": "true",
		"kvstore": "false",
	}
	for _, row := range tbl.Rows {
		app, fixed, winner := row[0], row[4], row[5]
		if fixed != want[app] {
			t.Errorf("%s: fixed=%s, want %s (row %v)", app, fixed, want[app], row)
			continue
		}
		if fixed == "true" && winner == "-" {
			t.Errorf("%s: fixed but no winning assignment", app)
		}
		if fixed == "false" && winner != "-" {
			t.Errorf("%s: not fixed but reports winner %q", app, winner)
		}
	}
	found := false
	for _, n := range tbl.Notes {
		if strings.Contains(n, "repaired 3/4") {
			found = true
		}
	}
	if !found {
		t.Errorf("no repaired-3/4 note in %v", tbl.Notes)
	}
}

// TestRepairBenchQuick: E11's quick operating point app by app — three
// repaired applications, each report byte-identical at 2 workers and 1.
func TestRepairBenchQuick(t *testing.T) {
	repaired := 0
	for _, app := range repairApps {
		a, err := findRepairArtifact(app, 16)
		if err != nil {
			t.Fatal(err)
		}
		var out [2][]byte
		for i, workers := range []int{2, 1} {
			cfg := repairConfig(a, true)
			cfg.Workers = workers
			rep, err := repair.Repair(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if out[i], err = rep.JSON(); err != nil {
				t.Fatalf("%s: report does not render: %v", app, err)
			}
			if i == 0 && rep.Fixed {
				repaired++
				if rep.Runs <= 0 {
					t.Errorf("%s: fixed with %d runs-to-fix", app, rep.Runs)
				}
			}
		}
		if !bytes.Equal(out[0], out[1]) {
			t.Errorf("%s: report not byte-identical at 1 vs 2 workers", app)
		}
	}
	if repaired != 3 {
		t.Errorf("repaired %d apps, want 3", repaired)
	}
}
