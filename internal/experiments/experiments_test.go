package experiments

import (
	"strconv"
	"strings"
	"testing"
)

func TestTableFormat(t *testing.T) {
	tbl := &Table{ID: "EX", Title: "demo", Header: []string{"a", "longer"}}
	tbl.Add(1, 2.5)
	tbl.Note("hello %d", 7)
	out := tbl.Format()
	for _, want := range []string{"== EX — demo ==", "a", "longer", "2.50", "note: hello 7"} {
		if !strings.Contains(out, want) {
			t.Errorf("Format missing %q:\n%s", want, out)
		}
	}
}

func TestE1ScrollReplayFidelity(t *testing.T) {
	tbl := RunE1(true)
	if len(tbl.Rows) == 0 {
		t.Fatal("no rows")
	}
	for _, row := range tbl.Rows {
		if row[len(row)-1] != "true" {
			t.Errorf("replay not ok in row %v", row)
		}
	}
}

func TestE2COWScalesWithDirtyNotHeap(t *testing.T) {
	tbl := RunE2(true)
	if len(tbl.Rows) < 4 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	// Full-copy checkpoints must be slower than plain COW snapshots on the
	// largest heap / smallest dirty fraction configuration.
	var fullNs, cowNs int64
	for _, row := range tbl.Rows {
		heapKiB, _ := strconv.Atoi(row[0])
		dirty, _ := strconv.Atoi(row[1])
		if heapKiB >= 256 && dirty <= 10 {
			fullNs, _ = strconv.ParseInt(row[2], 10, 64)
			cowNs, _ = strconv.ParseInt(row[3], 10, 64)
		}
	}
	if fullNs == 0 || cowNs == 0 {
		t.Fatal("expected 256KiB/10%% row")
	}
	if fullNs < cowNs {
		t.Errorf("full (%d ns) should cost more than COW snapshot (%d ns)", fullNs, cowNs)
	}
}

func TestE3BothApproachesFindBug(t *testing.T) {
	tbl := RunE3(true)
	if len(tbl.Rows) != 2 {
		t.Fatalf("rows = %v", tbl.Rows)
	}
	for _, row := range tbl.Rows {
		trails, _ := strconv.Atoi(row[3])
		if trails == 0 {
			t.Errorf("approach %s found no trails", row[0])
		}
	}
}

func TestE4MessagesLinear(t *testing.T) {
	tbl := RunE4(true)
	for _, row := range tbl.Rows {
		n, _ := strconv.Atoi(row[0])
		msgs, err := strconv.Atoi(row[1])
		if err != nil {
			t.Fatalf("row %v: no response", row)
		}
		if want := 2 * (n - 1); msgs != want {
			t.Errorf("n=%d msgs=%d want %d", n, msgs, want)
		}
	}
}

func TestE5UpdatePreservesWorkRestartDoesNot(t *testing.T) {
	tbl := RunE5(true)
	if len(tbl.Rows) != 2 {
		t.Fatalf("rows = %v", tbl.Rows)
	}
	restart, update := tbl.Rows[0], tbl.Rows[1]
	if restart[0] != "restart" || update[0] != "update+resume" {
		t.Fatalf("unexpected row order: %v", tbl.Rows)
	}
	if restart[2] != "0" {
		t.Errorf("restart preserved %s, want 0", restart[2])
	}
	preserved, _ := strconv.Atoi(update[2])
	if preserved <= 0 {
		t.Errorf("update preserved %d, want > 0", preserved)
	}
	if update[5] != "true" {
		t.Errorf("healed run lost credits: %v", update)
	}
}

func TestE6CICBoundedUncoordinatedWorse(t *testing.T) {
	tbl := RunE6(true)
	maxByPolicy := map[string]int{}
	for _, row := range tbl.Rows {
		d, _ := strconv.Atoi(row[3])
		if d > maxByPolicy[row[0]] {
			maxByPolicy[row[0]] = d
		}
	}
	if maxByPolicy["cic"] > 1 {
		t.Errorf("CIC max rollback = %d, want <= 1", maxByPolicy["cic"])
	}
	if maxByPolicy["uncoordinated"] < maxByPolicy["cic"] {
		t.Errorf("uncoordinated (%d) should not beat CIC (%d)",
			maxByPolicy["uncoordinated"], maxByPolicy["cic"])
	}
}

func TestE7ExponentialGrowth(t *testing.T) {
	tbl := RunE7(true)
	var growths []float64
	for _, row := range tbl.Rows {
		if row[1] != "bfs" {
			continue
		}
		g, _ := strconv.ParseFloat(row[6], 64)
		if g > 0 {
			growths = append(growths, g)
		}
	}
	if len(growths) < 2 {
		t.Fatalf("growth factors = %v", growths)
	}
	for _, g := range growths {
		if g < 2 {
			t.Errorf("growth factor %.2f < 2: state space not exploding as §2.1 claims", g)
		}
	}
	// Heuristic search must reach the bug with fewer states than BFS.
	var bfsStates, heurStates int
	for _, row := range tbl.Rows {
		if row[1] == "bfs-to-bug" {
			bfsStates, _ = strconv.Atoi(row[2])
		}
		if row[1] == "heuristic-to-bug" {
			heurStates, _ = strconv.Atoi(row[2])
		}
	}
	if heurStates == 0 || bfsStates == 0 {
		t.Fatal("missing to-bug rows")
	}
	if heurStates > bfsStates {
		t.Errorf("heuristic (%d states) worse than BFS (%d)", heurStates, bfsStates)
	}
}

func TestE8MatrixMatchesPaper(t *testing.T) {
	// The generated matrix must equal Figure 8 of the paper, row by row.
	want := map[string][5]bool{
		"Model Checking (MC)":        {true, false, false, true, false},
		"Logging (L)":                {false, true, false, false, true},
		"Checkpoint & Rollback (CR)": {false, false, false, false, true},
		"Dynamic Updates (DU)":       {false, false, true, false, false},
		"Speculations (S)":           {false, false, true, false, true},
		"liblog (L & CR)":            {false, true, false, false, true},
		"CMC (MC)":                   {false, false, false, false, true},
		"FixD (MC & L & S & DU)":     {true, true, true, true, true},
	}
	rows := PaperMatrix()
	if len(rows) != len(want) {
		t.Fatalf("rows = %d, want %d", len(rows), len(want))
	}
	for _, r := range rows {
		w, ok := want[r.Name]
		if !ok {
			t.Errorf("unexpected row %q", r.Name)
			continue
		}
		for i, c := range Capabilities {
			if r.Has[c] != w[i] {
				t.Errorf("%s / %v = %v, want %v", r.Name, c, r.Has[c], w[i])
			}
		}
	}
}

func TestE8AllDemosPass(t *testing.T) {
	for _, r := range PaperMatrix() {
		for c, demo := range r.Demos {
			if err := demo(); err != nil {
				t.Errorf("%s / %v demo failed: %v", r.Name, c, err)
			}
		}
	}
}

func TestCapabilityString(t *testing.T) {
	if Preventive.String() != "preventive" || Capability(99).String() != "Capability(99)" {
		t.Error("Capability.String broken")
	}
}

func TestSuiteQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("suite is slow")
	}
	tables := Suite(true)
	if len(tables) != 13 {
		t.Fatalf("tables = %d", len(tables))
	}
	for _, tbl := range tables {
		if len(tbl.Rows) == 0 {
			t.Errorf("%s has no rows", tbl.ID)
		}
		if out := tbl.Format(); len(out) == 0 {
			t.Errorf("%s formats empty", tbl.ID)
		}
	}
}

func TestAblationsTable(t *testing.T) {
	tbl := RunAblations(true)
	if len(tbl.Rows) != 3 {
		t.Fatalf("rows = %v", tbl.Rows)
	}
	// A2: with the alternate path, zero buggy regenerations after recovery.
	if tbl.Rows[0][2] != "0" {
		t.Errorf("A2 with-alternate = %s, want 0", tbl.Rows[0][2])
	}
	without, _ := strconv.Atoi(tbl.Rows[0][3])
	if without <= 0 {
		t.Errorf("A2 without-alternate = %d, want > 0 (bug re-fires)", without)
	}
	// A3: heuristic needs no more states than BFS.
	heur, _ := strconv.Atoi(tbl.Rows[1][2])
	bfs, _ := strconv.Atoi(tbl.Rows[1][3])
	if heur > bfs {
		t.Errorf("A3 heuristic %d > bfs %d", heur, bfs)
	}
	// A5: environment models enlarge coverage.
	rich, _ := strconv.Atoi(tbl.Rows[2][2])
	plain, _ := strconv.Atoi(tbl.Rows[2][3])
	if rich <= plain {
		t.Errorf("A5 rich %d <= plain %d", rich, plain)
	}
}

// TestE5E6StableAcrossRuns: both experiments add their processes by ranging
// over a map, and a seeded simulation must not care — every column but E5's
// wall-clock one is the same on every run.
func TestE5E6StableAcrossRuns(t *testing.T) {
	cells := func(tbl *Table) string {
		var b strings.Builder
		for _, row := range tbl.Rows {
			if tbl.ID == "E5" {
				row = row[:len(row)-1] // ms
			}
			b.WriteString(strings.Join(row, " ") + "\n")
		}
		return b.String()
	}
	for _, run := range []func(bool) *Table{RunE5, RunE6} {
		want := cells(run(true))
		for i := 0; i < 3; i++ {
			if got := cells(run(true)); got != want {
				t.Fatalf("run %d differs from the first:\n%s\nfirst:\n%s", i+2, got, want)
			}
		}
	}
}
