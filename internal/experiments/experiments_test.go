package experiments

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/checkpoint"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/<ID>.txt from the code under test")

// suite is the one Suite run every test below reads.
var suite = sync.OnceValues(func() ([]*Table, error) { return Suite() })

// table returns the named table of the shared suite run.
func table(t *testing.T, id string) *Table {
	t.Helper()
	tables, err := suite()
	if err != nil {
		t.Fatal(err)
	}
	for _, tbl := range tables {
		if tbl.ID == id {
			return tbl
		}
	}
	t.Fatalf("suite printed no table %s", id)
	return nil
}

// TestTablesMatchGoldens: every table prints byte for byte what its
// golden, testdata/<ID>.txt, holds, and every golden is a table's.
// Regenerate with -update only when a table is meant to move.
func TestTablesMatchGoldens(t *testing.T) {
	tables, err := suite()
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != len(experiments) {
		t.Fatalf("suite printed %d tables, want %d", len(tables), len(experiments))
	}
	for i, tbl := range tables {
		if tbl.ID != experiments[i].id {
			t.Errorf("experiment %s printed table %s", experiments[i].id, tbl.ID)
		}
		if len(tbl.Rows) == 0 {
			t.Errorf("%s has no rows", tbl.ID)
		}
		path := filepath.Join("testdata", tbl.ID+".txt")
		got := tbl.Format()
		if *updateGolden {
			if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if got != string(want) {
			t.Errorf("%s drifted from %s (re-run with -update only if the change is intended)\ngot:\n%swant:\n%s",
				tbl.ID, path, got, want)
		}
	}
	paths, err := filepath.Glob(filepath.Join("testdata", "*.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != len(tables) {
		t.Errorf("testdata holds %d goldens for %d tables: %v", len(paths), len(tables), paths)
	}
}

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
	for _, row := range table(t, "E1").Rows {
		if row[len(row)-1] != "true" {
			t.Errorf("replay not ok in row %v", row)
		}
	}
}

// TestE2COWScalesWithDirtyNotHeap is Figure 2's claim (ablation A1, paper
// §4.2: speculation-style checkpoints cost less than traditional ones)
// measured in bytes, not time: a copy-on-write checkpoint followed by a
// write set allocates its page table plus the dirty pages, never the heap.
// A full copy of the 1 MiB heap would allocate 1 MiB at every dirty
// fraction. checkpoint.TestCOWCopiesOnlyDirtyPages counts the copies from
// inside the package.
func TestE2COWScalesWithDirtyNotHeap(t *testing.T) {
	const pageSize = 4096
	for _, size := range []int{64 << 10, 256 << 10, 1 << 20} {
		for _, pct := range []int{1, 10, 50, 100} {
			pages := size / pageSize
			dirty := max(pages*pct/100, 1)
			h := checkpoint.NewHeapPages(size, pageSize)
			for p := 0; p < pages; p++ {
				h.Write(p*pageSize, []byte{1}) // every page exists before the snapshot
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			h.Snapshot()
			for p := 0; p < dirty; p++ {
				h.Write(p*pageSize+16, []byte{2})
			}
			runtime.ReadMemStats(&after)
			// Copy-on-write allocates pages, each with a header under 64
			// bytes, in batches of up to 8, so at most 8 past the dirty set,
			// and lists each page it displaced; the page table is 8 bytes a
			// page.
			bound := (dirty+8)*(pageSize+64) + 16*dirty + 8*pages + 4<<10
			if got := int(after.TotalAlloc - before.TotalAlloc); got > bound {
				t.Errorf("%d KiB heap, %d%% dirty: checkpoint + writes allocated %d bytes, want <= %d",
					size>>10, pct, got, bound)
			}
		}
	}
}

func TestE3BothApproachesFindBug(t *testing.T) {
	tbl := table(t, "E3")
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
	for _, row := range table(t, "E4").Rows {
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
	tbl := table(t, "E5")
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
	maxByPolicy := map[string]int{}
	for _, row := range table(t, "E6").Rows {
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
	tbl := table(t, "E7")
	var growths []float64
	for _, row := range tbl.Rows {
		if row[1] != "bfs" {
			continue
		}
		if g, err := strconv.ParseFloat(row[5], 64); err == nil {
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
	// Heuristic search must reach the bug with fewer states than BFS (A3).
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

// TestE8AllDemosPass: every tool row's executable demos pass.
func TestE8AllDemosPass(t *testing.T) {
	for _, row := range table(t, "E8").Rows {
		cell := row[len(row)-1]
		if cell == "(taxonomy)" {
			continue
		}
		var passed, total int
		if n, _ := fmt.Sscanf(cell, "%d/%d pass", &passed, &total); n != 2 || passed != total {
			t.Errorf("%s: demos %s", row[0], cell)
		}
	}
}

func TestCapabilityString(t *testing.T) {
	if Preventive.String() != "preventive" || Capability(99).String() != "Capability(99)" {
		t.Error("Capability.String broken")
	}
}

// TestE9ChaosTable: every cell of the matrix passes on every seed, and the
// seeded-bug pipeline completes for every application.
func TestE9ChaosTable(t *testing.T) {
	tbl := table(t, "E9")
	if len(tbl.Rows) != 5 {
		t.Fatalf("rows = %d, want 5 apps", len(tbl.Rows))
	}
	for _, row := range tbl.Rows {
		app := row[0]
		for i, cell := range row[1 : len(row)-1] {
			if cell != "4/4" {
				t.Errorf("%s/%s: cell %q is not a full pass", app, tbl.Header[i+1], cell)
			}
		}
		if pipe := row[len(row)-1]; !strings.HasPrefix(pipe, "complete@") {
			t.Errorf("%s: pipeline %q incomplete", app, pipe)
		}
	}
}

func TestAblationsTable(t *testing.T) {
	tbl := table(t, "ABL")
	if len(tbl.Rows) != 2 {
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
	// A5: environment models enlarge coverage.
	rich, _ := strconv.Atoi(tbl.Rows[1][2])
	plain, _ := strconv.Atoi(tbl.Rows[1][3])
	if rich <= plain {
		t.Errorf("A5 rich %d <= plain %d", rich, plain)
	}
}

// TestE5E6StableAcrossRuns: both experiments add their processes by ranging
// over a map, and a seeded simulation must not care — every run prints the
// same table.
func TestE5E6StableAcrossRuns(t *testing.T) {
	for _, run := range []func() *Table{runE5, runE6} {
		for i := 0; i < 3; i++ {
			tbl := run()
			if got, want := tbl.Format(), table(t, tbl.ID).Format(); got != want {
				t.Fatalf("run %d of %s differs from the suite's:\n%s\nsuite:\n%s", i+2, tbl.ID, got, want)
			}
		}
	}
}
