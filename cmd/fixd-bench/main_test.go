package main

import "testing"

// TestRunnersComplete: every experiment the suite knows is reachable via
// -only, including the chaos matrix.
func TestRunnersComplete(t *testing.T) {
	for _, id := range []string{"E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E9", "E10", "E11", "E12", "ABL"} {
		if runners[id] == nil {
			t.Errorf("experiment %s not registered", id)
		}
	}
}

// TestRunnerProducesTable: the -only path yields a printable table.
func TestRunnerProducesTable(t *testing.T) {
	tbl := runners["E1"](true)
	if tbl.ID != "E1" || len(tbl.Rows) == 0 || len(tbl.Format()) == 0 {
		t.Errorf("E1 quick table broken: %+v", tbl)
	}
}
