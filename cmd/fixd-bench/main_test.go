package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/experiments"
)

// TestRunnersComplete: every committed table is reachable by its ID, and
// an unknown ID is refused.
func TestRunnersComplete(t *testing.T) {
	paths, err := filepath.Glob("../../internal/experiments/testdata/*.txt")
	if err != nil || len(paths) == 0 {
		t.Fatalf("no experiment goldens (%v)", err)
	}
	for _, path := range paths {
		id := strings.TrimSuffix(filepath.Base(path), ".txt")
		tables, err := experiments.Suite(id)
		if err != nil || len(tables) != 1 || tables[0].ID != id {
			t.Errorf("-only %s: %d tables, %v", id, len(tables), err)
		}
	}
	if _, err := experiments.Suite("E0"); err == nil {
		t.Error("unknown experiment accepted")
	}
}

// TestRunnerProducesTable: the -only path prints its golden byte for byte.
func TestRunnerProducesTable(t *testing.T) {
	want, err := os.ReadFile("../../internal/experiments/testdata/E1.txt")
	if err != nil {
		t.Fatal(err)
	}
	tables, err := experiments.Suite("E1")
	if err != nil || len(tables) != 1 {
		t.Fatalf("Suite(E1) = %d tables, %v", len(tables), err)
	}
	if got := tables[0].Format(); got != string(want) {
		t.Errorf("-only E1 prints\n%s\nwant the golden\n%s", got, want)
	}
}
