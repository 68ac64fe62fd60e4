package modeld_test

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"hash/crc32"
	"os"
	"strings"
	"testing"

	"repro/internal/guard"
	"repro/internal/modeld"
)

var update = flag.Bool("update", false, "rewrite testdata/graph.golden from the code under test")

const graphGoldenPath = "testdata/graph.golden"

// graphRows explores every model under every graph strategy and bound,
// and renders one row per exploration: every Result counter, plus a
// digest of the deadlock keys and one of the violations (invariant, depth
// and trail, actions and state keys).
func graphRows() []byte {
	strategies := []struct {
		name string
		opts modeld.Options
	}{
		{"bfs", modeld.Options{Strategy: modeld.BFS}},
		{"dfs", modeld.Options{Strategy: modeld.DFS}},
		{"heuristic-nil", modeld.Options{Strategy: modeld.Heuristic}},
		{"heuristic-scatter", modeld.Options{Strategy: modeld.Heuristic, Heuristic: func(s modeld.State, depth int) int {
			// Not monotone in depth: ties are common and order jumps.
			return int(crc32.ChecksumIEEE([]byte(s.Key()))%5) - depth%3
		}}},
	}
	bounds := []struct {
		name string
		set  func(*modeld.Options)
	}{
		{"none", func(*modeld.Options) {}},
		{"first", func(o *modeld.Options) { o.StopAtFirstViolation = true }},
		{"depth5", func(o *modeld.Options) { o.MaxDepth = 5 }},
		{"states50", func(o *modeld.Options) { o.MaxStates = 50 }},
	}
	var buf bytes.Buffer
	for _, st := range strategies {
		for _, m := range models() {
			for _, b := range bounds {
				root, engine := m.build()
				opts := st.opts
				opts.CheckDeadlock = true
				b.set(&opts)
				res := engine.Explore(root, opts)
				fmt.Fprintf(&buf, "%s %s %s: states=%d transitions=%d maxDepth=%d truncated=%v frontierPeak=%d graphBytes=%d deadlocks=%d %s violations=%d %s\n",
					st.name, m.name, b.name,
					res.StatesVisited, res.Transitions, res.MaxDepthSeen, res.Truncated, res.FrontierPeak, res.GraphBytes,
					len(res.Deadlocks), digestDeadlocks(res), len(res.Violations), digestViolations(res))
			}
		}
	}
	return buf.Bytes()
}

type model struct {
	name  string
	build func() (modeld.State, *modeld.Engine)
}

// models are guard.Mutex(n, buggy) for n = 2..4, correct and buggy, and
// dead-ends: the mutex models never deadlock, dead-ends ends in five.
func models() []model {
	var out []model
	for n := 2; n <= 4; n++ {
		for _, buggy := range []bool{false, true} {
			out = append(out, model{fmt.Sprintf("mutex(%d,%v)", n, buggy), func() (modeld.State, *modeld.Engine) { return guard.Mutex(n, buggy) }})
		}
	}
	return append(out, model{"dead-ends", deadEnds})
}

// deadEnds walks a grid from (0,0) one step right or up at a time until
// x+y reaches 4, where no action is enabled; x >= 3 violates its invariant.
func deadEnds() (modeld.State, *modeld.Engine) {
	m := guard.NewModel().Init("x", 0).Init("y", 0)
	open := func(v guard.Vars) bool { return v.Get("x")+v.Get("y") < 4 }
	m.Action("right").When(open).Do(func(v guard.Vars) { v.Set("x", v.Get("x")+1) })
	m.Action("up").When(open).Do(func(v guard.Vars) { v.Set("y", v.Get("y")+1) })
	m.Invariant("x<3", func(v guard.Vars) bool { return v.Get("x") < 3 })
	return m.Build()
}

func digestDeadlocks(res *modeld.Result) string {
	h := sha256.New()
	for _, k := range res.Deadlocks {
		fmt.Fprintf(h, "%q\n", k)
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:8])
}

func digestViolations(res *modeld.Result) string {
	h := sha256.New()
	for _, v := range res.Violations {
		fmt.Fprintf(h, "%q %d", v.Invariant, v.Depth)
		for _, s := range v.Trail {
			fmt.Fprintf(h, " %q>%q", s.Action, s.StateKey)
		}
		fmt.Fprintln(h)
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:8])
}

// TestGraphStrategiesGolden pins what BFS, DFS and Heuristic report, row by
// row: a change to the explorer must leave every graph-strategy result,
// trail and deadlock key where it was.
func TestGraphStrategiesGolden(t *testing.T) {
	got := graphRows()
	if *update {
		if err := os.WriteFile(graphGoldenPath, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", graphGoldenPath)
		return
	}
	want, err := os.ReadFile(graphGoldenPath)
	if err != nil {
		t.Fatalf("missing fixture (record it with -update): %v", err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gotLines, wantLines := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gotLines) && i < len(wantLines); i++ {
		if gotLines[i] != wantLines[i] {
			t.Fatalf("%s line %d:\n got %s\nwant %s", graphGoldenPath, i+1, gotLines[i], wantLines[i])
		}
	}
	t.Fatalf("%s: %d lines, code under test produces %d", graphGoldenPath, len(wantLines), len(gotLines))
}
