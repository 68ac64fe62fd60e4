package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestMain lets the test binary stand in for the harness binary when the
// harness re-executes itself as a set-up child or as the probe child.
func TestMain(m *testing.M) {
	if os.Getenv(setupChildEnv) != "" || os.Getenv(probeChildEnv) != "" {
		os.Exit(run(os.Args[1:], os.Stdout))
	}
	os.Exit(m.Run())
}

// tinyRun executes one workload, or all of them, at -scale tiny with tracing
// on (a traced invocation measures the end-to-end metrics too, tracing off,
// before its traced rep) and returns the result document and the contract
// line.
func tinyRun(t *testing.T, workload string) (*Document, string) {
	t.Helper()
	out := filepath.Join(t.TempDir(), "run.json")
	var stdout bytes.Buffer
	if code := run([]string{"-workload", workload, "-scale", "tiny", "-seed", "3", "-trace", "1", "-out", out}, &stdout); code != 0 {
		t.Fatalf("bench exited %d:\n%s", code, stdout.String())
	}
	doc, err := readDocument(out)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	return doc, lines[len(lines)-1]
}

func TestEveryDeclaredMetricIsEmittedOnce(t *testing.T) {
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	decl, err := loadDeclared(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	seen := map[string]bool{}
	for _, m := range append(append([]metricDecl{}, decl.EndToEnd...), decl.PerLayer...) {
		if !name.MatchString(m.Name) || seen[m.Name] {
			t.Errorf("metric name %q is malformed or declared twice", m.Name)
		}
		seen[m.Name] = true
	}

	first, line := tinyRun(t, "all")
	if len(first.Workloads) != len(decl.Workloads) {
		t.Fatalf("ran %d workloads, BENCHMARK.json declares %d", len(first.Workloads), len(decl.Workloads))
	}
	produced := map[string]bool{} // per-layer metrics some workload really measured
	for i, w := range first.Workloads {
		if w.Name != decl.Workloads[i].Name || !name.MatchString(w.Name) {
			t.Errorf("workload %d is %q, declared %q", i, w.Name, decl.Workloads[i].Name)
		}
		if !w.Correct || w.Failed != 0 || w.Attempted == 0 {
			t.Errorf("%s: %d of %d operations failed: %v", w.Name, w.Failed, w.Attempted, w.Failures)
		}
		// runWorkload already rejects a missing, extra, mis-united or zero
		// end-to-end metric and an undeclared per-layer one; re-check the
		// emitted document from outside.
		if len(w.Metrics) != len(decl.EndToEnd) || len(w.Layers) != len(decl.PerLayer) {
			t.Errorf("%s: %d end-to-end and %d per-layer metrics, declared %d and %d",
				w.Name, len(w.Metrics), len(w.Layers), len(decl.EndToEnd), len(decl.PerLayer))
		}
		for _, m := range decl.EndToEnd {
			if got, ok := w.Metrics[m.Name]; !ok || got.Unit != m.Unit || got.Value <= 0 {
				t.Errorf("%s: end-to-end metric %s = %+v, want unit %q and a positive value", w.Name, m.Name, got, m.Unit)
			}
		}
		for _, m := range decl.PerLayer {
			got, ok := w.Layers[m.Name]
			if !ok || got.Unit != m.Unit {
				t.Errorf("%s: per-layer metric %s = %+v, want unit %q", w.Name, m.Name, got, m.Unit)
			}
			if got.N > 0 {
				produced[m.Name] = true
			}
		}
	}
	// The seeded program repeats exactly: a second run of the workload that
	// enters the most layers agrees on the report hash and every exact count.
	again, _ := tinyRun(t, "bug_hunt")
	for _, w := range first.Workloads {
		if w.Name != "bug_hunt" {
			continue
		}
		if w.RepHash != again.Workloads[0].RepHash {
			t.Errorf("%s: rep hash differs between two runs of the same seed", w.Name)
		}
		for _, exact := range exactLayers {
			if a, b := w.Layers[exact], again.Workloads[0].Layers[exact]; a.Value != b.Value {
				t.Errorf("%s: exact count %s differs between two runs: %v vs %v", w.Name, exact, a.Value, b.Value)
			}
		}
	}
	for _, m := range decl.PerLayer {
		if !produced[m.Name] {
			t.Errorf("per-layer metric %s is declared but no workload measures it", m.Name)
		}
	}

	var contract struct {
		Correct   bool `json:"correct"`
		Attempted int  `json:"attempted"`
		Failed    int  `json:"failed"`
		Metrics   map[string]struct {
			Value float64 `json:"value"`
			Unit  string  `json:"unit"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(line), &contract); err != nil {
		t.Fatalf("last line of output is not the result object: %v\n%s", err, line)
	}
	if !contract.Correct || contract.Attempted < 1 || contract.Failed != 0 ||
		len(contract.Metrics) != len(decl.Workloads)*len(decl.PerLayer) {
		t.Errorf("contract line: correct %v, %d attempted, %d failed, %d metrics", contract.Correct,
			contract.Attempted, contract.Failed, len(contract.Metrics))
	}
	// Without tracing the same document yields exactly the end-to-end set.
	single := &Document{Workloads: first.Workloads[:1]}
	plain, _ := single.contractLine(false)
	var untraced struct {
		Metrics map[string]json.RawMessage `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(plain), &untraced); err != nil || len(untraced.Metrics) != len(decl.EndToEnd) {
		t.Errorf("untraced contract line carries %d metrics, want %d (%v)", len(untraced.Metrics), len(decl.EndToEnd), err)
	}
}

func TestCompareVerdicts(t *testing.T) {
	doc := func(reps ...float64) string {
		m := summarize("1/s", reps)
		d := &Document{Workloads: []*WorkloadResult{{Name: "matrix_sweep", Correct: true, RepHash: "h",
			Metrics: map[string]Metric{"runs_per_s": m}}}}
		b, err := json.Marshal(d)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), "doc.json")
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := doc(4000, 3000, 5000) // reps of different work, as on the hunts
	for _, c := range []struct {
		name    string
		other   string
		code    int
		verdict string
	}{
		{"2.5 % lower on every rep", doc(3900, 2925, 4875), 0, "ok"},
		{"halved on every rep", doc(2000, 1500, 2500), 1, "regressed"},
		{"halved on two reps, equal on one", doc(2000, 3000, 2500), 0, "unresolved"},
		{"halved, other rep count: medians and ranges", doc(2000, 1500, 2500, 2000), 1, "regressed"},
	} {
		var out bytes.Buffer
		if code := runCompare(base, c.other, &out); code != c.code || !strings.Contains(out.String(), c.verdict) {
			t.Errorf("%s: exit %d, want %d and a %q row:\n%s", c.name, code, c.code, c.verdict, out.String())
		}
	}
}
