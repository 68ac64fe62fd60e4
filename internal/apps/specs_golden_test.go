package apps

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/dsim"
	"repro/internal/fault"
	"repro/internal/scroll"
)

const specsGoldenPath = "testdata/specs_prerefactor.json"

// specRow is what one rendered AppSpec amounts to: its two simulation
// profiles, its horizon, the invariants of each variant, and the fault-free
// seed-1 run of each constructor.
type specRow struct {
	Config     map[string]dsim.Config
	Horizon    uint64
	Invariants map[string][]string
	Runs       map[string]string
}

// renderSpec runs spec's three constructors fault-free on seed 1 (the fixed
// program under the buggy profile and oracle, as the Healer swaps it in) and
// records each one's process IDs, merged-scroll digest and the invariants
// the run ends up violating.
func renderSpec(spec AppSpec) specRow {
	row := specRow{
		Config:     map[string]dsim.Config{},
		Horizon:    spec.Horizon,
		Invariants: map[string][]string{},
		Runs:       map[string]string{},
	}
	var fp scroll.Fingerprinter
	run := func(key string, buggy bool, ms map[string]dsim.Machine) {
		cfg := spec.Config(buggy)
		cfg.Seed = 1
		s := dsim.New(cfg)
		ids := sortedProcs(ms)
		for _, id := range ids {
			s.AddProcess(id, ms[id])
		}
		s.Run()
		digest, _ := fp.Fingerprint(s.Scrolls(), 8)
		row.Runs[key] = strings.Join(ids, ",") + " " + digest
		for _, v := range fault.NewMonitor(spec.Invariants(buggy)...).Check(s) {
			row.Runs[key] += " | " + v.Invariant
		}
	}
	for _, buggy := range []bool{false, true} {
		key := "correct"
		if buggy {
			key = "buggy"
		}
		row.Config[key] = spec.Config(buggy)
		for _, inv := range spec.Invariants(buggy) {
			row.Invariants[key] = append(row.Invariants[key], inv.Name)
		}
		run(key, buggy, spec.Make(buggy))
	}
	run("fixed", true, spec.MakeFixed())
	return row
}

// buildSpecsGolden renders every registered and zoo app, the jitter-free
// kvstore, and every knob of every table at Min, Current and Max.
func buildSpecsGolden(t *testing.T) map[string]specRow {
	g := map[string]specRow{}
	for _, spec := range append(Registry(), Zoo()...) {
		g[spec.Name] = renderSpec(spec)
		table, err := Knobs(spec.Name)
		if err != nil {
			continue
		}
		for _, k := range table {
			for _, v := range []uint64{k.Min, k.Current, k.Max} {
				patched, err := ApplyKnobs(spec.Name, map[string]uint64{k.Name: v})
				if err != nil {
					t.Fatalf("%s/%s=%d: %v", spec.Name, k.Name, v, err)
				}
				g[fmt.Sprintf("%s/%s=%d", spec.Name, k.Name, v)] = renderSpec(patched)
			}
		}
	}
	g["kvstore/jitterfree"] = renderSpec(JitterFreeKV())
	return g
}

// TestSpecsPreRefactorByteIdentity holds every rendered AppSpec — both
// profiles, horizon, invariant names and the fault-free run of Make(false),
// Make(true) and MakeFixed() — to the fixture recorded (go test -run
// TestSpecsPreRefactor -update ./internal/apps) while each app was still
// declared by hand in registry.go and patched by a switch in knobs.go.
// Re-record only when an app's workload or knob changes on purpose.
func TestSpecsPreRefactorByteIdentity(t *testing.T) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", " ")
	if err := enc.Encode(buildSpecsGolden(t)); err != nil {
		t.Fatal(err)
	}
	out := buf.Bytes()
	if *update {
		if err := os.WriteFile(specsGoldenPath, out, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", specsGoldenPath)
		return
	}
	want, err := os.ReadFile(specsGoldenPath)
	if err != nil {
		t.Fatalf("missing fixture (record it with -update): %v", err)
	}
	if !bytes.Equal(out, want) {
		var got map[string]specRow
		old := map[string]specRow{}
		_ = json.Unmarshal(out, &got)
		_ = json.Unmarshal(want, &old)
		for key := range got {
			old[key] = old[key]
		}
		for key, row := range old {
			if fmt.Sprint(got[key]) != fmt.Sprint(row) {
				t.Errorf("%s:\n got  %+v\n want %+v", key, got[key], row)
			}
		}
		t.Fatalf("%s differs from the code under test", specsGoldenPath)
	}
}
