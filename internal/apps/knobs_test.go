package apps

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/fault"
)

// TestKnobTablesRegistered: every app but bank and cacheaside has a sane
// knob table whose Current values are the registered seeded-bug config —
// setting a knob to Current renders the unpatched spec — and Knobs hands
// out a copy of the table.
func TestKnobTablesRegistered(t *testing.T) {
	var bare []string
	for _, spec := range append(Registry(), Zoo()...) {
		app := spec.Name
		table, err := Knobs(app)
		if err != nil {
			bare = append(bare, app)
			continue
		}
		base, err := ApplyKnobs(app, nil)
		if err != nil {
			t.Fatalf("%s: %v", app, err)
		}
		want := renderSpec(base)
		for _, k := range table {
			if k.Min > k.Max || k.Step == 0 {
				t.Errorf("%s/%s: degenerate range [%d,%d] step %d", app, k.Name, k.Min, k.Max, k.Step)
			}
			if k.Snap(k.Current) != k.Current {
				t.Errorf("%s/%s: current value %d is off its own grid", app, k.Name, k.Current)
			}
			at, err := ApplyKnobs(app, map[string]uint64{k.Name: k.Current})
			if err != nil {
				t.Fatalf("%s/%s: %v", app, k.Name, err)
			}
			if got := renderSpec(at); !reflect.DeepEqual(got, want) {
				t.Errorf("%s/%s=%d (Current) is not the registered config:\n got  %+v\n want %+v",
					app, k.Name, k.Current, got, want)
			}
		}
		table[0].Current++
		if again, _ := Knobs(app); again[0].Current == table[0].Current {
			t.Errorf("%s: mutating a returned knob table changed the registered one", app)
		}
	}
	if !reflect.DeepEqual(bare, []string{"bank", "cacheaside"}) {
		t.Errorf("apps without a knob table = %v, want [bank cacheaside]", bare)
	}
}

func TestKnobSnap(t *testing.T) {
	k := Knob{Name: "t", Min: 4, Max: 512, Step: 2}
	for _, tc := range []struct{ in, want uint64 }{
		{0, 4}, {4, 4}, {5, 4}, {7, 6}, {512, 512}, {9999, 512},
	} {
		if got := k.Snap(tc.in); got != tc.want {
			t.Errorf("Snap(%d) = %d, want %d", tc.in, got, tc.want)
		}
	}
}

func TestApplyKnobsValidates(t *testing.T) {
	if _, err := ApplyKnobs("twopc", map[string]uint64{"nope": 8}); err == nil || !strings.Contains(err.Error(), "no knob") {
		t.Errorf("unknown knob name not rejected: %v", err)
	}
	if _, err := ApplyKnobs("twopc", map[string]uint64{"timeout": 7}); err == nil {
		t.Error("off-grid value not rejected")
	}
	if _, err := ApplyKnobs("twopc", map[string]uint64{"timeout": 1024}); err == nil {
		t.Error("out-of-range value not rejected")
	}
	if _, err := ApplyKnobs("nosuch", nil); err == nil {
		t.Error("unknown app not rejected")
	}
}

// TestApplyKnobsPatchesBuggyVariantOnly: raising twopc's timeout past the
// slow no-vote delay cures the fault-free commit-on-timeout violation in
// the seeded-bug variant, while the correct variant's machines are the
// registry's untouched ones.
func TestApplyKnobsPatchesBuggyVariantOnly(t *testing.T) {
	spec, err := ApplyKnobs("twopc", map[string]uint64{"timeout": 256})
	if err != nil {
		t.Fatal(err)
	}
	run := func(buggy bool) []fault.Violation {
		cfg := spec.Config(buggy)
		cfg.Seed = 1
		s := runApp(t, cfg, spec.Make(buggy))
		return fault.NewMonitor(spec.Invariants(buggy)...).Check(s)
	}
	if v := run(true); len(v) != 0 {
		t.Errorf("patched buggy twopc still violates fault-free: %v", v)
	}
	if v := run(false); len(v) != 0 {
		t.Errorf("correct twopc violates after patch: %v", v)
	}

	// Unpatched baseline really does violate (so the assertion above is
	// about the patch, not the workload).
	base, err := ApplyKnobs("twopc", nil)
	if err != nil {
		t.Fatal(err)
	}
	cfg := base.Config(true)
	cfg.Seed = 1
	s := runApp(t, cfg, base.Make(true))
	if v := fault.NewMonitor(base.Invariants(true)...).Check(s); len(v) == 0 {
		t.Error("unpatched buggy twopc did not violate fault-free")
	}
}

// TestApplyKnobsMService: raising the chain's per-hop timeout past the
// backend slow path cures the timeout cascade, and the patched spec's
// invariants track the patch — the retry-storm limit and latency bound are
// derived from the knob values, so a legitimately longer retry schedule
// must not read as a storm.
func TestApplyKnobsMService(t *testing.T) {
	spec, err := ApplyKnobs("mservice", map[string]uint64{"timeout": 64})
	if err != nil {
		t.Fatal(err)
	}
	run := func(buggy bool) []fault.Violation {
		cfg := spec.Config(buggy)
		cfg.Seed = 1
		s := runApp(t, cfg, spec.Make(buggy))
		return fault.NewMonitor(spec.Invariants(buggy)...).Check(s)
	}
	if v := run(true); len(v) != 0 {
		t.Errorf("patched buggy mservice still violates fault-free: %v", v)
	}
	if v := run(false); len(v) != 0 {
		t.Errorf("correct mservice violates after patch: %v", v)
	}

	base, err := ApplyKnobs("mservice", nil)
	if err != nil {
		t.Fatal(err)
	}
	cfg := base.Config(true)
	cfg.Seed = 1
	s := runApp(t, cfg, base.Make(true))
	if v := fault.NewMonitor(base.Invariants(true)...).Check(s); len(v) == 0 {
		t.Error("unpatched buggy mservice did not violate fault-free")
	}

	// A retry-schedule stretch is an equally valid fix: more retries with a
	// steeper backoff outlast the slow path without touching the timeout.
	alt, err := ApplyKnobs("mservice", map[string]uint64{"retries": 5, "backoff": 16})
	if err != nil {
		t.Fatal(err)
	}
	cfg = alt.Config(true)
	cfg.Seed = 1
	s = runApp(t, cfg, alt.Make(true))
	if v := fault.NewMonitor(alt.Invariants(true)...).Check(s); len(v) != 0 {
		t.Errorf("retry-schedule patch still violates: %v", v)
	}
}
