package chaos

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/dsim"
	"repro/internal/fault"
)

// FuzzScheduleRoundTrip: arbitrary bytes decode into a Schedule,
// normalization is idempotent, the normalized form JSON round-trips byte
// for byte, and compiling + injecting + running the schedule on a small
// simulation never panics. The seed corpus includes the shrinker's
// artifact fixtures (testdata/artifact_*.json), so the fuzzer starts from
// real minimized counterexamples and mutates their JSON structure.
func FuzzScheduleRoundTrip(f *testing.F) {
	fixtures, err := filepath.Glob(filepath.Join("testdata", "artifact_*.json"))
	if err != nil || len(fixtures) == 0 {
		f.Fatalf("no artifact fixtures found: %v", err)
	}
	for _, fx := range fixtures {
		raw, err := os.ReadFile(fx)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
		if dec, err := DecodeSchedule(raw); err == nil {
			f.Add([]byte(dec.String())) // degenerate non-JSON seed
			if sched, err := json.Marshal(dec); err == nil {
				f.Add(sched)
			}
		}
	}
	// Binary-form seeds: one scenario per kind, and some garbage.
	f.Add([]byte{0, 5, 0, 20, 0b101, 50, 10, 0, 0, 0})
	f.Add([]byte{6, 10, 1, 40, 0b1, 200, 0, 0, 0, 0, 3, 0, 0, 9, 0b11, 128, 7, 0, 0, 0})
	f.Add([]byte{})
	f.Add([]byte("\xff\x00\x13garbage that is not a schedule"))
	// JSON seeds for the opt-in kinds: valid scenario kinds the binary form,
	// whose kind byte maps onto MatrixKinds, never emits.
	for k, row := range kinds {
		if row.scenario && !row.matrix {
			seed, err := json.Marshal(Schedule{Generate(fault.Kind(k), []string{"a", "b", "c"}, []int{0, 1}, 80, 1)})
			if err != nil {
				f.Fatal(err)
			}
			f.Add(seed)
		}
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		dec, err := DecodeSchedule(data)
		if err != nil {
			// Rejected inputs must be rejected stably and descriptively, not
			// silently compiled to a no-op.
			if err.Error() == "" {
				t.Fatal("DecodeSchedule returned an empty error")
			}
			return
		}
		norm := dec.Normalize()
		if len(norm) > MaxScheduleLen {
			t.Fatalf("normalized schedule too long: %d", len(norm))
		}
		if again := norm.Normalize(); !equalJSON(t, norm, again) {
			t.Fatalf("Normalize not idempotent: %s vs %s", norm, again)
		}
		b1, err := json.Marshal(norm)
		if err != nil {
			t.Fatalf("normalized schedule does not marshal: %v", err)
		}
		var back Schedule
		if err := json.Unmarshal(b1, &back); err != nil {
			t.Fatalf("normalized schedule does not unmarshal: %v", err)
		}
		b2, err := json.Marshal(back.Normalize())
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(b1, b2) {
			t.Fatalf("JSON round-trip not stable:\n%s\n%s", b1, b2)
		}

		// The compiler and injector must accept any normalized schedule:
		// compile against a fixed shape, arm it on a real simulation, run.
		procs := []string{"a", "b", "c"}
		plan := norm.Compile(procs)
		s := dsim.New(dsim.Config{Seed: 1, InitCheckpoint: true, CheckpointEvery: 8, MaxSteps: 20_000})
		for _, id := range procs {
			s.AddProcess(id, &clockProbe{})
		}
		plan.Apply(s)
		s.Run() // must quiesce or hit the step bound — never panic
	})
}

func equalJSON(t *testing.T, a, b any) bool {
	t.Helper()
	ja, err := json.Marshal(a)
	if err != nil {
		t.Fatal(err)
	}
	jb, err := json.Marshal(b)
	if err != nil {
		t.Fatal(err)
	}
	return bytes.Equal(ja, jb)
}
