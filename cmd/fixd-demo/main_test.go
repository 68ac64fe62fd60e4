package main

import (
	"strconv"
	"strings"
	"testing"

	"repro/fixd"
	"repro/internal/apps"
	"repro/internal/substrate"
)

// TestDemoRuns invokes the full narrated pipeline with the default seed —
// the same execution `fixd-demo` performs — and checks every stage
// banner. (The demo finishes in milliseconds; no wall-clock assertion, as
// those flake on contended CI runners.)
func TestDemoRuns(t *testing.T) {
	var out strings.Builder
	if err := run(1, 50_000, &out); err != nil {
		t.Fatalf("demo failed: %v\n%s", err, out.String())
	}
	for _, marker := range []string{"[detect]", "[rollbk]", "[invest]", "[ heal ]", "[resume]", "[ done ]"} {
		if !strings.Contains(out.String(), marker) {
			t.Errorf("output missing %s stage:\n%s", marker, out.String())
		}
	}
}

// TestDemoNarratesFailedResponse: when the fault response cannot finish —
// here one process was started without a model — the demo reports why
// instead of reading an investigation that never ran.
func TestDemoNarratesFailedResponse(t *testing.T) {
	cfg := apps.TwoPCConfig{
		Participants: 2, NoVoters: []int{1}, SlowVoters: []int{1},
		Timeout: 10, VoteDelay: 100, Buggy: true,
	}
	sub := substrate.NewSim(fixd.Config{Seed: 1, MinLatency: 1, MaxLatency: 2, MaxSteps: 5000, CICheckpoint: true})
	sys := fixd.NewOn(sub)
	missing := apps.PartName(0)
	for id, m := range apps.NewTwoPC(cfg) {
		if id == missing {
			sub.AddProcess(id, m) // running, but with no model to ship
			continue
		}
		sys.Add(id, func() fixd.Machine { return apps.NewTwoPC(cfg)[id] })
	}
	sys.AddInvariant(apps.TwoPCAtomicity())
	sys.Protect(fixd.ProtectOptions{StopAtFirstViolation: true, MaxStates: 20_000, MaxDepth: 40})
	sys.Run()
	var out strings.Builder
	err := narrate(sys, &out)
	if err == nil || !strings.Contains(err.Error(), strconv.Quote(missing)) {
		t.Fatalf("narrate = %v, want an error naming %s\n%s", err, missing, out.String())
	}
	if !strings.Contains(out.String(), "[detect]") {
		t.Errorf("the fault itself was not reported:\n%s", out.String())
	}
}

// TestDemoDeterministic: the narrated run is reproducible byte-for-byte.
func TestDemoDeterministic(t *testing.T) {
	var a, b strings.Builder
	if err := run(1, 20_000, &a); err != nil {
		t.Fatal(err)
	}
	if err := run(1, 20_000, &b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Error("two runs with the same seed printed different narratives")
	}
}
