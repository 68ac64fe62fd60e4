package experiments

import (
	"repro/internal/apps"
	"repro/internal/chaos"
)

// SearchBudget is the per-application execution budget E10 gives each
// strategy. At this operating point blind sampling has begun to saturate
// (repeat shapes) while guided mutation keeps composing new multi-fault
// schedules, so the comparison is a fair equal-budget one.
const SearchBudget = 96

// SearchCheckEvery is the early-exit invariant cadence E10 runs every
// candidate with (chaos.SearchConfig.CheckEvery): the global invariants
// are evaluated every this many simulation steps and a violating run
// halts immediately. It is what makes the seeded-bug
// tokenring affordable — its regeneration storm used to saturate the
// 200k-step bound on every run (~1s, three orders of magnitude above the
// other workloads, so E10 excluded it); the storm's double-token state is
// reached within the first few hundred steps, so early exit cuts a
// violating run to ~1ms. chaos.TestEarlyExitEquivalence pins the early
// exit and its step count.
const SearchCheckEvery = 256

// searchApps returns the seeded-bug applications E10 sweeps — the full
// registry (tokenring is affordable again under SearchCheckEvery) plus the
// scenario zoo, whose seeded bugs (timeout cascade, stale cache) give the
// strategy comparison two more fault-free-manifesting targets.
func searchApps() []apps.AppSpec { return append(apps.Registry(), apps.Zoo()...) }

// RunE10 compares coverage-guided chaos search against the random matrix's
// blind seeded sampling at an equal execution budget on the seeded-bug
// applications: distinct behavioral fingerprints (event shapes) reached,
// distinct exact digests touched, corpus growth, and failures found. It
// then demonstrates the full find → shrink → replay loop on the controlled
// jitter-free kvstore, where the failure genuinely requires an injected
// fault schedule.
//
// quick is deliberately ignored: the comparison is only meaningful at the
// SearchBudget operating point (below it, blind sampling has not yet begun
// repeating shapes, so there is no saturation for guidance to beat), and
// the whole experiment costs well under a second — less than several other
// experiments' quick modes.
func RunE10(quick bool) *Table {
	_ = quick
	t := &Table{
		ID:    "E10",
		Title: "Guided vs random chaos search at equal budget",
		Header: []string{"app", "budget", "guided-shapes", "random-shapes",
			"guided-digests", "random-digests", "corpus", "failures"},
	}
	cfg := chaos.SearchConfig{Apps: searchApps(), Buggy: true, Seed: 1,
		Budget: SearchBudget, Workers: MatrixWorkers, ShrinkBudget: -1,
		CheckEvery: SearchCheckEvery}
	guided := chaos.Search(cfg)
	random := chaos.RandomSearch(cfg)
	for i := range guided.Apps {
		g, r := guided.Apps[i], random.Apps[i]
		t.Add(g.App, SearchBudget, g.DistinctShapes, r.DistinctShapes,
			g.DistinctDigests, r.DistinctDigests, len(g.Corpus), len(g.Failures))
	}
	gs, gd := guided.Totals()
	rs, rd := random.Totals()
	t.Note("totals: guided %d shapes / %d digests, random %d shapes / %d digests (equal budget of %d runs per app)",
		gs, gd, rs, rd, SearchBudget)
	t.Note("fingerprint = merged-scroll digest + event-shape signature; corpus admission is shape-keyed")
	t.Note("tokenring included: early-exit invariant checks every %d steps halt its regeneration storm as soon as "+
		"the double-token state appears (was ~1.2s/run saturating the 200k-step bound — see TestEarlyExitEquivalence)",
		SearchCheckEvery)

	// Controlled find → shrink → replay: the failure must be fault-induced
	// (apps.JitterFreeKV passes at baseline, so the search has to *find*
	// it). The budget is fixed — the jitter-free runs cost ~1ms each, and
	// the reorder-triggered violation reliably needs more than 100
	// candidates to surface, which is exactly why it makes a good search
	// target.
	spec := apps.JitterFreeKV()
	const budget = 160
	rep := chaos.Search(chaos.SearchConfig{Apps: []apps.AppSpec{spec}, Buggy: true,
		Seed: 1, Budget: budget, Workers: MatrixWorkers})
	if fails := rep.Failures(); len(fails) > 0 {
		f := fails[0]
		verified := "replay-verified"
		runner := chaos.Runner{Spec: spec, Buggy: true, Seed: 1, Probe: true}
		if err := f.Artifact.VerifyWith(runner); err != nil {
			verified = "REPLAY FAILED: " + err.Error()
		}
		t.Note("controlled jitter-free kvstore: search found %d-scenario failing schedule, shrunk to %d (%s, minimal=%v): %s",
			len(f.Schedule), len(f.Shrunk), verified, f.Minimal, f.Shrunk)
	} else {
		t.Note("controlled jitter-free kvstore: no failing schedule found in %d runs", budget)
	}
	return t
}
