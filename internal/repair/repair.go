// Package repair closes FixD's detect → fix loop. Given a minimal failing
// chaos.Artifact and the invariants it violates, Repair searches the
// application's bounded knob space (apps.Knobs — the typed timeout/delay
// parameters whose misconfiguration the seeded bugs model) for an
// assignment under which the bug no longer manifests.
//
// The searcher is seeded and deterministic: per knob it probes the range
// extremes, bisects the pass/fail boundary back toward the current value
// (hill-climbing to the smallest change that still passes), and finally
// tries joint extreme assignments. Candidates are cheap-rejected by
// replaying the artifact's minimal schedule against the patched program;
// only cheap survivors earn full re-verification — the complete fault-kind
// matrix plus a coverage-guided search re-run over the patched variant,
// with the application's own invariants as the acceptance oracle. The
// resulting RepairReport (trials, winner, evidence, total executions) is
// byte-identical for a given seed at any worker count.
package repair

import (
	"encoding/json"
	"errors"
	"fmt"

	"repro/internal/apps"
	"repro/internal/chaos"
	"repro/internal/dsim"
	"repro/internal/fault"
)

// Config parameterizes one repair attempt.
type Config struct {
	// Artifact is the minimal failing counterexample to repair. Its App
	// must be a registry application with a knob table (apps.Knobs), which
	// is the patch space searched.
	Artifact *chaos.Artifact
	// Seed drives the re-verification matrix and guided search. The
	// proposal sequence itself is deterministic given the knob table.
	// Default 1.
	Seed int64
	// MatrixSeeds are the re-verification matrix seeds. Default {1, 2}.
	MatrixSeeds []int64
	// SearchBudget bounds the guided-search re-run per verification.
	// Default 24.
	SearchBudget int
	// CheckEvery is the early-exit invariant cadence for verification runs
	// (see chaos.Runner.CheckEvery); the cheap replay always uses the
	// artifact's own recorded cadence. Default 256.
	CheckEvery uint64
	// Workers parallelizes matrix and search evaluation. The report is
	// byte-identical for any worker count.
	Workers int
}

const (
	// maxTrials bounds candidate assignments tried (each costs one cheap
	// replay).
	maxTrials = 24
	// maxVerify bounds full-pipeline verifications (each costs a matrix
	// sweep plus a guided search).
	maxVerify = 4
)

func (c Config) withDefaults() Config {
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.MatrixSeeds == nil {
		c.MatrixSeeds = []int64{1, 2}
	}
	if c.SearchBudget == 0 {
		c.SearchBudget = 24
	}
	if c.CheckEvery == 0 {
		c.CheckEvery = 256
	}
	return c
}

// Trial records one candidate assignment and what it cost.
type Trial struct {
	Assignment map[string]uint64
	// CheapPass: replaying the artifact's minimal schedule against the
	// patched program produced no invariant violation.
	CheapPass bool
	// Verified: the patched program additionally survived the full matrix
	// and a guided-search re-run with zero failures. Only set on trials
	// that earned verification.
	Verified bool `json:",omitempty"`
	// MatrixFailures / SearchFailures count what re-verification caught
	// when it rejected the candidate.
	MatrixFailures int `json:",omitempty"`
	SearchFailures int `json:",omitempty"`
	Runs           int // schedule executions this trial cost
}

// Evidence summarizes the re-verification that accepted the winner.
type Evidence struct {
	ReplayClean  bool    // minimal schedule no longer violates
	MatrixCells  int     // fault-kind matrix cells, all passing
	MatrixSeeds  []int64 // seeds the matrix swept
	SearchBudget int     // guided-search executions re-run, zero failures
}

// Report is the repair outcome: deterministic for a given Config, so the
// JSON encoding is byte-identical across worker counts and re-runs.
type Report struct {
	App        string
	Seed       int64
	Violations []string    // invariants the artifact violates unpatched
	Knobs      []apps.Knob // the patch space searched
	Trials     []*Trial    // in proposal order
	Fixed      bool
	Winner     map[string]uint64 `json:",omitempty"`
	Evidence   *Evidence         `json:",omitempty"`
	// Runs totals schedule executions across cheap replays, matrix cells
	// (each runs twice for the determinism check), and guided search —
	// the paper-style runs-to-fix cost of the repair.
	Runs int
}

// JSON renders the report with stable formatting (the byte-identity
// yardstick the determinism tests and bench use).
func (r *Report) JSON() ([]byte, error) {
	out, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(out, '\n'), nil
}

// searcher carries the mutable state of one Repair call.
type searcher struct {
	cfg    Config
	art    *chaos.Artifact
	rep    *Report
	tried  map[string]*Trial // canonical assignment JSON -> trial
	verify int               // full verifications spent
}

// Repair searches the artifact's knob space for an assignment that fixes
// the violated invariants, re-verifying candidates with the full chaos
// pipeline. It returns an error only when the inputs are unusable (no
// artifact, no knob table, or an artifact that does not reproduce); an
// exhausted search returns a Report with Fixed=false.
func Repair(cfg Config) (*Report, error) {
	cfg = cfg.withDefaults()
	a := cfg.Artifact
	if a == nil {
		return nil, errors.New("repair: nil artifact")
	}
	table, err := apps.Knobs(a.App)
	if err != nil {
		return nil, err
	}
	if len(table) == 0 {
		return nil, fmt.Errorf("repair: empty knob table for %q", a.App)
	}

	// The artifact must reproduce against the unpatched program: repair
	// only trusts the cheap reject if the baseline replay actually fails,
	// and only searches the program the artifact ran if the replay digest
	// matches (an artifact recorded under a customized spec does not).
	base, err := apps.ApplyKnobs(a.App, nil)
	if err != nil {
		return nil, err
	}
	s := &searcher{cfg: cfg, art: a, tried: map[string]*Trial{}}
	res := s.replay(base)
	s.rep = &Report{App: a.App, Seed: cfg.Seed, Knobs: table, Runs: 1}
	if len(res.Violations) == 0 {
		return nil, fmt.Errorf("repair: artifact for %q does not reproduce; nothing to repair", a.App)
	}
	if res.Digest != a.Digest {
		return nil, fmt.Errorf("repair: artifact for %q replays to digest %.12q, not its recorded %.12q",
			a.App, res.Digest, a.Digest)
	}
	s.rep.Violations = res.Violations

	s.search(table)
	return s.rep, nil
}

// search drives the proposal ladder: per-knob extremes with boundary
// bisection, then joint extremes.
func (s *searcher) search(table []apps.Knob) {
	for _, k := range table {
		for _, extreme := range []uint64{k.Max, k.Min} {
			if s.exhausted() || s.rep.Fixed {
				return
			}
			if extreme == k.Current {
				continue
			}
			t := s.trial(map[string]uint64{k.Name: extreme})
			if t == nil || !t.CheapPass {
				continue
			}
			// The extreme passes and Current fails: bisect the boundary to
			// the smallest change that still cheap-passes.
			best := s.bisect(k, extreme)
			if s.verifyTrial(best) {
				return
			}
			// The minimal change failed full verification — the margin of
			// the extreme may still survive it.
			if bestVal(best, k.Name) != extreme {
				if s.verifyTrial(s.trial(map[string]uint64{k.Name: extreme})) {
					return
				}
			}
		}
	}
	// Single-knob changes were not enough: try the joint extremes.
	if len(table) < 2 {
		return
	}
	for _, pick := range []func(apps.Knob) uint64{
		func(k apps.Knob) uint64 { return k.Max },
		func(k apps.Knob) uint64 { return k.Min },
	} {
		if s.exhausted() || s.rep.Fixed {
			return
		}
		assign := make(map[string]uint64, len(table))
		for _, k := range table {
			assign[k.Name] = pick(k)
		}
		t := s.trial(assign)
		if t != nil && t.CheapPass && s.verifyTrial(t) {
			return
		}
	}
}

// bisect hill-climbs from a cheap-passing extreme back toward the knob's
// failing current value, returning the trial with the smallest
// cheap-passing change.
func (s *searcher) bisect(k apps.Knob, extreme uint64) *Trial {
	lo, hi := k.Current, extreme // lo fails, hi passes
	best := s.tried[canon(map[string]uint64{k.Name: extreme})]
	for !s.exhausted() {
		a, b := lo, hi
		if a > b {
			a, b = b, a
		}
		if b-a <= k.Step {
			break
		}
		mid := k.Snap(a + (b-a)/2)
		if mid == lo || mid == hi {
			break
		}
		t := s.trial(map[string]uint64{k.Name: mid})
		if t == nil {
			break
		}
		if t.CheapPass {
			hi, best = mid, t
		} else {
			lo = mid
		}
	}
	return best
}

func bestVal(t *Trial, name string) uint64 {
	if t == nil {
		return 0
	}
	return t.Assignment[name]
}

func (s *searcher) exhausted() bool { return len(s.rep.Trials) >= maxTrials }

// canon is the dedup key: JSON encodes maps with sorted keys.
func canon(assign map[string]uint64) string {
	b, _ := json.Marshal(assign)
	return string(b)
}

// replay runs the artifact's minimal schedule against a (possibly
// patched) spec, with the artifact's own seed, probe, and cadence.
func (s *searcher) replay(spec apps.AppSpec) *chaos.RunResult {
	r := &chaos.Runner{
		Spec:       spec,
		Buggy:      s.art.Buggy,
		Seed:       s.art.Seed,
		Probe:      s.art.Probe,
		CheckEvery: s.art.CheckEvery,
	}
	return r.Run(s.art.Schedule)
}

// trial cheap-checks one assignment (deduplicated); returns nil when the
// trial budget is exhausted.
func (s *searcher) trial(assign map[string]uint64) *Trial {
	if t, ok := s.tried[canon(assign)]; ok {
		return t
	}
	if s.exhausted() {
		return nil
	}
	spec, err := apps.ApplyKnobs(s.art.App, assign)
	if err != nil {
		// Off-grid proposals cannot happen (the searcher snaps); any
		// other rejection surfaces as an all-fail trial.
		t := &Trial{Assignment: assign}
		s.admit(t)
		return t
	}
	t := &Trial{Assignment: assign, Runs: 1}
	t.CheapPass = len(s.replay(spec).Violations) == 0
	s.admit(t)
	return t
}

func (s *searcher) admit(t *Trial) {
	s.tried[canon(t.Assignment)] = t
	s.rep.Trials = append(s.rep.Trials, t)
	s.rep.Runs += t.Runs
}

// verifyTrial runs the full acceptance oracle on a cheap-passing trial:
// the complete fault-kind matrix plus a guided-search re-run over the
// patched seeded-bug variant must come back with zero failures. On
// success it records the winner and evidence.
func (s *searcher) verifyTrial(t *Trial) bool {
	if t == nil || !t.CheapPass || t.Verified {
		return t != nil && t.Verified
	}
	if s.verify >= maxVerify {
		return false
	}
	s.verify++
	spec, err := apps.ApplyKnobs(s.art.App, t.Assignment)
	if err != nil {
		return false
	}
	wrapped := verifySpec(spec)

	matrix := chaos.RunMatrix(chaos.MatrixConfig{
		Apps:       []apps.AppSpec{wrapped},
		Seeds:      s.cfg.MatrixSeeds,
		Workers:    s.cfg.Workers,
		CheckEvery: s.cfg.CheckEvery,
	})
	runs := 2 * len(matrix.Cells) // every cell runs twice (determinism check)
	t.MatrixFailures = len(matrix.Failures())

	var searchFails, searchRuns int
	if t.MatrixFailures == 0 {
		// Shrinking rejected candidates buys nothing — disable it so the
		// verification cost is the budget, not the failure count.
		rep := chaos.Search(chaos.SearchConfig{
			Apps:         []apps.AppSpec{wrapped},
			Seed:         s.cfg.Seed,
			Budget:       s.cfg.SearchBudget,
			Workers:      s.cfg.Workers,
			ShrinkBudget: -1,
			CheckEvery:   s.cfg.CheckEvery,
		})
		searchFails = len(rep.Failures())
		for _, app := range rep.Apps {
			searchRuns += app.Executions + app.ShrinkRuns
		}
		t.SearchFailures = searchFails
	}
	t.Runs += runs + searchRuns
	s.rep.Runs += runs + searchRuns

	if t.MatrixFailures != 0 || searchFails != 0 {
		return false
	}
	t.Verified = true
	s.rep.Fixed = true
	s.rep.Winner = t.Assignment
	s.rep.Evidence = &Evidence{
		ReplayClean:  true,
		MatrixCells:  len(matrix.Cells),
		MatrixSeeds:  s.cfg.MatrixSeeds,
		SearchBudget: s.cfg.SearchBudget,
	}
	return true
}

// verifySpec freezes the patched seeded-bug variant as the spec's only
// variant: RunMatrix and Search exercise an application's correct variant,
// so pinning Make/Invariants/Config to buggy=true turns the standard
// pipeline into the acceptance oracle for the patched program.
func verifySpec(spec apps.AppSpec) apps.AppSpec {
	out := spec
	out.Make = func(bool) map[string]dsim.Machine { return spec.Make(true) }
	out.Invariants = func(bool) []fault.GlobalInvariant { return spec.Invariants(true) }
	out.Config = func(bool) dsim.Config { return spec.Config(true) }
	return out
}
