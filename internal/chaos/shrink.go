package chaos

import (
	"encoding/json"
	"fmt"
	"reflect"
	"sort"
)

// ShrinkResult is the outcome of minimizing a failing schedule.
type ShrinkResult struct {
	Schedule Schedule // the minimized schedule (still failing)
	Runs     int      // executions spent
	Minimal  bool     // removing any single scenario makes the failure vanish
}

// Shrink minimizes a failing fault schedule: first classic ddmin over the
// scenario list (Zeller's delta debugging, reducing to a 1-minimal
// subsequence), then per-scenario attribute shrinking that halves windows
// and intensities while the failure persists, and finally target-set
// shrinking that drops individual processes from each scenario's
// partition/target group one at a time. fails must be a deterministic
// predicate — with a seeded Runner it always is — and budget bounds the
// total number of executions.
func Shrink(sched Schedule, fails func(Schedule) bool, budget int) *ShrinkResult {
	res := &ShrinkResult{Schedule: sched}
	exhausted := false
	try := func(c Schedule) bool {
		if res.Runs >= budget {
			exhausted = true
			return false
		}
		res.Runs++
		return fails(c)
	}
	if len(sched) == 0 || !try(sched) {
		return res // nothing to shrink, or the input does not fail
	}
	cur := sched

	// Phase 1: ddmin on the scenario list. Complements are tried at
	// doubling granularity; termination with singleton complements all
	// passing means no single scenario can be removed — 1-minimality.
	n := 2
	for len(cur) >= 2 && n <= len(cur) {
		chunk := (len(cur) + n - 1) / n
		reduced := false
		for i := 0; i < len(cur); i += chunk {
			end := min(i+chunk, len(cur))
			comp := append(append(Schedule{}, cur[:i]...), cur[end:]...)
			if len(comp) > 0 && try(comp) {
				cur, reduced = comp, true
				n = max(n-1, 2)
				break
			}
		}
		if !reduced {
			if n >= len(cur) {
				// Every singleton complement was actually executed and
				// passed — unless the budget gate short-circuited them.
				res.Minimal = !exhausted
				break
			}
			n = min(len(cur), 2*n)
		}
	}
	if !res.Minimal && len(cur) == 1 {
		// A single surviving scenario is minimal iff the failure needs it
		// at all (the empty schedule passes).
		res.Minimal = !try(Schedule{}) && !exhausted
	}

	// Phase 2: attribute shrinking — smallest window and intensity that
	// still reproduce the failure.
	shrinkAttr := func(i int, mutate func(*Scenario) bool) {
		for {
			cand := append(Schedule{}, cur...)
			sc := cand[i]
			if !mutate(&sc) {
				return
			}
			cand[i] = sc
			if !try(cand) {
				return
			}
			cur = cand
		}
	}
	for i := range cur {
		shrinkAttr(i, func(sc *Scenario) bool {
			l, ok := halve(sc.Window.Len())
			sc.Window.To = sc.Window.From + l
			return ok
		})
		// Only scenario kinds have a further attribute: a kind Normalize would
		// drop compiles to nothing, so there is nothing left to minimize.
		if row := rowOf(cur[i].Kind); row.scenario {
			shrinkAttr(i, dims[row.dim].shrink)
		}
	}

	// Phase 3: target-set shrinking — drop individual processes from each
	// scenario's target group one at a time while the failure persists.
	// Sets never shrink below one member: for message-level kinds an empty
	// target list means "all processes", which would *widen* the scenario.
	for i := range cur {
		for j := 0; j < len(cur[i].Targets) && len(cur[i].Targets) > 1; {
			cand := append(Schedule{}, cur...)
			sc := cand[i]
			sc.Targets = append(append([]int{}, sc.Targets[:j]...), sc.Targets[j+1:]...)
			cand[i] = sc
			if try(cand) {
				cur = cand // target j removed; the next candidate shifts into j
			} else {
				j++
			}
		}
	}
	res.Schedule = cur
	return res
}

// Artifact is a replayable counterexample: everything needed to reproduce
// a failing chaos run byte-for-byte through the registered applications.
type Artifact struct {
	App        string
	Buggy      bool
	Probe      bool
	Seed       int64
	Schedule   Schedule
	Violations []string // invariant names the run violates
	Digest     string   // expected merged-scroll digest
	// CheckEvery is the early-exit invariant cadence the failing run used
	// (see Runner.CheckEvery). Early exit shortens the execution, so the
	// recorded digest is only reproducible at the same cadence; Replay
	// restores it. Omitted (0) for classic run-to-quiescence artifacts, so
	// pre-existing artifacts decode unchanged.
	CheckEvery uint64 `json:",omitempty"`
	// Durable is the failing run's stable-storage snapshot (proc -> cell ->
	// value). Stable storage feeds crash-restart recovery, so a replay that
	// reproduces the digest must also reproduce these contents exactly —
	// check enforces it. Omitted when the run wrote none, so pre-existing
	// artifacts decode unchanged.
	Durable map[string]map[string][]byte `json:",omitempty"`
}

// NewArtifact captures a failing run as a replayable artifact.
func NewArtifact(r Runner, sched Schedule, res *RunResult) *Artifact {
	return &Artifact{
		App: r.Spec.Name, Buggy: r.Buggy, Probe: r.Probe, Seed: r.Seed,
		Schedule: sched, Violations: res.Violations, Digest: res.Digest,
		CheckEvery: r.CheckEvery, Durable: res.Durable,
	}
}

// JSON serializes the artifact.
func (a *Artifact) JSON() ([]byte, error) { return json.MarshalIndent(a, "", "  ") }

// LoadArtifact parses an artifact produced by JSON.
func LoadArtifact(b []byte) (*Artifact, error) {
	var a Artifact
	if err := json.Unmarshal(b, &a); err != nil {
		return nil, fmt.Errorf("chaos: bad artifact: %w", err)
	}
	return &a, nil
}

// Replay re-executes the artifact's schedule on its registered
// application and seed.
func (a *Artifact) Replay() (*RunResult, error) {
	runner, err := RunnerFor(a.App, a.Buggy, a.Seed, a.Probe)
	if err != nil {
		return nil, err
	}
	runner.CheckEvery = a.CheckEvery
	return runner.Run(a.Schedule), nil
}

// Verify replays the artifact and checks that it reproduces the recorded
// violations and scroll digest exactly. It resolves the application
// through the registry; for a run under a customized spec use VerifyWith.
func (a *Artifact) Verify() error {
	res, err := a.Replay()
	if err != nil {
		return err
	}
	return a.check(res)
}

// VerifyWith replays the artifact on the given runner (which must match
// the one that produced it; the recorded early-exit cadence is restored
// onto it) and checks the recorded outcome.
func (a *Artifact) VerifyWith(r Runner) error {
	r.CheckEvery = a.CheckEvery
	return a.check(r.Run(a.Schedule))
}

func (a *Artifact) check(res *RunResult) error {
	if res.Digest != a.Digest {
		short := func(d string) string {
			if len(d) > 12 {
				return d[:12]
			}
			return d
		}
		return fmt.Errorf("chaos: replay digest %q != recorded %q", short(res.Digest), short(a.Digest))
	}
	if !reflect.DeepEqual(res.Violations, a.Violations) {
		return fmt.Errorf("chaos: replay violations %v != recorded %v", res.Violations, a.Violations)
	}
	if !reflect.DeepEqual(res.Durable, a.Durable) {
		return fmt.Errorf("chaos: replay stable-storage contents differ from recorded: %s",
			durableDiff(res.Durable, a.Durable))
	}
	return nil
}

// durableDiff names the first differing proc/cell between two snapshots,
// in sorted order so the message is deterministic.
func durableDiff(got, want map[string]map[string][]byte) string {
	procs := map[string]bool{}
	for p := range got {
		procs[p] = true
	}
	for p := range want {
		procs[p] = true
	}
	sorted := make([]string, 0, len(procs))
	for p := range procs {
		sorted = append(sorted, p)
	}
	sort.Strings(sorted)
	for _, p := range sorted {
		g, w := got[p], want[p]
		cells := map[string]bool{}
		for k := range g {
			cells[k] = true
		}
		for k := range w {
			cells[k] = true
		}
		ck := make([]string, 0, len(cells))
		for k := range cells {
			ck = append(ck, k)
		}
		sort.Strings(ck)
		for _, k := range ck {
			if string(g[k]) != string(w[k]) {
				return fmt.Sprintf("proc %s cell %q: replay %q, recorded %q", p, k, g[k], w[k])
			}
		}
	}
	return "snapshots differ only in cell presence shape"
}
