package chaos

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/apps"
	"repro/internal/dsim"
	"repro/internal/fault"
	"repro/internal/scroll"
)

// RunResult is one deterministic execution of an application under a
// fault schedule.
type RunResult struct {
	Digest      string   // SHA-256 of the merged scroll — the replay fingerprint
	Shape       string   // coarse event-shape signature (scroll.Shape, ShapeBucket windows)
	Violations  []string // global invariants violated at quiescence (or at early exit)
	LocalFaults int      // Context.Fault reports during the run
	ProbeFaults int      // clock-probe regressions among them
	Stats       dsim.Stats
	Procs       []string
	// Durable is the stable-storage snapshot at end of run (proc -> cell ->
	// value), captured only for failing runs — its sole consumers are
	// artifact capture and replay verification, and snapshotting every
	// passing run would put a per-run allocation back on the pooled hot
	// path. Deterministic given the cell identity, it pins
	// recovery-dependent outcomes — a crash-restarted coordinator
	// re-installing its logged decision — alongside the scroll digest.
	Durable map[string]map[string][]byte `json:",omitempty"`
	// Epoch is the timeline epoch at end of run: how many deliberate
	// rollbacks (injected Rollback scenarios, heal restores) the run
	// performed. Zero — and omitted from artifacts — for schedules that
	// never roll back, keeping their reports byte-identical to pre-epoch
	// output.
	Epoch uint64 `json:",omitempty"`
}

// ShapeBucket is the Lamport window width RunResult.Shape buckets events
// into. One bucket covers a few message round-trips, so the shape captures
// which phase of the run each process was active in without distinguishing
// individual deliveries.
const ShapeBucket = 64

// Violated reports whether the named invariant (or, with an empty name,
// any invariant) was violated.
func (r *RunResult) Violated(name string) bool {
	for _, v := range r.Violations {
		if name == "" || v == name {
			return true
		}
	}
	return false
}

// Runner binds an application spec, variant and seed so fault schedules
// can be executed repeatedly — matrix cells, shrinking iterations and
// artifact replays all go through here.
type Runner struct {
	Spec  apps.AppSpec
	Buggy bool
	Seed  int64
	Probe bool // attach the clock-probe overlay (matrix cells do)

	// CheckEvery enables early-exit invariant monitoring: every CheckEvery
	// processed simulation steps the application's global invariants are
	// evaluated, and the run halts (Stats.EarlyExit) as soon as one is
	// violated instead of burning the remaining step budget. 0 checks only
	// at quiescence — the classic behavior. Early exit changes what the
	// run executes (shorter scroll, different digest), so it is a run
	// parameter: artifacts record it, and replays must use the same value.
	CheckEvery uint64
}

// Procs returns the sorted process list a run will have, for target
// resolution before any simulation exists.
func (r Runner) Procs() []string {
	ms := r.Spec.Make(r.Buggy)
	ids := make([]string, 0, len(ms)+1)
	for id := range ms {
		ids = append(ids, id)
	}
	if r.Probe {
		ids = append(ids, ProbeName)
	}
	sort.Strings(ids)
	return ids
}

// Crashable returns the indices of processes eligible for crash-restart
// scenarios (per the spec's CrashOK, always excluding the probe).
func (r Runner) Crashable() []int {
	var out []int
	for i, id := range r.Procs() {
		if id != ProbeName && r.Spec.CrashOK(id) {
			out = append(out, i)
		}
	}
	return out
}

// runArena is the per-worker scratch a pooled run reuses: the simulation
// (event arena, process heaps, scroll buffers) and the streaming
// fingerprinter. Runner.Run checks arenas out of a sync.Pool, so each
// worker of a matrix or search pool settles on its own arena instead of
// paying a fresh simulation per run.
type runArena struct {
	sim *dsim.Sim
	fp  scroll.Fingerprinter
}

var arenaPool = sync.Pool{}

// Run executes the schedule. Identical Runner + schedule ⇒ identical
// RunResult, byte-for-byte: processes are added in sorted order, every
// nondeterministic draw flows through the seeded simulation, and a Reset
// arena is observationally identical to a fresh one.
func (r Runner) Run(sched Schedule) *RunResult {
	cfg := r.Spec.Config(r.Buggy)
	cfg.Seed = r.Seed
	a, _ := arenaPool.Get().(*runArena)
	if a == nil {
		a = &runArena{sim: dsim.New(cfg)}
	} else {
		a.sim.Reset(cfg)
	}
	res := r.execute(sched, a.sim)
	res.Digest, res.Shape = a.fp.Fingerprint(a.sim.Scrolls(), ShapeBucket)
	arenaPool.Put(a)
	return res
}

// execute populates the simulation, executes the schedule and collects
// everything of the outcome but its fingerprint.
func (r Runner) execute(sched Schedule, s *dsim.Sim) *RunResult {
	ms := r.Spec.Make(r.Buggy)
	ids := make([]string, 0, len(ms))
	for id := range ms {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		s.AddProcess(id, ms[id])
	}
	if r.Probe {
		s.AddProcess(ProbeName, &clockProbe{})
	}
	procs := s.Procs() // one copy: the result outlives the arena's next Reset
	sched.Compile(procs).Apply(s)
	mon := fault.NewMonitor(r.Spec.Invariants(r.Buggy)...)
	if r.CheckEvery > 0 {
		s.SetStepMonitor(r.CheckEvery, func() bool { return mon.AnyViolated(s) })
	}
	stats := s.Run()

	res := &RunResult{Stats: stats, Procs: procs, Epoch: s.Epoch()}
	for _, v := range mon.Check(s) {
		res.Violations = append(res.Violations, v.Invariant)
	}
	if len(res.Violations) > 0 {
		res.Durable = s.DurableSnapshot()
	}
	for _, f := range s.Faults() {
		res.LocalFaults++
		if f.Proc == ProbeName {
			res.ProbeFaults++
		}
	}
	return res
}

// RunnerFor finds the registered application by name — matrix registry
// first, then the scenario zoo, so zoo artifacts replay through the same
// path as matrix ones.
func RunnerFor(app string, buggy bool, seed int64, probe bool) (Runner, error) {
	spec, err := apps.Lookup(app)
	if err != nil {
		return Runner{}, fmt.Errorf("chaos: unknown application %q", app)
	}
	return Runner{Spec: spec, Buggy: buggy, Seed: seed, Probe: probe}, nil
}
