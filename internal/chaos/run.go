package chaos

import (
	"bytes"
	"fmt"
	"maps"
	"slices"
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
	Shape       string   // coarse event-shape signature (scroll.Fingerprinter, ShapeBucket windows)
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
// scenarios: every process but the probe. Every workload recovers what a
// local rollback would forget (a 2PC decision, a KV version assignment) from
// stable storage, dsim.Context.Durable….
func (r Runner) Crashable() []int {
	var out []int
	for i, id := range r.Procs() {
		if id != ProbeName {
			out = append(out, i)
		}
	}
	return out
}

// runArena is the per-worker scratch a pooled run reuses: the simulation
// (event arena, process heaps, scroll buffers), the streaming
// fingerprinter, the buffers the schedule compiles into — the plan and
// the group target lists its injections alias, both armed on the
// simulation until its next Reset — the sorted process IDs, and the
// invariant monitor each run re-arms with its application's invariants.
// Runner.Run checks arenas out of a free list, so each worker of a matrix
// or search pool runs in a warm arena instead of paying a fresh simulation
// per run.
type runArena struct {
	sim    *dsim.Sim
	fp     scroll.Fingerprinter
	plan   fault.Plan
	groups []string
	ids    []string
	mon    *fault.Monitor
	check  func() bool // the step monitor: mon over sim
}

// arenas holds the arenas no run is using. It is a free list, not a
// sync.Pool: a pool hands a goroutine only what was put back on its own
// processor, and drops what sat idle through two garbage collections, so
// workers that hop between processors (fleet workers waking on the
// network) or whose runs alternate between applications kept paying a
// fresh simulation, with every application's processes in it, and the
// matrix's second runs a fresh arena after every search. The list grows to
// the number of runs that ever ran at once.
var arenas struct {
	sync.Mutex
	free []*runArena
}

// Run executes the schedule. Identical Runner + schedule ⇒ identical
// RunResult, byte-for-byte: processes are added in sorted order, every
// nondeterministic draw flows through the seeded simulation, and a Reset
// arena is observationally identical to a fresh one.
func (r Runner) Run(sched Schedule) *RunResult {
	a := r.checkout()
	res := r.fingerprinted(sched, a)
	release(a)
	return res
}

// runTwice executes the schedule as Run does, then again in a second arena,
// and reports whether the second run reproduced the first: the
// replay-determinism check of a matrix cell. The second run is compared,
// not fingerprinted — its scrolls record for record on every field the
// digest encodes (scroll.Equal), and the rest of its result field by
// field — while both arenas still hold their runs.
func (r Runner) runTwice(sched Schedule) (res *RunResult, deterministic bool) {
	a := r.checkout()
	res = r.fingerprinted(sched, a)
	b := r.checkout()
	again := r.execute(sched, b)
	deterministic = sameOutcome(res, again) && scroll.Equal(a.sim.Scrolls(), b.sim.Scrolls())
	release(a)
	release(b)
	return res, deterministic
}

// checkout takes an arena off the free list, Reset to the runner's
// configuration.
func (r Runner) checkout() *runArena {
	var a *runArena
	arenas.Lock()
	if n := len(arenas.free); n > 0 {
		a, arenas.free = arenas.free[n-1], arenas.free[:n-1]
	}
	arenas.Unlock()
	return r.reset(a)
}

// release returns an arena to the free list.
func release(a *runArena) {
	arenas.Lock()
	arenas.free = append(arenas.free, a)
	arenas.Unlock()
}

// reset Resets the arena's simulation to the runner's configuration, or
// builds an arena when a is nil.
func (r Runner) reset(a *runArena) *runArena {
	cfg := r.Spec.Config(r.Buggy)
	cfg.Seed = r.Seed
	if a == nil {
		return &runArena{sim: dsim.New(cfg)}
	}
	a.sim.Reset(cfg)
	return a
}

// fingerprinted executes the schedule in the arena and fingerprints the
// run's scrolls into the result.
func (r Runner) fingerprinted(sched Schedule, a *runArena) *RunResult {
	res := r.execute(sched, a)
	res.Digest, res.Shape = a.fp.Fingerprint(a.sim.Scrolls(), ShapeBucket)
	return res
}

// sameOutcome compares two results on everything but their fingerprints.
func sameOutcome(x, y *RunResult) bool {
	return x.Stats == y.Stats && x.LocalFaults == y.LocalFaults && x.ProbeFaults == y.ProbeFaults &&
		x.Epoch == y.Epoch && slices.Equal(x.Violations, y.Violations) && slices.Equal(x.Procs, y.Procs) &&
		maps.EqualFunc(x.Durable, y.Durable, func(p, q map[string][]byte) bool { return maps.EqualFunc(p, q, bytes.Equal) })
}

// execute populates the arena's simulation, which must be fresh or Reset,
// executes the schedule and collects everything of the outcome but its
// fingerprint.
func (r Runner) execute(sched Schedule, a *runArena) *RunResult {
	s := a.sim
	ms := r.Spec.Make(r.Buggy)
	ids := a.ids[:0]
	for id := range ms {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	a.ids = ids
	for _, id := range ids {
		s.AddProcess(id, ms[id])
	}
	if r.Probe {
		s.AddProcess(ProbeName, &clockProbe{})
	}
	procs := s.Procs() // one copy: the result outlives the arena's next Reset
	a.plan.Injections = a.plan.Injections[:0]
	a.groups = sched.compile(&a.plan, a.groups[:0], procs)
	a.plan.Apply(s)
	if a.mon == nil {
		a.mon = fault.NewMonitor()
		a.check = func() bool { return a.mon.AnyViolated(a.sim) }
	}
	a.mon.Arm(r.Spec.Invariants(r.Buggy)...)
	if r.CheckEvery > 0 {
		s.SetStepMonitor(r.CheckEvery, a.check)
	}
	stats := s.Run()

	res := &RunResult{Stats: stats, Procs: procs, Epoch: s.Epoch()}
	for _, v := range a.mon.Check(s) {
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
