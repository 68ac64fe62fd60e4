// Package chaos is FixD's deterministic chaos-testing subsystem: a
// composable fault-scenario DSL, a seeded matrix runner that sweeps fault
// kinds × workload applications × seeds, an AFL-style coverage-guided
// schedule search over scroll fingerprints (see search.go), and a
// delta-debugging shrinker that minimizes failing fault schedules to
// replayable counterexamples.
//
// The paper's central claim is that faults on arbitrary distributed
// applications can be detected, reported and recovered from (§1). The
// experiments exercise a handful of hand-written fault plans; this package
// turns that into a scenario-diversity engine. A Scenario is one fault
// kind applied to a target set over a timing window at an intensity; a
// Schedule composes scenarios; the matrix runner executes schedules on the
// registered applications (internal/apps.Registry) and checks
//
//   - safety: every application's global invariants (fault.Monitor) hold
//     at quiescence under every injected fault on the correct variant;
//   - determinism: a repeated run produces a byte-identical merged-scroll
//     digest, so every cell is replayable from (app, seed, schedule);
//   - the detect → report → recover pipeline: seeded bugs are locally
//     detected, the Investigator produces a violation trail, and the
//     Healer's dynamic update restores the invariants (see matrix.go).
//
// Everything is seeded: the same (kind, app shape, seed) triple always
// generates the same scenario, and the same (app, variant, seed, schedule)
// quadruple always produces the same execution.
package chaos

import (
	"fmt"
	"hash/fnv"
	"strings"
	"sync"

	"repro/internal/dsim"
	"repro/internal/fault"
)

// genRngPool recycles scenario-generation rngs: Generate runs once per
// matrix cell and once per search seed, and re-seeding a pooled source is
// a register copy instead of the stdlib's full seeding pass.
var genRngPool = sync.Pool{New: func() any { return dsim.NewReseedableRand() }}

// Window is a half-open virtual-time interval [From, To).
type Window struct {
	From uint64
	To   uint64
}

// Len returns the window length.
func (w Window) Len() uint64 {
	if w.To <= w.From {
		return 0
	}
	return w.To - w.From
}

// Intensity quantifies a scenario's severity. Only the fields of the kind's
// intensity dimension (see dims) are used.
type Intensity struct {
	Extra  uint64  `json:",omitempty"` // fixed extra latency, or handler lag
	Jitter uint64  `json:",omitempty"` // seeded extra latency bound
	Prob   float64 `json:",omitempty"` // per-message probability
	Skew   int64   `json:",omitempty"` // observed-clock offset
}

// Scenario is one composable fault: kind × target set × timing window ×
// intensity. Targets are indices into the application's sorted process
// list, so the same scenario applies to any application shape:
//
//	Scenario{Kind: fault.Reorder, Targets: []int{1, 2},
//	         Window: Window{From: 10, To: 80},
//	         Intensity: Intensity{Jitter: 25}}
//
// For Crash the window means crash at From, restart at To. An empty
// target list means "all processes" for message-level kinds.
type Scenario struct {
	Kind      fault.Kind
	Targets   []int `json:",omitempty"`
	Window    Window
	Intensity Intensity
}

// String renders the scenario compactly, e.g.
// "reorder(j=25)@[10,80)→{1,2}".
func (sc Scenario) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%v", sc.Kind)
	b.WriteString(dims[rowOf(sc.Kind).dim].format(sc.Intensity))
	fmt.Fprintf(&b, "@[%d,%d)", sc.Window.From, sc.Window.To)
	if len(sc.Targets) > 0 {
		fmt.Fprintf(&b, "→%v", sc.Targets)
	}
	return b.String()
}

// Schedule is a composed, reproducible fault schedule.
type Schedule []Scenario

// String joins the scenario descriptions.
func (s Schedule) String() string {
	if len(s) == 0 {
		return "(no faults)"
	}
	parts := make([]string, len(s))
	for i, sc := range s {
		parts[i] = sc.String()
	}
	return strings.Join(parts, " + ")
}

// resolve maps target indices to process IDs, silently skipping
// out-of-range indices so shrunken schedules stay valid on any app.
func resolve(targets []int, procs []string) []string {
	out := make([]string, 0, len(targets))
	for _, i := range targets {
		if i >= 0 && i < len(procs) {
			out = append(out, procs[i])
		}
	}
	return out
}

// Compile resolves the schedule against a concrete (sorted) process list
// into an injectable fault plan. A scenario whose kind is not a scenario
// kind compiles to nothing.
func (s Schedule) Compile(procs []string) *fault.Plan {
	plan := &fault.Plan{}
	for _, sc := range s {
		row := rowOf(sc.Kind)
		targets := resolve(sc.Targets, procs)
		in := dims[row.dim].only(sc.Intensity)
		inj := fault.Injection{Kind: sc.Kind, At: sc.Window.From, Until: sc.Window.To,
			Extra: in.Extra, Jitter: in.Jitter, Prob: in.Prob, Skew: in.Skew}
		switch row.shape {
		case shapeGroup:
			inj.Group = targets
			plan.Injections = append(plan.Injections, inj)
		case shapePerProc:
			for _, p := range targets {
				inj.Proc = p
				plan.Injections = append(plan.Injections, inj)
			}
		case shapePoint, shapeCrashRestart:
			for _, p := range targets {
				plan.Injections = append(plan.Injections, fault.Injection{Kind: sc.Kind, Proc: p, At: sc.Window.From})
				if row.shape == shapeCrashRestart {
					plan.Injections = append(plan.Injections, fault.Injection{Kind: fault.Restart, Proc: p, At: sc.Window.To})
				}
			}
		}
	}
	return plan
}

// Generate builds the seeded scenario for one matrix cell. Identical
// (kind, procs, crashable, horizon, seed) inputs generate identical
// scenarios. procs is the sorted process list the scenario will run
// against (including the clock probe, which is always last); crashable
// lists the indices eligible for crash-restart.
func Generate(kind fault.Kind, procs []string, crashable []int, horizon uint64, seed int64) Scenario {
	h := fnv.New64a()
	fmt.Fprintf(h, "%v|%d|%s", kind, len(procs), strings.Join(procs, ","))
	pooled := genRngPool.Get().(*dsim.ReseedableRand)
	defer genRngPool.Put(pooled)
	pooled.Reseed(seed ^ int64(h.Sum64()))
	rng := pooled.Rand
	if horizon < 40 {
		horizon = 40
	}
	row := rowOf(kind)
	sc := Scenario{Kind: kind}
	if row.window != nil {
		sc.Window = row.window(rng, horizon)
	}
	sc.Targets = pickTargets(rng, row.targets, procs, crashable)
	sc.Intensity = dims[row.dim].gen(rng, row.lo, row.span)
	return sc
}

// ProbeName is the clock probe's process ID. It starts with "zz" so it
// sorts after every application process and never disturbs target indices.
const ProbeName = "zz-clockprobe"

// probeState is the clock probe's serializable state.
type probeState struct {
	Last        uint64
	Ticks       int
	Regressions int
}

// clockProbe is the overlay machine the matrix adds to every cell: it
// samples Context.Now on a fixed cadence (recording the observations in
// its scroll, so injected skew is visible in the run digest) and reports a
// local fault whenever the observed clock runs backwards — the standard
// local detector for clock skew.
type clockProbe struct{ st probeState }

// probeTicks bounds the probe's lifetime so runs still quiesce.
const probeTicks = 40

// State implements dsim.Machine.
func (p *clockProbe) State() any { return &p.st }

// Init arms the sampling timer.
func (p *clockProbe) Init(ctx dsim.Context) { ctx.SetTimer("probe", 2) }

// OnMessage ignores input.
func (p *clockProbe) OnMessage(dsim.Context, string, []byte) {}

// OnTimer samples the clock and checks monotonicity.
func (p *clockProbe) OnTimer(ctx dsim.Context, name string) {
	if name != "probe" {
		return
	}
	now := ctx.Now()
	if now < p.st.Last {
		p.st.Regressions++
		ctx.Fault(fmt.Sprintf("clock-probe: observed clock regressed %d -> %d", p.st.Last, now))
	}
	p.st.Last = now
	p.st.Ticks++
	if p.st.Ticks < probeTicks {
		ctx.SetTimer("probe", 5)
	}
}

// OnRollback does nothing; the probe resumes from restored state.
func (p *clockProbe) OnRollback(dsim.Context, dsim.RollbackInfo) {}
