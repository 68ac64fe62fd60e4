package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/apps"
	"repro/internal/chaos"
	"repro/internal/checkpoint"
	"repro/internal/dsim"
	"repro/internal/fault"
	"repro/internal/scroll"
)

// span is one timed call into a layer, recorded from the benchmark's side
// of the call. Times are nanoseconds since the tracer was created; Parent
// indexes the span that caused this one (-1 for a root); spans of one
// simulation execution share Run.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
	Parent int    `json:"parent"`
	Run    int    `json:"run"`
}

// tracer keeps the spans in memory until the benchmark ends, plus the
// aggregated (not spanned) handler- and context-level timings that the
// machine decorator collects. It is used from one goroutine only: traced
// reps run with one worker.
type tracer struct {
	t0    time.Time
	spans []span
	agg   handlerAgg
	// Clock calibration: pairNs is what one time.Now + time.Since pair costs
	// its caller, emptyNs the part of it that lands inside the measured
	// interval. runLayers takes both out of the handler- and ctx-level sums,
	// where a pair per call is a visible share of the call itself.
	pairNs, emptyNs float64
}

// handlerAgg sums what the Machine/Context decorator saw.
type handlerAgg struct {
	handlerNs, ctxNs                   int64
	handlerCalls, ctxCalls, stateCalls int64
	makeNs, makeCalls                  int64
}

func newTracer() *tracer {
	const pairs = 200_000
	var inside time.Duration
	start := time.Now()
	for i := 0; i < pairs; i++ {
		t0 := time.Now()
		inside += time.Since(t0)
	}
	total := time.Since(start)
	return &tracer{t0: time.Now(), pairNs: float64(total) / pairs, emptyNs: float64(inside) / pairs}
}

func (t *tracer) begin(name string, parent, run int) int {
	t.spans = append(t.spans, span{Name: name, Start: int64(time.Since(t.t0)), Parent: parent, Run: run})
	return len(t.spans) - 1
}

func (t *tracer) end(i int) { t.spans[i].End = int64(time.Since(t.t0)) }

// in runs f inside a span.
func (t *tracer) in(name string, parent, run int, f func()) {
	i := t.begin(name, parent, run)
	f()
	t.end(i)
}

func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(struct {
		Unit  string `json:"time_unit"`
		Spans []span `json:"spans"`
	}{"ns since trace start", t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// spanStat is one span name's totals. Self is duration minus the part the
// span's direct children cover.
type spanStat struct {
	count       int64
	total, self int64
}

func (t *tracer) stats() map[string]spanStat {
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := map[string]spanStat{} // a name no span carries reads as zero
	for i, s := range t.spans {
		st := out[s.Name]
		st.count++
		st.total += s.End - s.Start
		st.self += s.End - s.Start - child[i]
		out[s.Name] = st
	}
	return out
}

// per divides, reading 0 for an empty denominator (a layer the workload
// never entered).
func per(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// instrument returns spec with Make timed and counted and, when wrap is
// set, every machine it builds decorated so that handler, State and Context
// calls are timed. The decorator forwards everything, so digests are
// unchanged — decomposedRun's callers assert that against Runner.Run.
func (t *tracer) instrument(spec apps.AppSpec, wrap bool) apps.AppSpec {
	orig := spec.Make
	spec.Make = func(buggy bool) map[string]dsim.Machine {
		t0 := time.Now()
		ms := orig(buggy)
		t.agg.makeNs += int64(time.Since(t0))
		t.agg.makeCalls++
		if wrap {
			t.wrapMachines(ms)
		}
		return ms
	}
	return spec
}

func (t *tracer) wrapMachines(ms map[string]dsim.Machine) {
	for id, m := range ms {
		tm := &tracedMachine{inner: m, agg: &t.agg}
		tm.ctx.agg = &t.agg
		ms[id] = tm
	}
}

// tracedMachine times a machine's handlers and State calls from outside.
type tracedMachine struct {
	inner dsim.Machine
	agg   *handlerAgg
	ctx   tracedCtx
}

func (m *tracedMachine) State() any {
	m.agg.stateCalls++ // counted, not timed: State returns a pointer
	return m.inner.State()
}

func (m *tracedMachine) handle(ctx dsim.Context, f func(dsim.Context)) {
	outer := m.ctx.inner // handlers can nest: a rollback fires inside a handler's ctx call
	m.ctx.inner = ctx
	t0 := time.Now()
	f(&m.ctx)
	m.agg.handlerNs += int64(time.Since(t0))
	m.agg.handlerCalls++
	m.ctx.inner = outer
}

func (m *tracedMachine) Init(ctx dsim.Context) {
	m.handle(ctx, func(c dsim.Context) { m.inner.Init(c) })
}

func (m *tracedMachine) OnMessage(ctx dsim.Context, from string, payload []byte) {
	m.handle(ctx, func(c dsim.Context) { m.inner.OnMessage(c, from, payload) })
}

func (m *tracedMachine) OnTimer(ctx dsim.Context, name string) {
	m.handle(ctx, func(c dsim.Context) { m.inner.OnTimer(c, name) })
}

func (m *tracedMachine) OnRollback(ctx dsim.Context, info dsim.RollbackInfo) {
	m.handle(ctx, func(c dsim.Context) { m.inner.OnRollback(c, info) })
}

// tracedCtx times every call a handler makes back into the kernel.
type tracedCtx struct {
	inner dsim.Context
	agg   *handlerAgg
}

func (c *tracedCtx) done(t0 time.Time) {
	c.agg.ctxNs += int64(time.Since(t0))
	c.agg.ctxCalls++
}

func (c *tracedCtx) Self() string { defer c.done(time.Now()); return c.inner.Self() }

//fixd:nondeterm the decorator forwards to the wrapped Context, which records the outcome
func (c *tracedCtx) Now() uint64 { defer c.done(time.Now()); return c.inner.Now() }

//fixd:nondeterm the decorator forwards to the wrapped Context, which records the outcome
func (c *tracedCtx) Random() uint64 {
	defer c.done(time.Now())
	return c.inner.Random()
}

//fixd:nondeterm the decorator forwards to the wrapped Context, which records the outcome
func (c *tracedCtx) Send(to string, payload []byte) {
	defer c.done(time.Now())
	c.inner.Send(to, payload)
}
func (c *tracedCtx) SetTimer(name string, delay uint64) {
	defer c.done(time.Now())
	c.inner.SetTimer(name, delay)
}
func (c *tracedCtx) Heap() *checkpoint.Heap { defer c.done(time.Now()); return c.inner.Heap() }

//fixd:nondeterm the decorator forwards to the wrapped Context, which records the outcome
func (c *tracedCtx) DurablePut(key string, value []byte) {
	defer c.done(time.Now())
	c.inner.DurablePut(key, value)
}

//fixd:nondeterm the decorator forwards to the wrapped Context, which records the outcome
func (c *tracedCtx) DurableGet(key string) ([]byte, bool) {
	defer c.done(time.Now())
	return c.inner.DurableGet(key)
}

//fixd:nondeterm the decorator forwards to the wrapped Context, which records the outcome
func (c *tracedCtx) DurableKeys() []string { defer c.done(time.Now()); return c.inner.DurableKeys() }
func (c *tracedCtx) Log(format string, args ...any) {
	defer c.done(time.Now())
	c.inner.Log(format, args...)
}
func (c *tracedCtx) Fault(desc string) { defer c.done(time.Now()); c.inner.Fault(desc) }
func (c *tracedCtx) Checkpoint(label string) string {
	defer c.done(time.Now())
	return c.inner.Checkpoint(label)
}
func (c *tracedCtx) Speculate(assumption string) (string, error) {
	defer c.done(time.Now())
	return c.inner.Speculate(assumption)
}
func (c *tracedCtx) Commit(specID string) error {
	defer c.done(time.Now())
	return c.inner.Commit(specID)
}
func (c *tracedCtx) AbortSpec(specID, reason string) error {
	defer c.done(time.Now())
	return c.inner.AbortSpec(specID, reason)
}
func (c *tracedCtx) Halt() { defer c.done(time.Now()); c.inner.Halt() }

// runTrace is the per-run state of decomposed executions: the arena the
// chaos runner would pool (one Sim, one Fingerprinter) and the counters the
// per-layer metrics are built from.
type runTrace struct {
	tr  *tracer
	sim *dsim.Sim
	fp  scroll.Fingerprinter

	runs, steps, delivered, timerFires, checkpoints, earlyExits int64
	records, storeCkpts, stateBytes                             int64
	monitorNs, monitorCalls                                     int64
	stateReadNs, stateReads                                     int64
	decomposedNs, referenceNs                                   int64
	persistNs, reloadNs, persisted                              int64
}

// decomposedRun re-issues chaos.Runner's run sequence through public API
// with a span around each layer call — Spec.Make, dsim New/Reset +
// AddProcess, Schedule.Compile, Plan.Apply, Sim.Run, Monitor.Check,
// Fingerprinter.Fingerprint — on the runner's Probe: false variant (the
// clock probe is private to chaos), then asserts that digest, shape and
// violations equal an untraced Runner.Run on the same schedule.
func (rt *runTrace) decomposedRun(r chaos.Runner, sched chaos.Schedule, parent int, g *gate) {
	tr := rt.tr
	r.Probe = false
	ref := r
	r.Spec = tr.instrument(r.Spec, true)
	runID := int(rt.runs)
	rt.runs++

	root := tr.begin("run", parent, runID)
	var ms map[string]dsim.Machine
	tr.in("apps.make", root, runID, func() { ms = r.Spec.Make(r.Buggy) })
	tr.in("dsim.setup", root, runID, func() {
		cfg := r.Spec.Config(r.Buggy)
		cfg.Seed = r.Seed
		if rt.sim == nil {
			rt.sim = dsim.New(cfg)
		} else {
			rt.sim.Reset(cfg)
		}
		for _, id := range sortedIDs(ms) {
			rt.sim.AddProcess(id, ms[id])
		}
	})
	s := rt.sim
	var plan *fault.Plan
	tr.in("chaos.compile", root, runID, func() { plan = sched.Compile(s.Procs()) })
	tr.in("fault.apply", root, runID, func() { plan.Apply(s) })
	var mon *fault.Monitor
	tr.in("fault.check", root, runID, func() {
		mon = fault.NewMonitor(r.Spec.Invariants(r.Buggy)...)
		if r.CheckEvery > 0 {
			s.SetStepMonitor(r.CheckEvery, func() bool {
				t0 := time.Now()
				hit := mon.AnyViolated(s)
				rt.monitorNs += int64(time.Since(t0))
				rt.monitorCalls++
				return hit
			})
		}
	})
	var stats dsim.Stats
	tr.in("dsim.run", root, runID, func() { stats = s.Run() })
	var violations []string
	tr.in("fault.check", root, runID, func() {
		for _, v := range mon.Check(s) {
			violations = append(violations, v.Invariant)
		}
	})
	var digest, shape string
	tr.in("scroll.fingerprint", root, runID, func() {
		digest, shape = rt.fp.Fingerprint(s.Scrolls(), chaos.ShapeBucket)
	})
	tr.end(root)
	rt.decomposedNs += tr.spans[root].End - tr.spans[root].Start

	rt.steps += int64(stats.Steps)
	rt.delivered += int64(stats.Delivered)
	rt.timerFires += int64(stats.TimerFires)
	rt.checkpoints += int64(stats.Checkpoints)
	if stats.EarlyExit {
		rt.earlyExits++
	}
	rt.observe(s)

	t0 := time.Now()
	want := ref.Run(sched)
	rt.referenceNs += int64(time.Since(t0))
	g.check(want.Digest == digest && want.Shape == shape && fmt.Sprint(want.Violations) == fmt.Sprint(violations),
		"%s seed %d: traced decomposition digest %.12s differs from Runner.Run's %.12s", r.Spec.Name, r.Seed, digest, want.Digest)
}

// observe reads what a finished simulation holds: scroll records, retained
// checkpoints and their serialized machine state, and the cost of one
// public MachineState read per process.
func (rt *runTrace) observe(s *dsim.Sim) {
	for _, sc := range s.Scrolls() {
		rt.records += int64(sc.Len())
	}
	store := s.Store()
	rt.storeCkpts += int64(store.Len())
	for _, p := range store.Procs() {
		for _, c := range store.List(p) {
			rt.stateBytes += int64(len(c.Extra))
		}
	}
	for _, id := range s.Procs() {
		t0 := time.Now()
		s.MachineState(id)
		rt.stateReadNs += int64(time.Since(t0))
		rt.stateReads++
	}
}

// runLayers turns the spans and counters of the decomposed runs into the
// per-run and per-step layer metrics every workload shares.
func (rt *runTrace) runLayers() map[string]float64 {
	st := rt.tr.stats()
	agg := rt.tr.agg
	runs, steps := float64(rt.runs), float64(rt.steps)
	total := func(name string) float64 { return float64(st[name].total) }
	monitor := float64(rt.monitorNs)
	// Take the clock reads out of the aggregated timings: every timed call
	// carries emptyNs inside its own interval, and a handler's interval also
	// holds the rest of the pair around each ctx call it made; all of the
	// pairs sit inside Sim.Run.
	pair, empty := rt.tr.pairNs, rt.tr.emptyNs
	handlers, ctxs := float64(agg.handlerCalls), float64(agg.ctxCalls)
	ctxNs := float64(agg.ctxNs) - ctxs*empty
	handlerNs := float64(agg.handlerNs-agg.ctxNs) - handlers*empty - ctxs*(pair-empty)
	clockNs := (handlers + ctxs + float64(rt.monitorCalls)) * pair
	out := map[string]float64{
		"apps.handler_ns_per_step":         per(handlerNs, steps),
		"apps.handler_calls_per_run":       per(float64(agg.handlerCalls), runs),
		"apps.state_calls_per_run":         per(float64(agg.stateCalls), runs),
		"dsim.setup_ns_per_run":            per(total("dsim.setup"), runs),
		"dsim.run_self_ns_per_step":        per(total("dsim.run")-handlerNs-monitor-clockNs, steps),
		"dsim.ctx_ns_per_call":             per(ctxNs, ctxs),
		"dsim.ctx_calls_per_run":           per(float64(agg.ctxCalls), runs),
		"dsim.machine_state_ns_per_call":   per(float64(rt.stateReadNs), float64(rt.stateReads)),
		"dsim.steps_per_run":               per(steps, runs),
		"dsim.delivered_per_run":           per(float64(rt.delivered), runs),
		"dsim.timer_fires_per_run":         per(float64(rt.timerFires), runs),
		"dsim.checkpoints_per_run":         per(float64(rt.checkpoints), runs),
		"dsim.early_exit_share":            per(float64(rt.earlyExits), runs),
		"checkpoint.count_per_run":         per(float64(rt.storeCkpts), runs),
		"checkpoint.state_bytes_per_ckpt":  per(float64(rt.stateBytes), float64(rt.storeCkpts)),
		"scroll.records_per_run":           per(float64(rt.records), runs),
		"scroll.fingerprint_ns_per_record": per(total("scroll.fingerprint"), float64(rt.records)),
		"fault.apply_ns_per_run":           per(total("fault.apply"), runs),
		"fault.check_ns_per_run":           per(total("fault.check")+monitor, runs),
		"fault.monitor_calls_per_run":      per(float64(rt.monitorCalls), runs),
		"chaos.compile_ns_per_run":         per(total("chaos.compile"), runs),
		"trace.unattributed_share":         per(float64(st["run"].self), total("run")),
		"trace.overhead_share":             per(float64(rt.decomposedNs-rt.referenceNs), float64(rt.referenceNs)),
	}
	return out
}
