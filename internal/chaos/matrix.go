package chaos

import (
	"fmt"
	"sort"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/dsim"
	"repro/internal/fault"
	"repro/internal/heal"
	"repro/internal/scroll"
	"repro/internal/substrate"
)

// Cell identifies one matrix cell: application × fault kind × seed.
type Cell struct {
	App  string
	Kind fault.Kind
	Seed int64
}

// String renders the cell, e.g. "kvstore/reorder/s3".
func (c Cell) String() string { return fmt.Sprintf("%s/%v/s%d", c.App, c.Kind, c.Seed) }

// CellResult is one matrix cell's outcome.
type CellResult struct {
	Cell
	Scenario Scenario
	Result   *RunResult
	// Deterministic reports that a second run of the cell reproduced the
	// first: the same scroll records on every field the digest encodes, and
	// the same statistics, violations, fault counts, epoch, processes and
	// stable storage.
	Deterministic bool
}

// Pass reports whether the cell upholds the matrix contract: the correct
// variant's global invariants hold under the injected fault, the execution
// is deterministic, and — for clock-skew cells — the skew was locally
// detected by the clock probe.
func (c *CellResult) Pass() bool { return c.Fail() == "" }

// Fail describes why the cell failed (empty when it passed).
func (c *CellResult) Fail() string {
	switch {
	case !c.Deterministic:
		return "nondeterministic run: the second run diverged"
	case len(c.Result.Violations) > 0:
		return fmt.Sprintf("invariants violated: %v", c.Result.Violations)
	case c.Kind == fault.ClockSkew && c.Result.ProbeFaults == 0:
		return "clock skew not locally detected"
	default:
		return ""
	}
}

// MatrixConfig parameterizes a sweep. Zero values select the defaults:
// every registered application, every matrix fault kind, seeds 1–4,
// sequential execution.
type MatrixConfig struct {
	Apps  []apps.AppSpec
	Kinds []fault.Kind
	Seeds []int64
	// Workers shards the sweep across a bounded worker pool. Cells are
	// independent (each owns its simulation), so any worker count produces
	// the identical report: results are written by cell index, never by
	// completion order. <= 1 runs sequentially.
	Workers int
	// LiveSample opts into the live matrix lane: after the sim sweep, up to
	// this many passing cells (the first ones in report order) re-run their
	// schedules on substrate.LiveSubstrate — the same machines as real
	// goroutines — checking invariants only. Replay digests are sim-only
	// (real scheduling is outside the seed's control), so a live cell
	// diverges when an invariant that held in simulation breaks under real
	// concurrency, or the live run errors. Cells run sequentially: each
	// owns real goroutines and timers.
	LiveSample int
	// CheckEvery is the early-exit invariant cadence every cell runs with
	// (see Runner.CheckEvery). 0 checks only at quiescence.
	CheckEvery uint64
}

// LiveCellResult is one live-lane re-execution of a passing sim cell.
type LiveCellResult struct {
	Cell
	Scenario   Scenario
	Err        string   // live substrate construction or run error
	Violations []string // invariants violated at live quiescence
}

// MatrixReport is a full sweep's outcome.
type MatrixReport struct {
	Cells []*CellResult
	// Live holds the opt-in live-lane results (MatrixConfig.LiveSample).
	Live []*LiveCellResult `json:",omitempty"`
}

// Failures returns the cells that broke the matrix contract.
func (m *MatrixReport) Failures() []*CellResult {
	var out []*CellResult
	for _, c := range m.Cells {
		if !c.Pass() {
			out = append(out, c)
		}
	}
	return out
}

// RunMatrix sweeps fault kinds × applications × seeds on the correct
// variants. Each cell generates its scenario from the cell identity,
// executes it and evaluates the application's global invariants at
// quiescence, then executes it again as the replay-determinism check: the
// second run is compared with the first record for record (see
// CellResult.Deterministic), and only the first is fingerprinted. With
// cfg.Workers > 1 the cells are sharded across a worker pool; the report
// is identical to a sequential sweep regardless of worker count.
func RunMatrix(cfg MatrixConfig) *MatrixReport {
	if cfg.Apps == nil {
		cfg.Apps = apps.Registry()
	}
	if cfg.Kinds == nil {
		cfg.Kinds = MatrixKinds
	}
	if cfg.Seeds == nil {
		cfg.Seeds = []int64{1, 2, 3, 4}
	}
	// Enumerate the cells up front: the slice order is the report order,
	// whatever order the workers finish in.
	type cellSpec struct {
		spec      apps.AppSpec
		procs     []string
		crashable []int
		kind      fault.Kind
		seed      int64
	}
	var specs []cellSpec
	for _, spec := range cfg.Apps {
		// The process list and its crashable subset depend on the
		// application alone, and listing them builds every machine
		// (Spec.Make): resolve them once per application, not per cell.
		lister := Runner{Spec: spec, Probe: true}
		procs, crashable := lister.Procs(), lister.Crashable()
		for _, kind := range cfg.Kinds {
			for _, seed := range cfg.Seeds {
				specs = append(specs, cellSpec{spec: spec, procs: procs, crashable: crashable, kind: kind, seed: seed})
			}
		}
	}
	rep := &MatrixReport{Cells: make([]*CellResult, len(specs))}
	runCell := func(i int) {
		cs := specs[i]
		runner := Runner{Spec: cs.spec, Seed: cs.seed, Probe: true, CheckEvery: cfg.CheckEvery}
		scen := Generate(cs.kind, cs.procs, cs.crashable, cs.spec.Horizon, cs.seed)
		res, deterministic := runner.runTwice(Schedule{scen})
		rep.Cells[i] = &CellResult{
			Cell:          Cell{App: cs.spec.Name, Kind: cs.kind, Seed: cs.seed},
			Scenario:      scen,
			Result:        res,
			Deterministic: deterministic,
		}
	}
	parallel(len(specs), cfg.Workers, runCell)
	// The live lane re-runs the first LiveSample passing cells (report order,
	// so the sample is deterministic) on the live substrate, sequentially:
	// each live cell owns real goroutines and timers.
	remaining := cfg.LiveSample
	for i, c := range rep.Cells {
		if remaining == 0 {
			break
		}
		if c == nil || !c.Pass() {
			continue
		}
		rep.Live = append(rep.Live, runLiveCell(specs[i].spec, c))
		remaining--
	}
	return rep
}

// runLiveCell re-executes one passing sim cell's schedule on the live
// substrate — the same machines as real goroutines over the in-memory
// switch — and checks the application's invariants at quiescence. Digests
// are not compared: replay determinism is a sim-only capability.
func runLiveCell(spec apps.AppSpec, c *CellResult) *LiveCellResult {
	out := &LiveCellResult{Cell: c.Cell, Scenario: c.Scenario}
	simCfg := spec.Config(false)
	live, err := substrate.NewLive(substrate.LiveConfig{
		Seed:            c.Seed,
		InitCheckpoint:  simCfg.InitCheckpoint,
		CheckpointEvery: simCfg.CheckpointEvery,
	})
	if err != nil {
		out.Err = err.Error()
		return out
	}
	defer live.Close()
	ms := spec.Make(false)
	ids := make([]string, 0, len(ms))
	for id := range ms {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		live.AddProcess(id, ms[id])
	}
	live.AddProcess(ProbeName, &clockProbe{})
	Schedule{c.Scenario}.Compile(live.Procs()).Apply(live)
	live.Run()
	for _, v := range fault.NewMonitor(spec.Invariants(false)...).Check(live) {
		out.Violations = append(out.Violations, v.Invariant)
	}
	return out
}

// PipelineResult records one detect → report → recover execution on an
// application's seeded-bug variant.
type PipelineResult struct {
	App         string
	Seed        int64
	Detected    bool // the fault reached the coordinator
	LocalDetect bool // detection came from Context.Fault (vs the global monitor)
	FaultDesc   string
	TrailFound  bool   // the Investigator produced a violation trail
	ReplayClean bool   // the detector's scroll replays without divergence
	HealOK      bool   // the Healer's dynamic update was verified and applied
	Recovered   bool   // the invariants hold after heal + resume
	Digest      string // merged-scroll digest at detection time
}

// Complete reports whether every pipeline stage succeeded.
func (p *PipelineResult) Complete() bool {
	return p.Detected && p.TrailFound && p.ReplayClean && p.HealOK && p.Recovered
}

// RunPipeline executes the full FixD pipeline on the application's
// seeded-bug variant: run until the bug is detected (locally via
// Context.Fault, or — for silently corrupting bugs like the election's
// missing step-down — by the global invariant monitor at quiescence),
// investigate from the assembled recovery line, verify the scroll replays
// the detecting process without divergence, then heal with the corrected
// program and check that the invariants hold after resuming.
func RunPipeline(spec apps.AppSpec, seed int64) *PipelineResult {
	res := &PipelineResult{App: spec.Name, Seed: seed}
	cfg := spec.Config(true)
	cfg.Seed = seed
	cfg.CICheckpoint = true // fine-grained recovery lines for the response
	s := dsim.New(cfg)
	ms := spec.Make(true)
	runner := Runner{Spec: spec, Buggy: true}
	procs := runner.Procs()
	for _, id := range procs {
		s.AddProcess(id, ms[id])
	}
	factories := make(map[string]func() dsim.Machine, len(procs))
	for _, id := range procs {
		id := id
		factories[id] = func() dsim.Machine { return spec.Make(true)[id] }
	}
	invs := spec.Invariants(true)
	coord := core.NewCoordinator(s, factories, invs, core.Config{
		TreatLocalFaultAsViolation: true,
		StopAtFirstViolation:       true,
		MaxStates:                  30_000,
		MaxDepth:                   32,
	})
	s.Run()

	var resp *core.Response
	if rs := coord.Responses(); len(rs) > 0 {
		resp = rs[0]
		res.Detected, res.LocalDetect = true, true
	} else if v := fault.NewMonitor(invs...).Check(s); len(v) > 0 {
		// Silent corruption: the global monitor is the detector; feed its
		// verdict through the same Fig. 4 response protocol.
		f := dsim.FaultRecord{
			Proc: procs[0], Time: s.Now(), Clock: s.Clock(procs[0]),
			Desc: "monitor: " + v[0].Invariant,
		}
		r, err := coord.Respond(f)
		if err == nil {
			resp, res.Detected = r, true
		}
	}
	if resp == nil {
		return res
	}
	res.FaultDesc = resp.Fault.Desc
	res.Digest = scroll.Digest(s.MergedScroll())
	res.TrailFound = resp.Investigation != nil && resp.Investigation.Violating()

	// Report: the detector's scroll must replay its execution without
	// divergence, re-reporting the same local fault (liblog-style).
	detector := resp.Fault.Proc
	if rr, err := dsim.Replay(detector, spec.Make(true)[detector],
		s.Scroll(detector).Records(), cfg.HeapSize, cfg.HeapPageSize); err == nil && !rr.Diverged {
		res.ReplayClean = !res.LocalDetect || len(rr.Faults) > 0
	}

	// Recover: dynamic update with the corrected program at the recovery
	// line, then resume and re-check the invariants.
	if len(resp.Line) == 0 {
		return res
	}
	fixedFactories := make(map[string]func() dsim.Machine, len(procs))
	for _, id := range procs {
		id := id
		fixedFactories[id] = func() dsim.Machine { return spec.MakeFixed()[id] }
	}
	hrep, err := heal.Apply(s, resp.Line, heal.Program{Version: "fixed", Factories: fixedFactories},
		nil, heal.VerifyOptions{Invariants: invs})
	if err != nil || !hrep.Verified() {
		return res
	}
	res.HealOK = true
	s.Resume()
	res.Recovered = len(fault.NewMonitor(invs...).Check(s)) == 0
	return res
}
