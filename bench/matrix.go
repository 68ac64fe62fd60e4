package main

import (
	"bytes"
	"encoding/json"
	"fmt"

	"repro/internal/apps"
	"repro/internal/chaos"
)

// matrixSweep is chaos.RunMatrix over the correct variants of every
// application × the matrix fault kinds × many seeds: thousands of ~200 µs
// runs, so per-run set-up dominates and the event loop does little.
type matrixSweep struct {
	opt  options
	cfg  chaos.MatrixConfig
	last *chaos.MatrixReport // the latest rep's report, for verify
}

func (w *matrixSweep) prepare() error {
	w.cfg = chaos.MatrixConfig{
		Apps:    allApps(),
		Kinds:   chaos.MatrixKinds,
		Seeds:   seedsFrom(w.opt.seed, w.opt.scale.matrixSeeds),
		Workers: 1,
	}
	return nil
}

func (w *matrixSweep) sets() int { return 1 }

func (w *matrixSweep) rep(_ int, g *gate, srv *probeServer) (*repOut, error) {
	// One RunMatrix call per application, so the speed probe can run in
	// between; cells are independent, and the concatenation is the report of
	// one call over all of them.
	rep := &chaos.MatrixReport{}
	c, err := measure(srv, func(lap func()) {
		for _, spec := range w.cfg.Apps {
			cfg := w.cfg
			cfg.Apps = []apps.AppSpec{spec}
			rep.Cells = append(rep.Cells, chaos.RunMatrix(cfg).Cells...)
			lap()
		}
	})
	if err != nil {
		return nil, err
	}
	w.last = rep
	var steps uint64
	var sig bytes.Buffer
	for _, cell := range rep.Cells {
		g.check(cell.Pass(), "matrix cell %v: %s", cell.Cell, cell.Fail())
		steps += 2 * cell.Result.Stats.Steps // the determinism re-run repeats the cell's steps
		fmt.Fprintf(&sig, "%v %s %s\n", cell.Cell, cell.Result.Digest, cell.Result.Shape)
	}
	return &repOut{cost: c, runs: 2 * len(rep.Cells), hash: hashOf(sig.Bytes()), phase: map[string]float64{
		"dsim.sim_steps_per_s": float64(steps) / c.wall.Seconds(),
		"dsim.allocs_per_step": float64(c.mallocs) / float64(steps),
		"dsim.bytes_per_step":  float64(c.bytes) / float64(steps),
	}}, nil
}

// verify checks that a Workers: 2 sweep is byte-identical to Workers: 1.
func (w *matrixSweep) verify(g *gate) error {
	one, err := json.Marshal(w.last)
	if err != nil {
		return err
	}
	cfg := w.cfg
	cfg.Workers = 2
	two, err := json.Marshal(chaos.RunMatrix(cfg))
	if err != nil {
		return err
	}
	g.check(bytes.Equal(one, two), "matrix report at Workers: 2 differs from Workers: 1")
	return nil
}

// traced re-issues RunMatrix's cell loop through public API: per cell the
// two public Runner calls that list processes, Generate, the cell's two
// Runner.Run executions, and one decomposed run of the same schedule.
func (w *matrixSweep) traced(tr *tracer, g *gate) (map[string]float64, error) {
	rt := &runTrace{tr: tr}
	rep := tr.begin("rep", -1, -1)
	var cells, runs int64
	for _, spec := range w.cfg.Apps {
		counted := tr.instrument(spec, false)
		for _, kind := range w.cfg.Kinds {
			for _, seed := range w.cfg.Seeds {
				cell := tr.begin("cell", rep, -1)
				runner := chaos.Runner{Spec: counted, Seed: seed, Probe: true}
				var procs []string
				var crashable []int
				tr.in("chaos.procs_crashable", cell, -1, func() {
					procs, crashable = runner.Procs(), runner.Crashable()
				})
				var sched chaos.Schedule
				tr.in("chaos.generate", cell, -1, func() {
					sched = chaos.Schedule{chaos.Generate(kind, procs, crashable, spec.Horizon, seed)}
				})
				var r1, r2 *chaos.RunResult
				tr.in("chaos.runner_run", cell, -1, func() { r1 = runner.Run(sched) })
				tr.in("chaos.runner_run", cell, -1, func() { r2 = runner.Run(sched) })
				g.check(r1.Digest == r2.Digest && len(r1.Violations) == 0, "traced matrix cell %s/%v/s%d failed", spec.Name, kind, seed)
				runner.Spec = spec
				rt.decomposedRun(runner, sched, cell, g)
				tr.end(cell)
				cells++
				runs += 2
			}
		}
	}
	tr.end(rep)
	st := tr.stats()
	out := rt.runLayers()
	out["apps.make_calls_per_run"] = per(float64(tr.agg.makeCalls-rt.runs), float64(runs))
	out["apps.make_ns_per_run"] = per(float64(tr.agg.makeNs), float64(tr.agg.makeCalls)) * out["apps.make_calls_per_run"]
	out["chaos.procs_crashable_ns_per_cell"] = per(float64(st["chaos.procs_crashable"].total), float64(cells))
	out["chaos.generate_ns_per_cell"] = per(float64(st["chaos.generate"].total), float64(cells))
	out["chaos.run_ns_per_run"] = per(float64(st["chaos.runner_run"].total), float64(runs))
	return out, nil
}

func (w *matrixSweep) close() {}
