package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"time"

	"repro/internal/apps"
	"repro/internal/chaos"
	"repro/internal/repair"
)

// huntCheckEvery is the early-exit invariant cadence of the registry hunt.
const huntCheckEvery = 256

// bugHunt is the paper's detect → report → recover arc, closed loop with
// one worker: (a) guided search over every application's seeded-bug
// variant, (b) the controlled JitterFreeKV target whose bug only a reorder
// schedule triggers, (c) repair of every knobbed application's shrunk
// artifact from (a).
type bugHunt struct {
	opt  options
	set0 *huntOut // the latest outputs of work set 0, for verify and traced
}

// huntOut is what one rep produced.
type huntOut struct {
	seeds    []int64
	registry []*chaos.SearchReport // phase (a), one per seed
	kv       []*chaos.SearchReport // phase (b), one per seed
	repairs  []*repair.Report      // phase (c)
}

func registryHunt(seed int64, budget, workers int) chaos.SearchConfig {
	return chaos.SearchConfig{Apps: allApps(), Buggy: true, Seed: seed, Budget: budget,
		Workers: workers, CheckEvery: huntCheckEvery}
}

func kvHunt(seed int64, budget int) chaos.SearchConfig {
	return chaos.SearchConfig{Apps: []apps.AppSpec{apps.JitterFreeKV()}, Buggy: true, Seed: seed,
		Budget: budget, Workers: 1}
}

// searchRuns counts every schedule execution a search spent, shrinking
// included.
func searchRuns(rep *chaos.SearchReport) (runs, shrink int) {
	for _, a := range rep.Apps {
		runs += a.Executions + a.ShrinkRuns
		shrink += a.ShrinkRuns
	}
	return runs, shrink
}

// searchEach runs cfg's search one application at a time, with a lap after
// each, and merges the reports. An application's trajectory derives from
// (seed, application name) alone, so the result is the report of a single
// chaos.Search call over all of them.
func searchEach(cfg chaos.SearchConfig, lap func()) *chaos.SearchReport {
	var out *chaos.SearchReport
	for _, spec := range cfg.Apps {
		one := cfg
		one.Apps = []apps.AppSpec{spec}
		rep := chaos.Search(one)
		if out == nil {
			out = rep
		} else {
			out.Apps = append(out.Apps, rep.Apps...)
		}
		lap()
	}
	return out
}

func (w *bugHunt) prepare() error { return nil }

func (w *bugHunt) sets() int { return w.opt.scale.huntSets }

func (w *bugHunt) rep(set int, g *gate, srv *probeServer) (*repOut, error) {
	out := &huntOut{seeds: seedsOfSet(w.opt, set)}
	var repairErr error
	var searchWall, repairWall time.Duration
	c, err := measure(srv, func(lap func()) {
		t0 := time.Now()
		for _, seed := range out.seeds {
			out.registry = append(out.registry, searchEach(registryHunt(seed, w.opt.scale.huntBudget, 1), lap))
			out.kv = append(out.kv, searchEach(kvHunt(seed, w.opt.scale.kvBudget), lap))
		}
		searchWall = time.Since(t0)
		t1 := time.Now()
		for i, seed := range out.seeds {
			repaired := 0
			for _, a := range out.registry[i].Apps {
				if _, err := apps.Knobs(a.App); err != nil || len(a.Failures) == 0 || repaired == w.opt.scale.repairApps {
					continue // no knob table, or nothing to repair (the miss is gated below)
				}
				repaired++
				rep, err := repair.Repair(repair.Config{Artifact: a.Failures[0].Artifact, Seed: seed, Workers: 1})
				if err != nil {
					repairErr = fmt.Errorf("repair %s seed %d: %w", a.App, seed, err)
					continue
				}
				out.repairs = append(out.repairs, rep)
				lap()
			}
		}
		repairWall = time.Since(t1)
	})
	if err != nil {
		return nil, err
	}
	if set == 0 {
		w.set0 = out
	}

	var runs, shrinkRuns, repairRuns, trials, cheapRejects, verifyRuns, fixed int
	var sig bytes.Buffer
	for i, seed := range out.seeds {
		for _, rep := range []*chaos.SearchReport{out.registry[i], out.kv[i]} {
			r, s := searchRuns(rep)
			runs += r
			shrinkRuns += s
			for _, a := range rep.Apps {
				g.check(len(a.Failures) > 0, "hunt seed %d missed the seeded bug of %s", seed, a.App)
			}
			b, err := json.Marshal(rep)
			if err != nil {
				return nil, err
			}
			sig.Write(b)
		}
	}
	g.check(repairErr == nil, "%v", repairErr)
	for _, rep := range out.repairs {
		repairRuns += rep.Runs
		trials += len(rep.Trials)
		if rep.Fixed {
			fixed++ // an honest Fixed=false (kvstore) is a result, not a failure
		}
		for _, t := range rep.Trials {
			if !t.CheapPass {
				cheapRejects++
			} else {
				verifyRuns += t.Runs
			}
		}
		b, err := rep.JSON()
		if err != nil {
			return nil, err
		}
		sig.Write(b)
	}
	return &repOut{cost: c, runs: runs + repairRuns, hash: hashOf(sig.Bytes()), phase: map[string]float64{
		"chaos.search_runs_per_s":   float64(runs) / searchWall.Seconds(),
		"chaos.shrink_runs":         float64(shrinkRuns),
		"repair.wall_s":             repairWall.Seconds(),
		"repair.runs":               float64(repairRuns),
		"repair.trials":             float64(trials),
		"repair.cheap_reject_share": per(float64(cheapRejects), float64(trials)),
		"repair.verify_runs_share":  per(float64(verifyRuns), float64(repairRuns)),
		"repair.fixed_apps":         float64(fixed),
	}}, nil
}

// verify replays every artifact of the latest rep and checks that every
// shrunk schedule is minimal.
func (w *bugHunt) verify(g *gate) error {
	for i, seed := range w.set0.seeds {
		cfg := registryHunt(seed, w.opt.scale.huntBudget, 1)
		for j, a := range w.set0.registry[i].Apps {
			runner := chaos.NewFrontier(cfg.Apps[j], cfg, chaos.StrategyGuided).Runner()
			for _, f := range a.Failures {
				err := f.Artifact.Verify()
				g.check(err == nil, "hunt seed %d: artifact of %s does not replay: %v", seed, a.App, err)
				checkMinimal(g, runner, f, seed)
			}
		}
		cfg = kvHunt(seed, w.opt.scale.kvBudget)
		kv := chaos.NewFrontier(cfg.Apps[0], cfg, chaos.StrategyGuided).Runner()
		for _, f := range w.set0.kv[i].Failures() {
			err := f.Artifact.VerifyWith(kv)
			g.check(err == nil, "hunt seed %d: JitterFreeKV artifact does not replay: %v", seed, err)
			checkMinimal(g, kv, f, seed)
		}
	}
	return nil
}

// checkMinimal demands a 1-minimal shrunk schedule. Shrink never returns the
// empty schedule, so when the seeded bug fires without any fault — true of
// every registry and zoo application, not of JitterFreeKV — it stops at one
// scenario and reports Minimal=false; that case is accepted only when the
// fault-free run on the search's own runner really violates.
func checkMinimal(g *gate, runner chaos.Runner, f *chaos.SearchFailure, seed int64) {
	ok := f.Minimal
	if !ok && len(f.Shrunk) <= 1 {
		ok = len(runner.Run(chaos.Schedule{}).Violations) > 0
	}
	g.check(ok, "hunt seed %d: shrunk schedule of %s is not minimal: %v", seed, runner.Spec.Name, f.Shrunk)
}

// frontierTrace drives one application's search through the public Frontier
// protocol — NextBatch, Runner.Run, Admit, Finish — with spans around each
// call and a decomposed sibling run per candidate. The result must be
// byte-identical to chaos.Search's AppSearch.
type frontierTrace struct {
	rt           *runTrace
	cands, execs int64
	ttff         int // executions until the first violating candidate (budget if none)
	shapes       int
	digests      int
	corpus       int
	failures     int
	shrinkRuns   int
}

func (ft *frontierTrace) drive(spec apps.AppSpec, cfg chaos.SearchConfig, parent int, want *chaos.AppSearch, g *gate) error {
	tr := ft.rt.tr
	app := tr.begin("app", parent, -1)
	f := chaos.NewFrontier(tr.instrument(spec, false), cfg, chaos.StrategyGuided)
	local := chaos.LocalShrinker(f.Runner(), cfg.WithDefaults().ShrinkBudget)
	var admit int
	f.SetShrinker(func(sched chaos.Schedule, res *chaos.RunResult) (fail *chaos.SearchFailure) {
		tr.in("chaos.shrink", admit, -1, func() { fail = local(sched, res) })
		return fail
	})
	first := 0
	for {
		var batch []chaos.Candidate
		tr.in("chaos.next_batch", app, -1, func() { batch = f.NextBatch() })
		if len(batch) == 0 {
			break
		}
		for _, c := range batch {
			var res *chaos.RunResult
			tr.in("chaos.runner_run", app, -1, func() { res = f.Runner().Run(c.Schedule) })
			if first == 0 && len(res.Violations) > 0 {
				first = c.Index + 1
			}
			plain := f.Runner()
			plain.Spec = spec
			ft.rt.decomposedRun(plain, c.Schedule, app, g)
			admit = tr.begin("chaos.admit", app, -1)
			f.Admit(c, res)
			tr.end(admit)
			ft.cands++
		}
	}
	got := f.Finish()
	tr.end(app)
	if first == 0 {
		first = f.Budget()
	}
	ft.ttff += first
	ft.execs += int64(got.Executions)
	ft.shapes += got.DistinctShapes
	ft.digests += got.DistinctDigests
	ft.corpus += len(got.Corpus)
	ft.failures += len(got.Failures)
	ft.shrinkRuns += got.ShrinkRuns
	a, err := json.Marshal(got)
	if err != nil {
		return err
	}
	b, err := json.Marshal(want)
	if err != nil {
		return err
	}
	g.check(bytes.Equal(a, b), "%s seed %d: Frontier-driven search differs from chaos.Search", spec.Name, cfg.Seed)
	return nil
}

func (w *bugHunt) traced(tr *tracer, g *gate) (map[string]float64, error) {
	rt := &runTrace{tr: tr}
	all, kv := &frontierTrace{rt: rt}, &frontierTrace{rt: rt}
	rep := tr.begin("rep", -1, -1)
	for i, seed := range w.set0.seeds {
		cfg := registryHunt(seed, w.opt.scale.huntBudget, 1)
		for j, spec := range cfg.Apps {
			if err := all.drive(spec, cfg, rep, w.set0.registry[i].Apps[j], g); err != nil {
				return nil, err
			}
		}
		cfg = kvHunt(seed, w.opt.scale.kvBudget)
		if err := kv.drive(cfg.Apps[0], cfg, rep, w.set0.kv[i].Apps[0], g); err != nil {
			return nil, err
		}
	}
	tr.end(rep)

	st := tr.stats()
	cands := float64(all.cands + kv.cands)
	failures := float64(all.failures + kv.failures)
	realRuns := float64(st["chaos.runner_run"].count)
	out := rt.runLayers()
	// Spec.Make calls on the real path: NewFrontier's Procs/Crashable, every
	// candidate run and every shrink run; the decomposed siblings are not
	// part of it.
	allRuns := cands + float64(all.shrinkRuns+kv.shrinkRuns)
	out["apps.make_calls_per_run"] = per(float64(tr.agg.makeCalls-rt.runs), allRuns)
	out["apps.make_ns_per_run"] = per(float64(tr.agg.makeNs), float64(tr.agg.makeCalls)) * out["apps.make_calls_per_run"]
	out["chaos.run_ns_per_run"] = per(float64(st["chaos.runner_run"].total), realRuns)
	out["chaos.next_batch_ns_per_cand"] = per(float64(st["chaos.next_batch"].total), cands)
	out["chaos.admit_ns_per_cand"] = per(float64(st["chaos.admit"].self), cands)
	out["chaos.new_shape_share"] = per(float64(all.corpus+kv.corpus), float64(all.execs+kv.execs))
	out["chaos.distinct_shapes"] = float64(all.shapes + kv.shapes)
	out["chaos.distinct_digests"] = float64(all.digests + kv.digests)
	out["chaos.shrink_ns_per_failure"] = per(float64(st["chaos.shrink"].total), failures)
	out["chaos.shrink_runs_per_failure"] = per(float64(all.shrinkRuns+kv.shrinkRuns), failures)
	out["chaos.ttff_runs"] = float64(kv.ttff)
	return out, nil
}

func (w *bugHunt) close() {}
