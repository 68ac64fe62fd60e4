package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/apps"
	"repro/internal/chaos"
	"repro/internal/dsim"
	"repro/internal/fault"
	"repro/internal/scroll"
)

// longSim is one of long_replay's three long single simulations.
type longSim struct {
	name       string
	make       func() map[string]dsim.Machine
	invariants []fault.GlobalInvariant
}

// longReplay records three long simulations directly on dsim.New, then
// fingerprints the scrolls and replays every process's scroll against a
// fresh machine. Per-run set-up is ~0 and the dsim kernel is nearly
// everything; the scroll is used both ways, append and read.
type longReplay struct {
	opt  options
	tmp  string
	sims []longSim
}

func (w *longReplay) prepare() error {
	sc := w.opt.scale
	ring := apps.TokenRingConfig{N: 8, Rounds: sc.ringRounds}
	kv := apps.KVConfig{Replicas: 4, Writes: sc.kvWrites, Keys: 64}
	bank := apps.BankConfig{Branches: 6, AccountsPer: 8, InitialBalance: 100000, Transfers: sc.bankTransfers}
	w.sims = []longSim{
		{"tokenring", func() map[string]dsim.Machine { return apps.NewTokenRing(ring) },
			[]fault.GlobalInvariant{apps.TokenRingInvariant()}},
		{"kvstore", func() map[string]dsim.Machine { return apps.NewKVStore(kv) },
			[]fault.GlobalInvariant{apps.KVSafety()}},
		{"bank", func() map[string]dsim.Machine { return apps.NewBank(bank) },
			[]fault.GlobalInvariant{apps.BankConservation(bank), apps.BankNoOverdraft()}},
	}
	return os.MkdirAll(w.tmp, 0o755)
}

func (w *longReplay) config() dsim.Config {
	return dsim.Config{Seed: w.opt.seed, InitCheckpoint: true, CheckpointEvery: 4, MaxSteps: 50_000_000}
}

// replayPhases is the time one rep spent in each direction of the scroll.
type replayPhases struct {
	run, fingerprint, replay time.Duration
	steps, records           uint64
	diverged                 int
}

// record runs one long simulation, checks its invariants, fingerprints its
// scrolls and replays every process. tr, when set, receives a span per
// public call and decorates the machines.
func (w *longReplay) record(ls longSim, ph *replayPhases, sig *bytes.Buffer, g *gate, lap func(), rt *runTrace, parent int) {
	in := func(name string, f func()) { f() }
	root := -1
	mk := ls.make
	if rt != nil {
		runID := int(rt.runs)
		rt.runs++
		root = rt.tr.begin("run", parent, runID)
		in = func(name string, f func()) { rt.tr.in(name, root, runID, f) }
		mk = func() map[string]dsim.Machine {
			ms := ls.make()
			rt.tr.wrapMachines(ms)
			return ms
		}
	}
	cfg := w.config()
	var ms map[string]dsim.Machine
	in("apps.make", func() { ms = mk() })
	ids := sortedIDs(ms)
	var s *dsim.Sim
	in("dsim.setup", func() {
		s = dsim.New(cfg)
		for _, id := range ids {
			s.AddProcess(id, ms[id])
		}
	})
	var stats dsim.Stats
	t0 := time.Now()
	in("dsim.run", func() { stats = s.Run() })
	ph.run += time.Since(t0)
	ph.steps += stats.Steps
	lap()

	var violations []fault.Violation
	in("fault.check", func() { violations = fault.NewMonitor(ls.invariants...).Check(s) })
	g.check(len(violations) == 0, "long_replay %s: invariants violated: %v", ls.name, violations)

	var fp scroll.Fingerprinter
	var digest string
	t1 := time.Now()
	in("scroll.fingerprint", func() { digest, _ = fp.Fingerprint(s.Scrolls(), chaos.ShapeBucket) })
	ph.fingerprint += time.Since(t1)
	fmt.Fprintf(sig, "%s %s %d\n", ls.name, digest, stats.Steps)
	lap()

	fresh := ls.make()
	for _, id := range ids {
		var recs []scroll.Record
		in("scroll.records", func() { recs = s.Scroll(id).Records() })
		ph.records += uint64(len(recs))
		var res *dsim.ReplayResult
		var err error
		t2 := time.Now()
		in("dsim.replay", func() { res, err = dsim.Replay(id, fresh[id], recs, cfg.HeapSize, cfg.HeapPageSize) })
		ph.replay += time.Since(t2)
		ok := err == nil && !res.Diverged
		if !ok {
			ph.diverged++
		}
		g.check(ok, "long_replay %s: replay of %s diverged or failed: %v", ls.name, id, err)
		if ok {
			fmt.Fprintf(sig, "%s %d %d %x\n", id, res.Events, res.Sends, res.HeapHash)
		}
		lap()
	}
	if rt != nil {
		rt.tr.end(root)
		rt.decomposedNs += rt.tr.spans[root].End - rt.tr.spans[root].Start
		rt.steps += int64(stats.Steps)
		rt.delivered += int64(stats.Delivered)
		rt.timerFires += int64(stats.TimerFires)
		rt.checkpoints += int64(stats.Checkpoints)
		rt.observe(s)
		if ls.name == "bank" {
			err := w.persist(s.Scroll(ids[0]), rt)
			g.check(err == nil, "long_replay: durable scroll round trip: %v", err)
		}
	}
}

func (w *longReplay) sets() int { return 1 }

func (w *longReplay) rep(_ int, g *gate, srv *probeServer) (*repOut, error) {
	var ph replayPhases
	var sig bytes.Buffer
	c, err := measure(srv, func(lap func()) {
		for _, ls := range w.sims {
			w.record(ls, &ph, &sig, g, lap, nil, -1)
		}
	})
	if err != nil {
		return nil, err
	}
	return &repOut{cost: c, runs: len(w.sims), hash: hashOf(sig.Bytes()), phase: map[string]float64{
		"dsim.sim_steps_per_s":             float64(ph.steps) / ph.run.Seconds(),
		"dsim.allocs_per_step":             float64(c.mallocs) / float64(ph.steps),
		"dsim.bytes_per_step":              float64(c.bytes) / float64(ph.steps),
		"scroll.fingerprint_records_per_s": float64(ph.records) / ph.fingerprint.Seconds(),
		"dsim.replay_records_per_s":        float64(ph.records) / ph.replay.Seconds(),
	}}, nil
}

func (w *longReplay) verify(*gate) error { return nil } // every rep already replays everything

func (w *longReplay) traced(tr *tracer, g *gate) (map[string]float64, error) {
	rt := &runTrace{tr: tr}
	var ph, ref replayPhases
	var sig, refSig bytes.Buffer
	rep := tr.begin("rep", -1, -1)
	for _, ls := range w.sims {
		w.record(ls, &ph, &sig, g, func() {}, rt, rep)
	}
	tr.end(rep)
	// The decorated machines must leave every digest unchanged, and the same
	// untraced pass is the base of the tracing overhead.
	t0 := time.Now()
	for _, ls := range w.sims {
		w.record(ls, &ref, &refSig, g, func() {}, nil, -1)
	}
	rt.referenceNs = int64(time.Since(t0))
	g.check(bytes.Equal(sig.Bytes(), refSig.Bytes()), "long_replay: traced digests differ from the untraced ones")

	out := rt.runLayers()
	st := tr.stats()
	out["apps.make_calls_per_run"] = 2 // one set of machines to record, a fresh one to replay
	out["apps.make_ns_per_run"] = per(float64(st["apps.make"].total), float64(rt.runs)) * 2
	out["dsim.replay_ns_per_record"] = per(float64(st["dsim.replay"].total), float64(ph.records))
	out["dsim.replay_diverged"] = float64(ph.diverged)
	out["scroll.persist_ns_per_record"] = per(float64(rt.persistNs), float64(rt.persisted))
	out["scroll.reload_ns_per_record"] = per(float64(rt.reloadNs), float64(rt.persisted))
	return out, nil
}

// persist round-trips one recorded scroll through OpenDurable: append every
// record to a WAL-backed scroll, close it, reopen it, and check that the
// reloaded records digest equal. Disk-bound, so advisory.
func (w *longReplay) persist(src *scroll.Scroll, rt *runTrace) error {
	dir := filepath.Join(w.tmp, "durable")
	defer os.RemoveAll(dir)
	recs := src.Records()
	t0 := time.Now()
	d, err := scroll.OpenDurable(src.Proc(), dir)
	if err != nil {
		return err
	}
	for _, r := range recs {
		if _, err := d.Append(r); err != nil {
			d.Close()
			return err
		}
	}
	if err := d.Close(); err != nil {
		return err
	}
	rt.persistNs += int64(time.Since(t0))
	t1 := time.Now()
	back, err := scroll.OpenDurable(src.Proc(), dir)
	if err != nil {
		return err
	}
	defer back.Close()
	rt.reloadNs += int64(time.Since(t1))
	if scroll.Digest(back.Records()) != scroll.Digest(recs) {
		return fmt.Errorf("reloaded scroll of %s digests differently", src.Proc())
	}
	rt.persisted += int64(len(recs))
	return nil
}

func (w *longReplay) close() { os.RemoveAll(w.tmp) }
