package repro

// One benchmark per paper figure (see README.md for the index). The full table
// regeneration lives in cmd/fixd-bench; these testing.B benchmarks measure
// the core operation behind each experiment so regressions are visible in
// standard Go tooling.

import (
	"fmt"
	"testing"

	"repro/internal/apps"
	"repro/internal/baselines"
	"repro/internal/chaos"
	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/dsim"
	"repro/internal/experiments"
	"repro/internal/fault"
	"repro/internal/heal"
	"repro/internal/modeld"
	"repro/internal/recovery"
	"repro/internal/scroll"
)

// --- E1: the Scroll (Figure 1) ---

func BenchmarkE1ScrollRecord(b *testing.B) {
	s := scroll.NewMemory("bench")
	payload := make([]byte, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Append(scroll.Record{Kind: scroll.KindRecv, MsgID: "m", Peer: "p", Payload: payload, Lamport: uint64(i)})
	}
}

// BenchmarkScrollAppendLong records one long execution's worth of history
// per iteration: B/op is what a 200k-record scroll costs to build, which is
// its own size when history is appended and three times that when a growing
// array recopies it.
func BenchmarkScrollAppendLong(b *testing.B) {
	payload := make([]byte, 64)
	b.ReportAllocs()
	for b.Loop() {
		s := scroll.NewMemory("bench")
		for i := range 200_000 {
			s.Append(scroll.Record{Kind: scroll.KindRecv, MsgID: "m", Peer: "p", Payload: payload, Lamport: uint64(i)})
		}
	}
}

func BenchmarkE1ScrollReplay(b *testing.B) {
	// Record one token-ring node's scroll, then replay it repeatedly.
	ms := apps.NewTokenRing(apps.TokenRingConfig{N: 4, Rounds: 10})
	sim := dsim.New(dsim.Config{Seed: 1, MaxSteps: 100_000})
	for id, m := range ms {
		sim.AddProcess(id, m)
	}
	sim.Run()
	recs := sim.Scroll(apps.RingProcName(1)).Records()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fresh := apps.NewTokenRing(apps.TokenRingConfig{N: 4, Rounds: 10})[apps.RingProcName(1)]
		res, err := dsim.Replay(apps.RingProcName(1), fresh, recs, 0, 0)
		if err != nil || res.Diverged {
			b.Fatalf("replay failed: %v diverged=%v", err, res.Diverged)
		}
	}
}

// --- E2: the Time Machine (Figure 2) ---

func benchHeap(size int) *checkpoint.Heap {
	h := checkpoint.NewHeapPages(size, 4096)
	buf := make([]byte, 8)
	for off := 0; off < size; off += 4096 {
		h.Write(off, buf)
	}
	return h
}

func BenchmarkE2CheckpointFull(b *testing.B) {
	for _, size := range []int{64 << 10, 1 << 20} {
		b.Run(fmt.Sprintf("heap=%dKiB", size>>10), func(b *testing.B) {
			h := benchHeap(size)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				h.FullSnapshot()
			}
		})
	}
}

func BenchmarkE2CheckpointCOW(b *testing.B) {
	for _, size := range []int{64 << 10, 1 << 20} {
		b.Run(fmt.Sprintf("heap=%dKiB", size>>10), func(b *testing.B) {
			h := benchHeap(size)
			buf := make([]byte, 8)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				h.Snapshot()
				h.Write((i%4)*4096, buf) // touch a small working set
			}
		})
	}
}

func BenchmarkE2Rollback(b *testing.B) {
	h := benchHeap(256 << 10)
	snap := h.Snapshot()
	buf := make([]byte, 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Write((i%16)*4096, buf)
		h.Restore(snap)
	}
}

// --- E3: the Investigator (Figure 3) ---

func BenchmarkE3InvestigatorExplore(b *testing.B) {
	cfg := apps.TwoPCConfig{
		Participants: 2, NoVoters: []int{1}, SlowVoters: []int{1},
		Timeout: 10, VoteDelay: 100, Buggy: true,
	}
	factories := map[string]func() dsim.Machine{}
	for id := range apps.NewTwoPC(cfg) {
		id := id
		factories[id] = func() dsim.Machine { return apps.NewTwoPC(cfg)[id] }
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := baselines.CMCCheck(factories, []fault.GlobalInvariant{apps.TwoPCAtomicity()}, 50_000, 32)
		if err != nil || rep.Violations == 0 {
			b.Fatalf("exploration failed: %v violations=%d", err, rep.Violations)
		}
	}
}

// --- E4: the fault-response protocol (Figure 4) ---

func BenchmarkE4FaultResponse(b *testing.B) {
	cfg := apps.TwoPCConfig{
		Participants: 2, NoVoters: []int{1}, SlowVoters: []int{1},
		Timeout: 10, VoteDelay: 100, Buggy: true,
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := dsim.New(dsim.Config{Seed: 1, MinLatency: 1, MaxLatency: 2, MaxSteps: 5000, CICheckpoint: true})
		for id, m := range apps.NewTwoPC(cfg) {
			s.AddProcess(id, m)
		}
		factories := map[string]func() dsim.Machine{}
		for id := range apps.NewTwoPC(cfg) {
			id := id
			factories[id] = func() dsim.Machine { return apps.NewTwoPC(cfg)[id] }
		}
		coord := core.NewCoordinator(s, factories, core.Config{
			Invariants:           []fault.GlobalInvariant{apps.TwoPCAtomicity()},
			StopAtFirstViolation: true, MaxStates: 20_000, MaxDepth: 32,
		})
		if resp := coord.RunProtected(); resp == nil {
			b.Fatal("no fault")
		}
	}
}

// --- E5: the Healer (Figure 5) ---

func healBenchSetup() (*dsim.Sim, heal.Program) {
	bugCfg := apps.BankConfig{Branches: 2, AccountsPer: 4, InitialBalance: 1000, Transfers: 12, LoseCredits: 4}
	fixCfg := bugCfg
	fixCfg.LoseCredits = 0
	s := dsim.New(dsim.Config{Seed: 3, MaxSteps: 50_000, CheckpointEvery: 4, InitCheckpoint: true})
	for id, m := range apps.NewBank(bugCfg) {
		s.AddProcess(id, m)
	}
	s.Run()
	factories := map[string]func() dsim.Machine{}
	for id := range apps.NewBank(fixCfg) {
		id := id
		factories[id] = func() dsim.Machine { return apps.NewBank(fixCfg)[id] }
	}
	return s, heal.Program{Version: "fixed", Factories: factories}
}

func BenchmarkE5HealRestart(b *testing.B) {
	_, prog := healBenchSetup()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, _ := heal.Restart(dsim.Config{Seed: 3, MaxSteps: 50_000}, prog)
		s.Run()
	}
}

func BenchmarkE5HealResume(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		s, prog := healBenchSetup()
		line := heal.LatestLine(s, s.Procs())
		b.StartTimer()
		rep, err := heal.Apply(s, line, prog, nil, heal.VerifyOptions{})
		if err != nil || !rep.Verified() {
			b.Fatalf("heal failed: %v / %+v", err, rep)
		}
		s.Resume()
	}
}

// --- E6: recovery lines (Figure 6) ---

func recoveryBenchRun(cic bool) *dsim.Sim {
	cfg := dsim.Config{Seed: 5, MaxSteps: 100_000}
	if cic {
		cfg.CICheckpoint = true
	} else {
		cfg.CheckpointEvery = 7
	}
	ms := apps.NewTokenRing(apps.TokenRingConfig{N: 8, Rounds: 10})
	s := dsim.New(cfg)
	for id, m := range ms {
		s.AddProcess(id, m)
	}
	s.Run()
	return s
}

func BenchmarkE6RecoveryLineCIC(b *testing.B) {
	s := recoveryBenchRun(true)
	counts, msgs := baselines.ExtractDependencies(s)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		start := counts.Clone()
		start[apps.RingProcName(0)]--
		recovery.RecoveryLine(start, msgs)
	}
}

func BenchmarkE6RecoveryLineNaive(b *testing.B) {
	s := recoveryBenchRun(false)
	counts, msgs := baselines.ExtractDependencies(s)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		start := counts.Clone()
		start[apps.RingProcName(0)]--
		recovery.RecoveryLine(start, msgs)
	}
}

// --- E7: the ModelD engine (Figure 7) ---

func BenchmarkE7ModelDExplore(b *testing.B) {
	for _, n := range []int{2, 3, 4, 5} {
		b.Run(fmt.Sprintf("procs=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				root, engine := experiments.MutexModelForBench(n)
				res := engine.Explore(root, modeld.Options{Strategy: modeld.BFS, MaxStates: 2_000_000})
				if res.Truncated || len(res.Violations) != 0 {
					b.Fatalf("unexpected result: %+v", res)
				}
			}
		})
	}
}

// --- E9/E10: the chaos run loop (hot path) ---

// BenchmarkE9RunPooled measures the pooled hot path — per-worker arena
// reuse plus streaming fingerprints — on a representative matrix cell: the
// kvstore under a seeded reorder scenario.
func BenchmarkE9RunPooled(b *testing.B) {
	r, err := chaos.RunnerFor("kvstore", false, 3, true)
	if err != nil {
		b.Fatal(err)
	}
	sched := chaos.Schedule{chaos.Generate(fault.Reorder, r.Procs(), r.Crashable(), r.Spec.Horizon, 3)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Run(sched)
	}
}

// BenchmarkE9RunEarlyExit measures the buggy tokenring with early-exit
// invariant monitoring — the run that used to saturate the step bound.
func BenchmarkE9RunEarlyExit(b *testing.B) {
	r, err := chaos.RunnerFor("tokenring", true, 1, true)
	if err != nil {
		b.Fatal(err)
	}
	r.CheckEvery = 256
	sched := chaos.Schedule{chaos.Generate(fault.Crash, r.Procs(), r.Crashable(), r.Spec.Horizon, 1)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if res := r.Run(sched); !res.Stats.EarlyExit {
			b.Fatal("run did not early-exit")
		}
	}
}

// fingerprintBenchSim records a merged multi-process execution once.
func fingerprintBenchSim() *dsim.Sim {
	s := dsim.New(dsim.Config{Seed: 7, MaxSteps: 50_000})
	for id, m := range apps.NewTokenRing(apps.TokenRingConfig{N: 6, Rounds: 10}) {
		s.AddProcess(id, m)
	}
	s.Run()
	return s
}

// BenchmarkE10FingerprintStreaming measures the one-pass digest+shape over
// per-process scrolls (the coverage signal of guided search).
func BenchmarkE10FingerprintStreaming(b *testing.B) {
	s := fingerprintBenchSim()
	scrolls := s.Scrolls()
	var fp scroll.Fingerprinter
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fp.Fingerprint(scrolls, chaos.ShapeBucket)
	}
}

// BenchmarkE10FingerprintBatch measures the pre-change pipeline: material-
// ize the merge, then digest and shape it in separate passes.
func BenchmarkE10FingerprintBatch(b *testing.B) {
	s := fingerprintBenchSim()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		merged := s.MergedScroll()
		scroll.Digest(merged)
		scroll.Shape(merged, chaos.ShapeBucket)
	}
}

// --- E8: the capability matrix (Figure 8) ---

func BenchmarkE8CapabilityMatrix(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, row := range experiments.PaperMatrix() {
			for _, demo := range row.Demos {
				if err := demo(); err != nil {
					b.Fatalf("%s demo failed: %v", row.Name, err)
				}
			}
		}
	}
}
