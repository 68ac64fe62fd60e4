package repro

// One benchmark per paper figure (see README.md for the index). The tables
// cmd/fixd-bench prints are deterministic goldens and read no clock; these
// testing.B benchmarks time the core operation behind each experiment so
// regressions are visible in standard Go tooling.

import (
	"runtime"
	"testing"

	"repro/internal/apps"
	"repro/internal/baselines"
	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/dsim"
	"repro/internal/experiments"
	"repro/internal/fault"
	"repro/internal/heal"
	"repro/internal/recovery"
	"repro/internal/scroll"
)

// --- E1: the Scroll (Figure 1) ---

// scrollRecordCases are the record streams the scroll append benchmarks
// record: one peer throughout, and the simulator's mix — receives and sends
// with peers cycling over 8 names, and random and time records, which name
// no peer, between them — so that looking the peer up is measured too.
var scrollRecordCases = []struct {
	name string
	rec  func(i int, payload []byte) scroll.Record
}{
	{"one_peer", func(i int, payload []byte) scroll.Record {
		return scroll.Record{Kind: scroll.KindRecv, MsgID: "m", Peer: "p", Payload: payload, Lamport: uint64(i)}
	}},
	{"sim_mix", func(i int, payload []byte) scroll.Record {
		switch i % 4 {
		case 0:
			return scroll.Record{Kind: scroll.KindRecv, MsgID: "m", Peer: mixPeers[i/4%8], Payload: payload, Lamport: uint64(i)}
		case 1:
			return scroll.Record{Kind: scroll.KindRandom, Payload: payload[:8], Lamport: uint64(i)}
		case 2:
			return scroll.Record{Kind: scroll.KindSend, MsgID: "m", Peer: mixPeers[(i/4+3)%8], Payload: payload, Lamport: uint64(i)}
		}
		return scroll.Record{Kind: scroll.KindTime, Payload: payload[:8], Lamport: uint64(i)}
	}},
}

var mixPeers = [8]string{"n0", "n1", "n2", "n3", "n4", "n5", "n6", "n7"}

// reportBytesPerRecord reports what was allocated since before per record
// appended.
func reportBytesPerRecord(b *testing.B, before *runtime.MemStats, records int) {
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/float64(records), "B/record")
}

func BenchmarkE1ScrollRecord(b *testing.B) {
	for _, c := range scrollRecordCases {
		b.Run(c.name, func(b *testing.B) {
			s := scroll.NewMemory("bench")
			payload := make([]byte, 64)
			var before runtime.MemStats
			runtime.ReadMemStats(&before)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Append(c.rec(i, payload))
			}
			reportBytesPerRecord(b, &before, b.N)
		})
	}
}

// BenchmarkScrollAppendLong records one long execution's worth of history
// per iteration: B/record is what a 200k-record scroll costs to build per
// record, which is its stored entry (56 B) when history is appended and
// about three times that when a growing array recopies it.
func BenchmarkScrollAppendLong(b *testing.B) {
	const records = 200_000
	for _, c := range scrollRecordCases {
		b.Run(c.name, func(b *testing.B) {
			payload := make([]byte, 64)
			var before runtime.MemStats
			runtime.ReadMemStats(&before)
			b.ReportAllocs()
			n := 0
			for b.Loop() {
				s := scroll.NewMemory("bench")
				for i := range records {
					s.Append(c.rec(i, payload))
				}
				n += records
			}
			reportBytesPerRecord(b, &before, n)
		})
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

// --- E2: the Time Machine (Figure 2) --- BenchmarkE2CheckpointFull/COW
// and BenchmarkE2Rollback live beside the heap they measure, in
// internal/checkpoint.

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
		coord := core.NewCoordinator(s, factories, []fault.GlobalInvariant{apps.TwoPCAtomicity()}, core.Config{
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
		line := heal.VerifiedLine(s, nil)
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
	counts, msgs := baselines.ExtractDependencies(s, nil)
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
	counts, msgs := baselines.ExtractDependencies(s, nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		start := counts.Clone()
		start[apps.RingProcName(0)]--
		recovery.RecoveryLine(start, msgs)
	}
}

// --- E7: the ModelD engine (Figure 7) --- BenchmarkE7ModelDExplore lives
// beside the model it explores, in internal/experiments; it times what E7's
// states columns count.

// --- E9 and guided search: the chaos run loop (hot path) ---

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

// fingerprintCases are the executions the E10 benchmarks fingerprint: a
// short tokenring run, and a long 8-process one whose scrolls each span
// several segments.
var fingerprintCases = []struct {
	name          string
	procs, rounds int
}{
	{"ring6", 6, 10},
	{"ring8_segments", 8, 400},
}

// fingerprintBenchSim records a tokenring execution once and returns it
// with its record count.
func fingerprintBenchSim(procs, rounds int) (*dsim.Sim, int) {
	s := dsim.New(dsim.Config{Seed: 7, MaxSteps: 5_000_000})
	for id, m := range apps.NewTokenRing(apps.TokenRingConfig{N: procs, Rounds: rounds}) {
		s.AddProcess(id, m)
	}
	s.Run()
	records := 0
	for _, sc := range s.Scrolls() {
		records += sc.Len()
	}
	return s, records
}

// BenchmarkE10FingerprintStreaming measures the one-pass digest+shape over
// per-process scrolls (the coverage signal of guided search).
func BenchmarkE10FingerprintStreaming(b *testing.B) {
	for _, c := range fingerprintCases {
		b.Run(c.name, func(b *testing.B) {
			s, records := fingerprintBenchSim(c.procs, c.rounds)
			scrolls := s.Scrolls()
			var fp scroll.Fingerprinter
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				fp.Fingerprint(scrolls, chaos.ShapeBucket)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*records), "ns/record")
		})
	}
}

// BenchmarkE10Equal measures the matrix's determinism check on the same
// executions: two recordings of one run compared record for record
// (scroll.Equal), which is what a cell's second run costs instead of a
// fingerprint. ns/record counts the records of one recording.
func BenchmarkE10Equal(b *testing.B) {
	for _, c := range fingerprintCases {
		b.Run(c.name, func(b *testing.B) {
			s, records := fingerprintBenchSim(c.procs, c.rounds)
			again, _ := fingerprintBenchSim(c.procs, c.rounds)
			x, y := s.Scrolls(), again.Scrolls()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if !scroll.Equal(x, y) {
					b.Fatal("two recordings of one run differ")
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*records), "ns/record")
		})
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
