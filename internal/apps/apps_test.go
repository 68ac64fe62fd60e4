package apps

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"repro/internal/dsim"
	"repro/internal/fault"
)

// runApp wires machines into a fresh simulation and runs it.
func runApp(t *testing.T, cfg dsim.Config, ms map[string]dsim.Machine) *dsim.Sim {
	t.Helper()
	s := dsim.New(cfg)
	for id, m := range ms {
		s.AddProcess(id, m)
	}
	s.Run()
	return s
}

func TestTokenRingCorrectIsSafe(t *testing.T) {
	ms := NewTokenRing(TokenRingConfig{N: 4, Rounds: 3})
	s := runApp(t, dsim.Config{Seed: 1, MaxSteps: 10_000}, ms)
	if len(s.Faults()) != 0 {
		t.Errorf("faults on correct ring: %v", s.Faults())
	}
	if v := fault.NewMonitor(TokenRingInvariant()).Check(s); len(v) != 0 {
		t.Errorf("invariant violated at quiescence: %v", v)
	}
	// Every node passed the token at least Rounds-1 times.
	total := 0
	for i := 0; i < 4; i++ {
		st := ms[RingProcName(i)].(*TokenRing).st
		total += st.Passes
	}
	if total < 9 {
		t.Errorf("total passes = %d, want >= 9", total)
	}
}

func TestTokenRingBuggyDuplicatesToken(t *testing.T) {
	// Long max latency + short regen timeout forces regeneration while the
	// real token is in flight.
	ms := NewTokenRing(TokenRingConfig{N: 4, Rounds: 50, Buggy: true, RegenTimeout: 8})
	s := dsim.New(dsim.Config{Seed: 3, MinLatency: 5, MaxLatency: 20, MaxSteps: 20_000})
	for id, m := range ms {
		s.AddProcess(id, m)
	}
	faultSeen := false
	s.SetFaultHandler(func(f dsim.FaultRecord) bool {
		if strings.Contains(f.Desc, "token") {
			faultSeen = true
			return true
		}
		return false
	})
	s.Run()
	regens := 0
	for i := 0; i < 4; i++ {
		regens += ms[RingProcName(i)].(*TokenRing).st.Regens
	}
	if regens == 0 {
		t.Fatal("buggy ring never regenerated a token; tune timeouts")
	}
	if !faultSeen {
		t.Error("duplicate token was never locally detected")
	}
}

func TestTwoPCCorrectUnanimousCommit(t *testing.T) {
	ms := NewTwoPC(TwoPCConfig{Participants: 3})
	s := runApp(t, dsim.Config{Seed: 1, MaxSteps: 1000}, ms)
	coord := ms[CoordName].(*Coordinator)
	if coord.st.Decision != "commit" {
		t.Errorf("decision = %q, want commit", coord.st.Decision)
	}
	if v := fault.NewMonitor(TwoPCAtomicity()).Check(s); len(v) != 0 {
		t.Errorf("atomicity violated: %v", v)
	}
}

func TestTwoPCCorrectAbortOnNo(t *testing.T) {
	ms := NewTwoPC(TwoPCConfig{Participants: 3, NoVoters: []int{1}})
	s := runApp(t, dsim.Config{Seed: 1, MaxSteps: 1000}, ms)
	coord := ms[CoordName].(*Coordinator)
	if coord.st.Decision != "abort" {
		t.Errorf("decision = %q, want abort", coord.st.Decision)
	}
	if v := fault.NewMonitor(TwoPCAtomicity()).Check(s); len(v) != 0 {
		t.Errorf("atomicity violated: %v", v)
	}
}

func TestTwoPCCorrectTimeoutAborts(t *testing.T) {
	// Slow no-voter: the correct coordinator aborts on timeout.
	ms := NewTwoPC(TwoPCConfig{Participants: 3, NoVoters: []int{2}, SlowVoters: []int{2}, Timeout: 10, VoteDelay: 100})
	s := runApp(t, dsim.Config{Seed: 1, MinLatency: 1, MaxLatency: 2, MaxSteps: 1000}, ms)
	coord := ms[CoordName].(*Coordinator)
	if !coord.st.TimedOut || coord.st.Decision != "abort" {
		t.Errorf("coord = %+v, want timed-out abort", coord.st)
	}
	if v := fault.NewMonitor(TwoPCAtomicity()).Check(s); len(v) != 0 {
		t.Errorf("atomicity violated: %v", v)
	}
}

func TestTwoPCBuggyTimeoutCommitViolatesAtomicity(t *testing.T) {
	ms := NewTwoPC(TwoPCConfig{Participants: 3, NoVoters: []int{2}, SlowVoters: []int{2}, Timeout: 10, VoteDelay: 100, Buggy: true})
	s := dsim.New(dsim.Config{Seed: 1, MinLatency: 1, MaxLatency: 2, MaxSteps: 1000})
	for id, m := range ms {
		s.AddProcess(id, m)
	}
	localDetect := false
	s.SetFaultHandler(func(f dsim.FaultRecord) bool {
		if strings.Contains(f.Desc, "2pc") {
			localDetect = true
		}
		return false
	})
	s.Run()
	coord := ms[CoordName].(*Coordinator)
	if coord.st.Decision != "commit" {
		t.Fatalf("buggy coordinator decided %q, want commit-on-timeout", coord.st.Decision)
	}
	if v := fault.NewMonitor(TwoPCAtomicity()).Check(s); len(v) == 0 {
		t.Error("atomicity violation not observed")
	}
	if !localDetect {
		t.Error("participant never locally detected the contradiction")
	}
}

func TestKVStoreCorrectConverges(t *testing.T) {
	ms := NewKVStore(KVConfig{Replicas: 2, Writes: 20})
	s := runApp(t, dsim.Config{Seed: 5, MinLatency: 1, MaxLatency: 15, MaxSteps: 10_000}, ms)
	if v := fault.NewMonitor(KVConvergence()).Check(s); len(v) != 0 {
		t.Errorf("correct store diverged: %v", v)
	}
	prim := ms[KVPrimaryName].(*KVNode)
	if prim.st.Applied != 20 {
		t.Errorf("primary applied %d, want 20", prim.st.Applied)
	}
}

func TestKVStoreBuggyDiverges(t *testing.T) {
	// High latency jitter reorders replication messages; the buggy replica
	// applies them blindly.
	var diverged bool
	for seed := int64(0); seed < 20 && !diverged; seed++ {
		ms := NewKVStore(KVConfig{Replicas: 2, Writes: 30, Keys: 2, Buggy: true})
		s := runApp(t, dsim.Config{Seed: seed, MinLatency: 1, MaxLatency: 30, MaxSteps: 20_000}, ms)
		if v := fault.NewMonitor(KVConvergence()).Check(s); len(v) > 0 {
			diverged = true
		}
	}
	if !diverged {
		t.Error("buggy store never diverged across 20 seeds; bug not exercised")
	}
}

func TestElectionCorrectSingleLeader(t *testing.T) {
	ms := NewElection(ElectionConfig{N: 5})
	s := runApp(t, dsim.Config{Seed: 1, MaxSteps: 10_000}, ms)
	if v := fault.NewMonitor(ElectionSafety()).Check(s); len(v) != 0 {
		t.Errorf("correct election unsafe: %v", v)
	}
	leaders := 0
	for i := 0; i < 5; i++ {
		if ms[ElectProcName(i)].(*Election).st.IsLeader {
			leaders++
		}
	}
	if leaders != 1 {
		t.Errorf("leaders = %d, want 1", leaders)
	}
}

func TestElectionBuggyTwoLeaders(t *testing.T) {
	// A re-elect timeout shorter than announcement propagation makes
	// silent nodes self-elect before the real winner's announcement lands,
	// and buggy leaders never step down.
	ms := NewElection(ElectionConfig{N: 5, Buggy: true, ReElectTimeout: 6})
	s := runApp(t, dsim.Config{Seed: 2, MinLatency: 1, MaxLatency: 3, MaxSteps: 10_000}, ms)
	if v := fault.NewMonitor(ElectionSafety()).Check(s); len(v) == 0 {
		leaders := 0
		for i := 0; i < 5; i++ {
			if ms[ElectProcName(i)].(*Election).st.IsLeader {
				leaders++
			}
		}
		t.Errorf("expected duplicate leaders, got %d", leaders)
	}
}

func TestBankCorrectConservesMoney(t *testing.T) {
	cfg := BankConfig{Branches: 3, AccountsPer: 8, InitialBalance: 1000, Transfers: 20}
	ms := NewBank(cfg)
	s := runApp(t, dsim.Config{Seed: 7, MaxSteps: 50_000}, ms)
	if v := fault.NewMonitor(BankConservation(cfg), BankNoOverdraft()).Check(s); len(v) != 0 {
		t.Errorf("correct bank violated: %v", v)
	}
	if len(s.Faults()) != 0 {
		t.Errorf("faults: %v", s.Faults())
	}
}

func TestBankBuggyOverdraft(t *testing.T) {
	cfg := BankConfig{Branches: 2, AccountsPer: 2, InitialBalance: 50, Transfers: 40, MaxAmount: 60, Buggy: true}
	ms := NewBank(cfg)
	s := dsim.New(dsim.Config{Seed: 11, MaxSteps: 50_000})
	for id, m := range ms {
		s.AddProcess(id, m)
	}
	detected := false
	s.SetFaultHandler(func(f dsim.FaultRecord) bool {
		if strings.Contains(f.Desc, "overdrawn") {
			detected = true
		}
		return false
	})
	s.Run()
	if !detected {
		t.Error("overdraft never locally detected")
	}
	if v := fault.NewMonitor(BankNoOverdraft()).Check(s); len(v) == 0 {
		t.Error("overdraft invariant should be violated")
	}
	// Conservation still holds: overdrafts move money, they don't destroy it.
	if v := fault.NewMonitor(BankConservation(cfg)).Check(s); len(v) != 0 {
		t.Errorf("conservation should hold under overdrafts: %v", v)
	}
}

func TestBankLostCreditsBreakConservation(t *testing.T) {
	cfg := BankConfig{Branches: 3, AccountsPer: 4, InitialBalance: 1000, Transfers: 30, LoseCredits: 3}
	ms := NewBank(cfg)
	s := runApp(t, dsim.Config{Seed: 13, MaxSteps: 50_000}, ms)
	if v := fault.NewMonitor(BankConservation(cfg)).Check(s); len(v) == 0 {
		t.Error("lost credits should violate conservation")
	}
	lost := int64(0)
	for i := 0; i < cfg.Branches; i++ {
		lost += ms[BankProcName(i)].(*Bank).st.LostCredits
	}
	if lost == 0 {
		t.Error("no credits were actually lost; bug not exercised")
	}
}

func TestBankDeterministicAcrossRuns(t *testing.T) {
	run := func() int64 {
		cfg := BankConfig{Branches: 3, AccountsPer: 4, InitialBalance: 500, Transfers: 15}
		ms := NewBank(cfg)
		runApp(t, dsim.Config{Seed: 99, MaxSteps: 50_000}, ms)
		var total int64
		for i := 0; i < 3; i++ {
			total += ms[BankProcName(i)].(*Bank).st.SentCredits
		}
		return total
	}
	if a, b := run(), run(); a != b {
		t.Errorf("nondeterministic bank: %d vs %d", a, b)
	}
}

// TestTwoPCCoordinatorCheckpointlessRestart: with no checkpoint on file a
// crash-restart re-Inits the same Coordinator instance, so Init must zero
// the stale pre-crash tallies — regression for double-counted re-collected
// votes reaching quorum (Yes:3 from two yes-voters) and committing against
// a binding abort.
func TestTwoPCCoordinatorCheckpointlessRestart(t *testing.T) {
	cfg := TwoPCConfig{Participants: 3, NoVoters: []int{1}, SlowVoters: []int{1},
		Timeout: 20, VoteDelay: 60}
	ms := NewTwoPC(cfg)
	// Jitter-free latency pins the interleaving: both fast yes-votes are
	// counted by t=2, the crash hits at t=4 with the slow no-vote still
	// pending, and the restart at t=8 finds no checkpoint.
	s := dsim.New(dsim.Config{Seed: 2, MinLatency: 1, MaxLatency: 1, MaxSteps: 50_000})
	ids := make([]string, 0, len(ms))
	for id := range ms {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		s.AddProcess(id, ms[id])
	}
	s.Inject(fault.Injection{Kind: fault.Crash, Proc: CoordName, At: 4})
	s.Inject(fault.Injection{Kind: fault.Restart, Proc: CoordName, At: 8})
	stats := s.Run()
	if stats.Crashes != 1 || stats.Restarts != 1 {
		t.Fatalf("crashes=%d restarts=%d, want 1/1", stats.Crashes, stats.Restarts)
	}
	coord := ms[CoordName].(*Coordinator)
	if total := coord.st.Yes + coord.st.No; total > cfg.Participants {
		t.Fatalf("coordinator counted %d votes from %d participants", total, cfg.Participants)
	}
	if v := fault.NewMonitor(TwoPCAtomicity()).Check(s); len(v) > 0 {
		t.Fatalf("atomicity violated after checkpoint-less coordinator restart: %v", v)
	}
	if coord.st.Decision != "abort" {
		t.Fatalf("coordinator decided %q with a binding no-vote outstanding, want abort", coord.st.Decision)
	}
}

// The interned process names are the bytes fmt.Sprintf gave, in and beyond
// the table, and naming a peer allocates nothing.
func TestProcNamesInterned(t *testing.T) {
	families := []struct {
		name   func(int) string
		format string
	}{
		{BankProcName, "bank%02d"}, {ElectProcName, "elect%02d"}, {KVReplicaName, "kvrep%02d"},
		{MSSvcName, "mssvc%d"}, {RingProcName, "ring%02d"}, {PartName, "part%02d"},
	}
	for _, f := range families {
		for _, i := range []int{0, 1, 9, 10, 99, 100, 101, 12345, -1} {
			if got, want := f.name(i), fmt.Sprintf(f.format, i); got != want {
				t.Errorf("%s: name(%d) = %q, want %q", f.format, i, got, want)
			}
		}
		if n := testing.AllocsPerRun(100, func() { _ = f.name(7) }); n != 0 {
			t.Errorf("%s: name(7) allocates %v times", f.format, n)
		}
	}
}
