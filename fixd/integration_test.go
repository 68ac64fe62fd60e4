package fixd_test

// Cross-module flows end to end: every workload application through the
// full FixD pipeline, crash detection feeding investigation, speculative
// execution on live workloads, and the ablations A2/A5.

import (
	"encoding/json"
	"strings"
	"testing"

	"repro/fixd"
	"repro/internal/apps"
	"repro/internal/baselines"
	"repro/internal/core"
	"repro/internal/dsim"
	"repro/internal/fault"
	"repro/internal/heal"
	"repro/internal/investigate"
	"repro/internal/scroll"
	"repro/internal/substrate"
	"repro/internal/vclock"
)

// TestPipelineTokenRing: duplicate-token race detected locally, rolled
// back, investigated, and healed by the alternate path (ablation A2).
func TestPipelineTokenRing(t *testing.T) {
	cfg := apps.TokenRingConfig{N: 4, Rounds: 50, Buggy: true, RegenTimeout: 8}
	sys := fixd.New(fixd.Config{
		Seed: 3, MinLatency: 5, MaxLatency: 20, MaxSteps: 20_000,
		CICheckpoint: true, InitCheckpoint: true,
	})
	for id := range apps.NewTokenRing(cfg) {
		id := id
		sys.Add(id, func() fixd.Machine { return apps.NewTokenRing(cfg)[id] })
	}
	sys.AddInvariant(apps.TokenRingInvariant())
	sys.Protect(fixd.ProtectOptions{
		TreatLocalFaultAsViolation: true,
		StopAtFirstViolation:       true,
		MaxStates:                  10_000,
		MaxDepth:                   24,
	})
	sys.Run()
	resp := sys.Response()
	if resp == nil {
		t.Fatal("duplicate token never detected")
	}
	if !strings.Contains(resp.Fault.Desc, "token") {
		t.Errorf("fault = %q", resp.Fault.Desc)
	}
	if len(resp.Line) != 4 {
		t.Errorf("line covers %d procs, want 4", len(resp.Line))
	}
	// Ablation A2: the investigation ran on copies; now actually roll the
	// live system back to the line. OnRollback flips each node to the
	// alternate, non-regenerating path — the buggy action must never fire
	// again (residual duplicate tokens from before the line may still
	// collide; cleaning those up is application logic, not FixD's).
	if err := sys.Substrate().RollbackTo(resp.Line); err != nil {
		t.Fatal(err)
	}
	totalRegens := func() int {
		n := 0
		for _, id := range sys.Substrate().Procs() {
			var st struct {
				Regens int
				Fixed  bool
			}
			if err := json.Unmarshal(sys.Substrate().MachineState(id), &st); err != nil {
				t.Fatal(err)
			}
			if !st.Fixed {
				t.Errorf("%s did not take the alternate path", id)
			}
			n += st.Regens
		}
		return n
	}
	atLine := totalRegens()
	sys.Resume()
	if after := totalRegens(); after != atLine {
		t.Errorf("regenerations grew %d -> %d after the alternate path", atLine, after)
	}
}

// TestPipelineElection: buggy re-election yields two leaders; the global
// invariant catches it and the investigation reproduces it.
func TestPipelineElection(t *testing.T) {
	cfg := apps.ElectionConfig{N: 4, Buggy: true, ReElectTimeout: 6}
	s := dsim.New(dsim.Config{Seed: 2, MinLatency: 1, MaxLatency: 3, MaxSteps: 10_000})
	for id, m := range apps.NewElection(cfg) {
		s.AddProcess(id, m)
	}
	s.Run()
	if v := fault.NewMonitor(apps.ElectionSafety()).Check(s); len(v) == 0 {
		t.Skip("two leaders did not form on this seed")
	}
	// Investigate from initial state with the election safety invariant.
	factories := map[string]func() dsim.Machine{}
	for id := range apps.NewElection(cfg) {
		id := id
		factories[id] = func() dsim.Machine { return apps.NewElection(cfg)[id] }
	}
	// The violating interleaving is shallow (two re-elect fires before any
	// announcement lands), so modest bounds find it by the hundreds; the
	// retry/re-announce machinery makes exhaustive 50k-state exploration
	// needlessly slow here.
	rep, err := baselines.CMCCheck(factories, []fault.GlobalInvariant{apps.ElectionSafety()}, 2_000, 12)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Violations == 0 {
		t.Error("investigation missed the duplicate-leader interleaving")
	}
}

// watcher reports a fault once its peer has been silent for more than
// timeout ticks: a heartbeat crash detector, checking every 10 ticks.
type watcher struct {
	st struct {
		Last     uint64
		Reported bool
	}
	peer    string
	timeout uint64
}

func (w *watcher) State() any                                     { return &w.st }
func (w *watcher) Init(ctx dsim.Context)                          { ctx.SetTimer("check", 10) }
func (w *watcher) OnMessage(ctx dsim.Context, _ string, _ []byte) { w.st.Last = ctx.Now() }
func (w *watcher) OnRollback(dsim.Context, dsim.RollbackInfo)     {}
func (w *watcher) OnTimer(ctx dsim.Context, _ string) {
	if !w.st.Reported && ctx.Now()-w.st.Last > w.timeout {
		w.st.Reported = true
		ctx.Fault("heartbeat: peer " + w.peer + " silent")
	}
	ctx.SetTimer("check", 10)
}

// beater heartbeats "mon" every 10 ticks.
type beater struct{ st struct{ Sent int } }

func (b *beater) State() any                                 { return &b.st }
func (b *beater) Init(ctx dsim.Context)                      { b.OnTimer(ctx, "hb") }
func (b *beater) OnMessage(dsim.Context, string, []byte)     {}
func (b *beater) OnRollback(dsim.Context, dsim.RollbackInfo) {}
func (b *beater) OnTimer(ctx dsim.Context, _ string) {
	ctx.Send("mon", []byte("hb"))
	b.st.Sent++
	ctx.SetTimer("hb", 10)
}

// TestCrashDetectionFeedsPipeline: heartbeat monitor detects a crash, the
// coordinator runs the Fig. 4 protocol on that fault.
func TestCrashDetectionFeedsPipeline(t *testing.T) {
	s := dsim.New(dsim.Config{Seed: 1, MinLatency: 1, MaxLatency: 1, MaxSteps: 500, CICheckpoint: true})
	factories := map[string]func() dsim.Machine{
		"mon":    func() dsim.Machine { return &watcher{peer: "worker", timeout: 25} },
		"worker": func() dsim.Machine { return &beater{} },
	}
	s.AddProcess("mon", factories["mon"]())
	s.AddProcess("worker", factories["worker"]())
	s.Inject(fault.Injection{Kind: fault.Crash, Proc: "worker", At: 30})
	coord := core.NewCoordinator(s, factories, nil, core.Config{
		MaxStates: 2_000, MaxDepth: 12,
	})
	resp := coord.RunProtected()
	if resp == nil {
		t.Fatal("crash not detected")
	}
	if resp.Fault.Proc != "mon" || !strings.Contains(resp.Fault.Desc, "heartbeat") {
		t.Errorf("fault = %+v", resp.Fault)
	}
	if resp.Investigation == nil {
		t.Fatal("no investigation")
	}
}

// TestSpeculativeKVWrites: a client speculates on write acceptance; an
// abort rolls the client, the primary and the replicas back together, and
// the writes the client then re-issues are each applied once.
func TestSpeculativeKVWrites(t *testing.T) {
	s := dsim.New(dsim.Config{Seed: 4, MinLatency: 1, MaxLatency: 2, MaxSteps: 10_000})
	cfg := apps.KVConfig{Replicas: 2, Writes: 5}
	var client *speculativeClient
	for id, m := range apps.NewKVStore(cfg) {
		if id == apps.KVClientName {
			client = &speculativeClient{Machine: m}
			m = client
		}
		s.AddProcess(id, m)
	}
	s.Run()
	if client.err != nil {
		t.Fatal(client.err)
	}
	if st := s.SpeculationStats(); st.Aborts != 1 || st.Absorptions != 3 || st.Rollbacks != 4 {
		t.Errorf("spec stats = %+v, want the client, the primary and both replicas rolled back", st)
	}
	raw := map[string]json.RawMessage{}
	for _, id := range s.Procs() {
		raw[id] = s.MachineState(id)
	}
	var primary struct{ Applied int }
	json.Unmarshal(raw[apps.KVPrimaryName], &primary)
	if primary.Applied != cfg.Writes {
		t.Errorf("primary applied %d writes, want %d: a write the abort undid was lost or applied twice", primary.Applied, cfg.Writes)
	}
	if !apps.KVConvergence().Holds(fault.StatesFromRaw(raw)) {
		t.Error("replicas diverge from the primary after the abort")
	}
}

// speculativeClient issues the KV client's writes from time 4 on assuming
// they will be accepted, and aborts 20 ticks later. It keeps the first error
// Speculate or AbortSpec returns.
type speculativeClient struct {
	dsim.Machine
	spec string
	err  error
}

func (c *speculativeClient) Init(ctx dsim.Context) {
	c.Machine.Init(ctx)
	ctx.SetTimer("speculate", 4)
}

func (c *speculativeClient) OnTimer(ctx dsim.Context, name string) {
	var err error
	switch name {
	case "speculate":
		c.spec, err = ctx.Speculate("replicas will ack")
		ctx.SetTimer("verify", 20)
	case "verify":
		err = ctx.AbortSpec(c.spec, "replica rejected")
	default:
		c.Machine.OnTimer(ctx, name)
	}
	if c.err == nil {
		c.err = err
	}
}

// TestAblationEnvModel (A5): with the black-box environment *modeled*
// (loss + crash actions) the explored space strictly contains the
// fully-logged space, and safe protocols stay safe under it.
func TestAblationEnvModel(t *testing.T) {
	cfg := apps.TwoPCConfig{Participants: 2}
	models := func() []investigate.ProcModel {
		var out []investigate.ProcModel
		for id := range apps.NewTwoPC(cfg) {
			id := id
			out = append(out, investigate.ProcModel{
				Proc: id,
				New:  func() dsim.Machine { return apps.NewTwoPC(cfg)[id] },
			})
		}
		return out
	}
	plain, err := investigate.Run(models(), nil, nil, investigate.Config{
		Invariants: []fault.GlobalInvariant{apps.TwoPCAtomicity()},
		MaxStates:  50_000, MaxDepth: 24,
	})
	if err != nil {
		t.Fatal(err)
	}
	rich, err := investigate.Run(models(), nil, nil, investigate.Config{
		Invariants: []fault.GlobalInvariant{apps.TwoPCAtomicity()},
		ModelLoss:  true, ModelCrash: true,
		MaxStates: 50_000, MaxDepth: 24,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rich.StatesExplored <= plain.StatesExplored {
		t.Errorf("environment models should enlarge the space: %d vs %d",
			rich.StatesExplored, plain.StatesExplored)
	}
	if rich.Violating() {
		t.Error("correct 2PC must stay atomic under loss+crash models")
	}
}

// TestHealAcrossApps: every buggy app has a fixed program that passes the
// Healer's verification at some line.
func TestHealAcrossApps(t *testing.T) {
	t.Run("bank", func(t *testing.T) {
		bug := apps.BankConfig{Branches: 2, AccountsPer: 2, InitialBalance: 500, Transfers: 10, LoseCredits: 3}
		fix := bug
		fix.LoseCredits = 0
		s := dsim.New(dsim.Config{Seed: 9, MaxSteps: 50_000, InitCheckpoint: true, CheckpointEvery: 3})
		for id, m := range apps.NewBank(bug) {
			s.AddProcess(id, m)
		}
		s.Run()
		factories := map[string]func() dsim.Machine{}
		for id := range apps.NewBank(fix) {
			id := id
			factories[id] = func() dsim.Machine { return apps.NewBank(fix)[id] }
		}
		line := heal.VerifiedLine(s, []fault.GlobalInvariant{apps.BankConservation(bug)})
		if line == nil {
			t.Fatal("no verified line")
		}
		rep, err := heal.Apply(s, line, heal.Program{Version: "v2", Factories: factories}, nil,
			heal.VerifyOptions{Invariants: []fault.GlobalInvariant{apps.BankConservation(bug)}})
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Verified() {
			t.Fatalf("refused: %v", rep.Failures)
		}
		s.Resume()
		if v := fault.NewMonitor(apps.BankConservation(bug)).Check(s); len(v) != 0 {
			t.Errorf("conservation violated after heal: %v", v)
		}
	})
	t.Run("tokenring", func(t *testing.T) {
		bug := apps.TokenRingConfig{N: 3, Rounds: 30, Buggy: true, RegenTimeout: 8}
		fix := apps.TokenRingConfig{N: 3, Rounds: 30}
		s := dsim.New(dsim.Config{Seed: 3, MinLatency: 5, MaxLatency: 20, MaxSteps: 20_000, InitCheckpoint: true, CICheckpoint: true})
		for id, m := range apps.NewTokenRing(bug) {
			s.AddProcess(id, m)
		}
		s.SetFaultHandler(func(dsim.FaultRecord) bool { return true })
		s.Run()
		factories := map[string]func() dsim.Machine{}
		for id := range apps.NewTokenRing(fix) {
			id := id
			factories[id] = func() dsim.Machine { return apps.NewTokenRing(fix)[id] }
		}
		line := heal.VerifiedLine(s, []fault.GlobalInvariant{apps.TokenRingInvariant()})
		if line == nil {
			t.Fatal("no verified line")
		}
		rep, err := heal.Apply(s, line, heal.Program{Version: "v2", Factories: factories}, nil,
			heal.VerifyOptions{Invariants: []fault.GlobalInvariant{apps.TokenRingInvariant()}})
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Verified() {
			t.Fatalf("refused: %v", rep.Failures)
		}
	})
}

// TestDeterministicPipeline: the entire pipeline (run + detect + respond)
// is reproducible for a fixed seed.
func TestDeterministicPipeline(t *testing.T) {
	run := func() (string, int) {
		cfg := apps.TwoPCConfig{Participants: 2, NoVoters: []int{1}, SlowVoters: []int{1}, Timeout: 10, VoteDelay: 100, Buggy: true}
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
			MaxStates: 20_000, MaxDepth: 32,
		})
		resp := coord.RunProtected()
		if resp == nil {
			t.Fatal("no response")
		}
		return resp.Fault.Desc, resp.Investigation.StatesExplored
	}
	d1, s1 := run()
	d2, s2 := run()
	if d1 != d2 || s1 != s2 {
		t.Errorf("pipeline nondeterministic: (%q,%d) vs (%q,%d)", d1, s1, d2, s2)
	}
}

// TestLiveAndSimulatedScrollCompatible: a completed run's merged scroll is
// consistent on either backend through the same record-level check — every
// receive names a send recorded causally before it.
func TestLiveAndSimulatedScrollCompatible(t *testing.T) {
	factories := func() map[string]dsim.Machine {
		return apps.NewTwoPC(apps.TwoPCConfig{Participants: 1})
	}
	live, err := substrate.NewLive(substrate.LiveConfig{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, sub := range []substrate.Substrate{substrate.NewSim(dsim.Config{Seed: 1, MaxSteps: 1000}), live} {
		name := sub.Capabilities().Name
		for id, m := range factories() {
			sub.AddProcess(id, m)
		}
		sub.Run()
		recs := sub.MergedScroll()
		sub.Close()
		if len(recs) == 0 {
			t.Fatalf("%s: no records", name)
		}
		sends, receives := make(map[string]scroll.Record), 0
		for _, r := range recs {
			if r.Kind == scroll.KindSend {
				sends[r.MsgID] = r
			}
		}
		for _, r := range recs {
			if r.Kind != scroll.KindRecv {
				continue
			}
			receives++
			if sent, ok := sends[r.MsgID]; !ok || sent.Clock.Compare(r.Clock) != vclock.Before {
				t.Errorf("%s: receive of %s by %s has no send recorded before it", name, r.MsgID, r.Proc)
			}
		}
		if receives == 0 {
			t.Errorf("%s: nothing was received", name)
		}
	}
}
