package fixd_test

import (
	"encoding/json"
	"fmt"
	"testing"

	"repro/fixd"
	"repro/internal/substrate"
)

// The cross-substrate demo app: a source emits numbered packets on a timer
// cadence; a sink deduplicates and acknowledges. The safety property —
// every ack the source holds was seen by the sink — survives arbitrary
// loss, duplication and delay, so it must hold on both backends.

type sinkState struct {
	Seen map[string]bool
}

type sink struct{ st sinkState }

func (s *sink) State() any { return &s.st }
func (s *sink) Init(ctx fixd.Context) {
	s.st.Seen = map[string]bool{}
}
func (s *sink) OnMessage(ctx fixd.Context, from string, payload []byte) {
	s.st.Seen[string(payload)] = true
	ctx.Send(from, payload)
}
func (s *sink) OnTimer(fixd.Context, string)               {}
func (s *sink) OnRollback(fixd.Context, fixd.RollbackInfo) {}

type sourceState struct {
	Sent  int
	Acked map[string]bool
}

type source struct {
	st sourceState
	n  int
}

func (s *source) State() any { return &s.st }
func (s *source) Init(ctx fixd.Context) {
	s.st.Acked = map[string]bool{}
	ctx.SetTimer("emit", 2)
}
func (s *source) OnTimer(ctx fixd.Context, name string) {
	if name != "emit" || s.st.Sent >= s.n {
		return
	}
	ctx.Send("sink", []byte(fmt.Sprintf("pkt-%d", s.st.Sent)))
	s.st.Sent++
	if s.st.Sent < s.n {
		ctx.SetTimer("emit", 2)
	}
}
func (s *source) OnMessage(ctx fixd.Context, from string, payload []byte) {
	s.st.Acked[string(payload)] = true
}
func (s *source) OnRollback(fixd.Context, fixd.RollbackInfo) {}

func ackedSeen() fixd.GlobalInvariant {
	return fixd.GlobalInvariant{
		Name: "acked-was-seen",
		Holds: func(states *fixd.States) bool {
			sk, sr := &sinkState{}, &sourceState{}
			var err error
			if states.Has("sink") {
				if sk, err = fixd.State[sinkState](states, "sink"); err != nil {
					return false
				}
			}
			if states.Has("source") {
				if sr, err = fixd.State[sourceState](states, "source"); err != nil {
					return false
				}
			}
			for pkt := range sr.Acked {
				if !sk.Seen[pkt] {
					return false
				}
			}
			return true
		},
	}
}

// TestSameScheduleBothSubstrates is the substrate-seam acceptance test:
// one fixd.ChaosSchedule value — loss, duplication and delay at once — is
// injected through the public API on the simulated AND the live backend,
// visibly perturbs both runs, and the loss-robust invariant holds on both.
func TestSameScheduleBothSubstrates(t *testing.T) {
	sched := fixd.ChaosSchedule{
		{Kind: fixd.FaultDrop, Window: fixd.ChaosWindow{From: 0, To: 1 << 30},
			Intensity: fixd.ChaosIntensity{Prob: 0.4}},
		{Kind: fixd.FaultDuplicate, Window: fixd.ChaosWindow{From: 0, To: 1 << 30},
			Intensity: fixd.ChaosIntensity{Prob: 1.0}},
		{Kind: fixd.FaultDelay, Window: fixd.ChaosWindow{From: 0, To: 1 << 30},
			Intensity: fixd.ChaosIntensity{Extra: 2}},
	}

	newSys := map[string]func(t *testing.T) *fixd.System{
		"sim": func(t *testing.T) *fixd.System {
			return fixd.New(fixd.Config{Seed: 11, MinLatency: 1, MaxLatency: 3, MaxSteps: 50_000})
		},
		"live": func(t *testing.T) *fixd.System {
			sys, err := fixd.NewLive(fixd.LiveConfig{Seed: 11})
			if err != nil {
				t.Fatal(err)
			}
			return sys
		},
	}

	for _, backend := range []string{"sim", "live"} {
		t.Run(backend, func(t *testing.T) {
			sys := newSys[backend](t)
			defer sys.Close()
			sys.Add("sink", func() fixd.Machine { return &sink{} })
			sys.Add("source", func() fixd.Machine { return &source{n: 20} })
			sys.AddInvariant(ackedSeen())

			sys.InjectChaos(sched) // the identical value, both backends

			stats := sys.Run()
			if stats.Duplicated == 0 {
				t.Error("p=1.0 duplication left no trace")
			}
			if stats.Dropped == 0 {
				t.Error("p=0.4 loss left no trace")
			}
			if bad := sys.CheckInvariants(); len(bad) != 0 {
				t.Errorf("invariant violated under chaos: %v", bad)
			}
			if caps := sys.Substrate().Capabilities(); caps.Name != backend {
				t.Errorf("capabilities name = %q, want %q", caps.Name, backend)
			}
		})
	}
}

// durSink deduplicates like sink but keeps a durable packet count, the
// crash-safe-counter pattern stable storage exists for.
type durSink struct {
	st struct{ Count int }
}

func (s *durSink) State() any            { return &s.st }
func (s *durSink) Init(ctx fixd.Context) {}
func (s *durSink) OnMessage(ctx fixd.Context, from string, payload []byte) {
	s.st.Count++
	ctx.DurablePut("count", []byte{byte(s.st.Count)})
	ctx.Send(from, payload)
}
func (s *durSink) OnTimer(fixd.Context, string) {}
func (s *durSink) OnRollback(ctx fixd.Context, info fixd.RollbackInfo) {
	if !info.CrashRestart {
		return
	}
	if v, ok := ctx.DurableGet("count"); ok && len(v) == 1 {
		s.st.Count = int(v[0])
	}
}

// TestStableStorageBothSubstrates: the public Context.Durable… seam works
// on both backends — a crash-restart does not rewind the cells, and
// System.DurableSnapshot agrees with the recovered machine state.
func TestStableStorageBothSubstrates(t *testing.T) {
	for _, backend := range []string{"sim", "live"} {
		t.Run(backend, func(t *testing.T) {
			var sys *fixd.System
			if backend == "sim" {
				sys = fixd.New(fixd.Config{Seed: 11, MinLatency: 1, MaxLatency: 3,
					InitCheckpoint: true, CheckpointEvery: 4, MaxSteps: 50_000})
			} else {
				var err error
				sys, err = fixd.NewLive(fixd.LiveConfig{Seed: 11,
					InitCheckpoint: true, CheckpointEvery: 4})
				if err != nil {
					t.Fatal(err)
				}
			}
			defer sys.Close()
			sys.Add("sink", func() fixd.Machine { return &durSink{} })
			sys.Add("source", func() fixd.Machine { return &source{n: 20} })
			sys.InjectChaos(fixd.ChaosSchedule{{Kind: fixd.FaultCrash,
				Targets: []int{0}, Window: fixd.ChaosWindow{From: 8, To: 20}}})
			stats := sys.Run()
			if stats.Crashes != 1 || stats.Restarts != 1 {
				t.Fatalf("crashes=%d restarts=%d, want 1/1", stats.Crashes, stats.Restarts)
			}
			snap := sys.DurableSnapshot()
			cell := snap["sink"]["count"]
			if len(cell) != 1 || cell[0] == 0 {
				t.Fatalf("durable snapshot missing sink count: %v", snap)
			}
			var st struct{ Count int }
			if err := json.Unmarshal(sys.Substrate().MachineState("sink"), &st); err != nil {
				t.Fatal(err)
			}
			if int(cell[0]) != st.Count {
				t.Fatalf("durable count %d != recovered state count %d", cell[0], st.Count)
			}
		})
	}
}

// TestSimAccessorCompat pins the escape hatch that replaced System.Sim:
// a sim-backed system's Substrate is the SimSubstrate carrying the
// simulator, a live-backed system's is not.
func TestSimAccessorCompat(t *testing.T) {
	sim := fixd.New(fixd.Config{Seed: 1})
	if ss, ok := sim.Substrate().(*substrate.SimSubstrate); !ok || ss.Sim == nil {
		t.Errorf("sim-backed Substrate() = %T, want a SimSubstrate with its simulator", sim.Substrate())
	}
	live, err := fixd.NewLive(fixd.LiveConfig{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer live.Close()
	if _, ok := live.Substrate().(*substrate.SimSubstrate); ok {
		t.Error("live-backed Substrate() should not be a SimSubstrate")
	}
}

// faultySink reports a local fault on its third delivery.
type faultySink struct {
	sink
	n int
}

func (s *faultySink) OnMessage(ctx fixd.Context, from string, payload []byte) {
	s.n++
	if s.n == 3 {
		ctx.Fault("sink: third packet poisoned")
	}
	s.sink.OnMessage(ctx, from, payload)
}

// TestLiveProtectedResponse pins the coordinator contract on the live
// backend: when a protected Run returns because of a fault, the response
// (with its investigation) is already complete — Run must not race the
// Fig. 4 protocol.
func TestLiveProtectedResponse(t *testing.T) {
	sys, err := fixd.NewLive(fixd.LiveConfig{Seed: 9, InitCheckpoint: true, CheckpointEvery: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	sys.Add("sink", func() fixd.Machine { return &faultySink{} })
	sys.Add("source", func() fixd.Machine { return &source{n: 8} })
	sys.AddInvariant(ackedSeen())
	sys.Protect(fixd.ProtectOptions{TreatLocalFaultAsViolation: true, StopAtFirstViolation: true,
		MaxStates: 300, MaxDepth: 8})

	sys.Run()
	resp := sys.Response()
	if resp == nil {
		t.Fatal("protected live Run returned without a completed response")
	}
	if resp.Fault.Proc != "sink" {
		t.Errorf("fault from %q, want sink", resp.Fault.Proc)
	}
	if resp.Investigation == nil {
		t.Error("response carries no investigation")
	}
	sys.Resume()
}

// TestLiveDiagnose pins liblog-style per-process replay through the
// public API on the live backend.
func TestLiveDiagnose(t *testing.T) {
	sys, err := fixd.NewLive(fixd.LiveConfig{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	sys.Add("sink", func() fixd.Machine { return &sink{} })
	sys.Add("source", func() fixd.Machine { return &source{n: 6} })
	sys.Run()

	d, err := sys.Diagnose("sink")
	if err != nil {
		t.Fatal(err)
	}
	if d.Diverged {
		t.Error("faithful live replay diverged")
	}
	if d.Events == 0 || len(d.Trace) == 0 {
		t.Errorf("diagnosis = %+v", d)
	}
	if _, err := sys.Diagnose("ghost"); err == nil {
		t.Error("want error for unknown process")
	}
}
