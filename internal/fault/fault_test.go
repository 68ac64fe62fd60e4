package fault

import (
	"strings"
	"testing"

	"repro/internal/dsim"
)

func TestKindString(t *testing.T) {
	for k, want := range map[Kind]string{Crash: "crash", Restart: "restart", Partition: "partition", Corrupt: "corrupt", SlowNode: "slow-node", Kind(99): "Kind(99)"} {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d) = %q, want %q", int(k), got, want)
		}
	}
}

func TestHeartbeatDetectsCrash(t *testing.T) {
	s := dsim.New(dsim.Config{Seed: 1, MinLatency: 1, MaxLatency: 1, MaxSteps: 400})
	mon := &HeartbeatMonitor{Peers: []string{"worker"}, Interval: 10, Timeout: 25}
	hb := &Heartbeater{Monitor: "mon", Interval: 10}
	s.AddProcess("mon", mon)
	s.AddProcess("worker", hb)
	s.Inject(Injection{Kind: Crash, Proc: "worker", At: 30})
	var faults []dsim.FaultRecord
	s.FaultHandler = func(_ *dsim.Sim, f dsim.FaultRecord) bool {
		faults = append(faults, f)
		return true
	}
	s.Run()
	if len(faults) != 1 {
		t.Fatalf("faults = %v, want 1", faults)
	}
	if faults[0].Proc != "mon" || !strings.Contains(faults[0].Desc, "worker") {
		t.Errorf("fault = %+v", faults[0])
	}
}

func TestHeartbeatNoFalsePositive(t *testing.T) {
	s := dsim.New(dsim.Config{Seed: 1, MinLatency: 1, MaxLatency: 2, MaxSteps: 300})
	mon := &HeartbeatMonitor{Peers: []string{"worker"}, Interval: 10, Timeout: 25}
	hb := &Heartbeater{Monitor: "mon", Interval: 10}
	s.AddProcess("mon", mon)
	s.AddProcess("worker", hb)
	fired := false
	s.FaultHandler = func(*dsim.Sim, dsim.FaultRecord) bool {
		fired = true
		return true
	}
	s.Run()
	if fired {
		t.Error("healthy worker was declared dead")
	}
}

func TestHeartbeatDetectsPartition(t *testing.T) {
	s := dsim.New(dsim.Config{Seed: 1, MinLatency: 1, MaxLatency: 1, MaxSteps: 400})
	mon := &HeartbeatMonitor{Peers: []string{"worker"}, Interval: 10, Timeout: 25}
	hb := &Heartbeater{Monitor: "mon", Interval: 10}
	s.AddProcess("mon", mon)
	s.AddProcess("worker", hb)
	plan := &Plan{Injections: []Injection{{Kind: Partition, Group: []string{"worker"}, At: 20, Until: 100}}}
	plan.Apply(s)
	detected := false
	s.FaultHandler = func(*dsim.Sim, dsim.FaultRecord) bool {
		detected = true
		return true
	}
	s.Run()
	if !detected {
		t.Error("partition not detected by heartbeat monitor")
	}
}

func TestCrashRestartPlan(t *testing.T) {
	s := dsim.New(dsim.Config{Seed: 1, MinLatency: 1, MaxLatency: 1, MaxSteps: 500})
	mon := &HeartbeatMonitor{Peers: []string{"worker"}, Interval: 10, Timeout: 25}
	hb := &Heartbeater{Monitor: "mon", Interval: 10}
	s.AddProcess("mon", mon)
	s.AddProcess("worker", hb)
	CrashRestart("worker", 30, 60).Apply(s)
	stats := s.Run()
	if stats.Crashes != 1 || stats.Restarts != 1 {
		t.Errorf("stats = %+v", stats)
	}
	// After restart (no checkpoint -> re-Init), heartbeats resume.
	if hb.st.Sent < 5 {
		t.Errorf("sent = %d, want resumed heartbeats", hb.st.Sent)
	}
}

func TestMonitorGlobalInvariant(t *testing.T) {
	s := dsim.New(dsim.Config{Seed: 1, MaxSteps: 100})
	hb := &Heartbeater{Monitor: "nobody", Interval: 10}
	s.AddProcess("w", hb)
	mon := NewMonitor(GlobalInvariant{
		Name: "sent-bounded",
		Holds: func(states *States) bool {
			st, err := Get[struct{ Sent int }](states, "w")
			if err != nil {
				return false
			}
			return st.Sent <= 3
		},
	})
	s.Run()
	viols := mon.Check(s)
	if len(viols) != 1 || viols[0].Invariant != "sent-bounded" {
		t.Errorf("violations = %+v", viols)
	}
	// And a satisfied invariant reports nothing.
	ok := NewMonitor(GlobalInvariant{
		Name:  "always",
		Holds: func(*States) bool { return true },
	})
	if got := ok.Check(s); len(got) != 0 {
		t.Errorf("violations = %+v", got)
	}
}
