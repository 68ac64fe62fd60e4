package apps

import (
	"testing"

	"repro/internal/dsim"
	"repro/internal/fault"
)

func TestMServiceCorrectCompletes(t *testing.T) {
	cfg := MServiceConfig{Hops: 2, Requests: 6, Timeout: 60, Retries: 2, Backoff: 8,
		SlowEvery: 3, SlowDelay: 40}
	ms := NewMService(cfg)
	s := runApp(t, dsim.Config{Seed: 1, MinLatency: 1, MaxLatency: 2, MaxSteps: 50_000}, ms)
	mon := fault.NewMonitor(MSNoDuplicateSideEffects(), MSNoRetryStorm(cfg), MSBoundedLatency(cfg))
	if v := mon.Check(s); len(v) != 0 {
		t.Errorf("correct chain violated: %v", v)
	}
	cl := ms[MSClientName].(*MSClient)
	if len(cl.st.Completed) != cfg.Requests {
		t.Errorf("completed %d of %d requests: %+v", len(cl.st.Completed), cfg.Requests, cl.st)
	}
	if spare := ms[MSBack2Name].(*MSBackend); len(spare.st.Executed) != 0 {
		t.Errorf("spare backend committed %d requests on the correct variant", len(spare.st.Executed))
	}
	if prim := ms[MSBackName].(*MSBackend); len(prim.st.Executed) != cfg.Requests {
		t.Errorf("primary committed %d of %d", len(prim.st.Executed), cfg.Requests)
	}
}

// TestMServiceBuggyTimeoutCascade: the seeded misconfiguration (per-hop
// timeout far below the backend's slow path) makes the backend-adjacent
// tier fail over while the primary is still working, committing slow
// requests on both backends — fault-free, on every seed the chain runs.
func TestMServiceBuggyTimeoutCascade(t *testing.T) {
	ms := NewMService(chaosMSBugCfg)
	s := runApp(t, dsim.Config{Seed: 1, MinLatency: 1, MaxLatency: 2, MaxSteps: 50_000}, ms)
	if v := fault.NewMonitor(MSNoDuplicateSideEffects()).Check(s); len(v) == 0 {
		t.Error("duplicate side effect not observed on the seeded-bug variant")
	}
	if spare := ms[MSBack2Name].(*MSBackend); len(spare.st.Executed) == 0 {
		t.Error("failover never engaged; the timeout cascade was not exercised")
	}
	// The retry discipline itself stays bounded: the cascade is a failover
	// bug, not a storm.
	if v := fault.NewMonitor(MSNoRetryStorm(chaosMSBugCfg)).Check(s); len(v) != 0 {
		t.Errorf("retry schedule exceeded its bound: %v", v)
	}
}

// TestMServiceKnobFixes: raising the timeout past the slow path — the
// repair searcher's patch — makes the buggy program correct without
// touching the failover code.
func TestMServiceKnobFixes(t *testing.T) {
	cfg := chaosMSBugCfg
	cfg.Timeout = 64
	ms := NewMService(cfg)
	s := runApp(t, dsim.Config{Seed: 1, MinLatency: 1, MaxLatency: 2, MaxSteps: 50_000}, ms)
	mon := fault.NewMonitor(MSNoDuplicateSideEffects(), MSNoRetryStorm(cfg), MSBoundedLatency(cfg))
	if v := mon.Check(s); len(v) != 0 {
		t.Errorf("patched timeout still violates: %v", v)
	}
	if spare := ms[MSBack2Name].(*MSBackend); len(spare.st.Executed) != 0 {
		t.Errorf("failover engaged despite the patched timeout: %v", spare.st.Executed)
	}
}

func TestCacheAsideCorrectNoStaleReads(t *testing.T) {
	cfg := CacheAsideConfig{Keys: 2, Rounds: 3}
	ms := NewCacheAside(cfg)
	s := runApp(t, dsim.Config{Seed: 1, MinLatency: 1, MaxLatency: 2, MaxSteps: 50_000}, ms)
	if v := fault.NewMonitor(CANoStaleReads(), CACacheNeverAhead()).Check(s); len(v) != 0 {
		t.Errorf("correct cache-aside violated: %v", v)
	}
	cl := ms[CAClientName].(*CAClient)
	if len(cl.st.Reads) == 0 {
		t.Fatal("no reads recorded; workload not exercised")
	}
	for _, r := range cl.st.Reads {
		if r.Ver < r.Min {
			t.Errorf("read %+v below its fence", r)
		}
	}
}

// TestCacheAsideBuggyStaleRead: without write invalidation the cache keeps
// serving the old version after the store acknowledged a newer one —
// deterministically, at baseline.
func TestCacheAsideBuggyStaleRead(t *testing.T) {
	ms := NewCacheAside(chaosCABugCfg)
	s := runApp(t, dsim.Config{Seed: 1, MinLatency: 1, MaxLatency: 2, MaxSteps: 50_000}, ms)
	if v := fault.NewMonitor(CANoStaleReads()).Check(s); len(v) == 0 {
		t.Error("stale read not observed on the seeded-bug variant")
	}
	cl := ms[CAClientName].(*CAClient)
	if cl.st.Stale == 0 {
		t.Error("client never recorded a stale read; bug not exercised")
	}
}

// fuzzInjector sends one arbitrary payload to every listed process — the
// receivers' parse paths must treat it like any other corrupted message.
type fuzzInjector struct {
	payload []byte
	targets []string
}

func (f *fuzzInjector) State() any { v := 0; return &v }
func (f *fuzzInjector) Init(ctx dsim.Context) {
	for _, to := range f.targets {
		ctx.Send(to, f.payload)
	}
}
func (f *fuzzInjector) OnMessage(dsim.Context, string, []byte)     {}
func (f *fuzzInjector) OnTimer(dsim.Context, string)               {}
func (f *fuzzInjector) OnRollback(dsim.Context, dsim.RollbackInfo) {}

// FuzzCorruptPayloadDecode: handlers parse in-flight payloads that
// fault.Corrupt may have mutated arbitrarily, so every machine of every
// application, either variant, must absorb arbitrary bytes — from any
// sender, at any time — without panicking. The injector delivers the fuzz
// payload through a real simulation, exercising the same OnMessage path
// corrupted deliveries take.
func FuzzCorruptPayloadDecode(f *testing.F) {
	for _, p := range payloadSeeds {
		f.Add([]byte(p))
	}
	// Not in payloadSeeds, which the pre-refactor fixture ran against the
	// handlers that still honoured it with a 5 GB heap.
	f.Add([]byte("put|k9999999|v"))
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, spec := range append(Registry(), Zoo()...) {
			for _, buggy := range []bool{false, true} {
				ms := spec.Make(buggy)
				targets := sortedProcs(ms)
				ms["fuzzer"] = &fuzzInjector{payload: data, targets: targets}
				s := dsim.New(dsim.Config{Seed: 1, MinLatency: 1, MaxLatency: 2, MaxSteps: 2_000})
				for _, id := range append(targets, "fuzzer") {
					s.AddProcess(id, ms[id])
				}
				s.Run() // must quiesce or hit the step bound — never panic
			}
		}
	})
}
