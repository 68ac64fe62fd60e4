package apps

import (
	"fmt"

	"repro/internal/dsim"
	"repro/internal/fault"
)

// stateOrZero returns process id's state as a *T — a zero T when the view
// does not hold the process: recovery lines may leave processes out, and
// the invariants below read an absent peer as one that has done nothing.
func stateOrZero[T any](states *fault.States, id string) (*T, error) {
	if !states.Has(id) {
		return new(T), nil
	}
	return fault.Get[T](states, id)
}

// AppSpec describes one workload application in the uniform shape the
// chaos matrix (internal/chaos) sweeps: constructors for the correct and
// seeded-bug variants, the global safety invariants that must survive
// arbitrary fault injection, and the simulation profile the workload runs
// under.
type AppSpec struct {
	Name string
	// Make builds the machines; buggy selects the seeded-bug variant.
	Make func(buggy bool) map[string]dsim.Machine
	// MakeFixed builds the corrected program for the buggy variant — same
	// workload shape, bug disabled — which is what the Healer injects.
	MakeFixed func() map[string]dsim.Machine
	// Invariants are the global safety properties for the variant. They are
	// chosen to be robust to benign chaos (message loss merely stalls
	// progress, duplication is absorbed by idempotent handlers), so a
	// violation on the correct variant is always a real bug.
	Invariants func(buggy bool) []fault.GlobalInvariant
	// CrashOK reports whether proc may be crash-restarted from a local
	// checkpoint without breaking the invariants by construction. Since the
	// stable-storage layer (dsim.Context.Durable…) landed, every registered
	// workload process qualifies: the 2PC coordinator and the KV primary —
	// the two historical exclusions, for which a local rollback would
	// forget a broadcast decision or a replicated version assignment —
	// write those records to stable storage before broadcasting and recover
	// them on restart. The hook remains for future workloads with genuinely
	// unrecoverable processes.
	CrashOK func(proc string) bool
	// Config is the simulation profile (latency band, checkpoint policy).
	// The caller fills in Seed.
	Config func(buggy bool) dsim.Config
	// Horizon approximates the virtual-time span of the active workload,
	// used to scale scenario windows.
	Horizon uint64
}

// Canonical workload parameters for the chaos matrix. The buggy variants
// reuse the tunings under which the seeded bugs are known to manifest
// (see fixd/integration_test.go and the apps tests).
var (
	chaosRingCfg     = TokenRingConfig{N: 4, Rounds: 6}
	chaosRingBugCfg  = TokenRingConfig{N: 4, Rounds: 50, Buggy: true, RegenTimeout: 8}
	chaosTwoPCCfg    = TwoPCConfig{Participants: 3}
	chaosTwoPCBugCfg = TwoPCConfig{Participants: 2, NoVoters: []int{1}, SlowVoters: []int{1},
		Timeout: 10, VoteDelay: 100, Buggy: true}
	chaosKVCfg    = KVConfig{Replicas: 2, Writes: 15, Keys: 3}
	chaosKVBugCfg = KVConfig{Replicas: 2, Writes: 30, Keys: 2, Buggy: true}
	chaosElectCfg = ElectionConfig{N: 5}
	// ReElectTimeout 6 is shorter than announcement propagation (the winning
	// candidacy alone needs N latency hops), so the buggy premature
	// re-election splits the ring on every seed; repair (internal/repair)
	// fixes it by raising the timeout past retransmission delivery.
	chaosElectBugCfg = ElectionConfig{N: 5, Buggy: true, ReElectTimeout: 6}
	chaosBankCfg     = BankConfig{Branches: 3, AccountsPer: 4, InitialBalance: 200, Transfers: 12}
	chaosBankBugCfg  = BankConfig{Branches: 2, AccountsPer: 2, InitialBalance: 50,
		Transfers: 40, MaxAmount: 60, Buggy: true}
	chaosMSCfg = MServiceConfig{Hops: 2, Requests: 6, Timeout: 60, Retries: 2, Backoff: 8,
		SlowEvery: 3, SlowDelay: 40}
	// Timeout 4 sits far below the backend's 40-tick slow path, so the
	// backend-adjacent tier exhausts its retries and fails over while the
	// primary backend is still working — the timeout cascade that commits
	// every slow request on two backends. Repair (internal/repair) fixes it
	// by raising the timeout (or stretching the retry schedule) past the
	// slow path.
	chaosMSBugCfg = MServiceConfig{Hops: 2, Requests: 8, Timeout: 4, Retries: 2, Backoff: 2,
		SlowEvery: 2, SlowDelay: 40, Buggy: true}
	chaosCACfg    = CacheAsideConfig{Keys: 2, Rounds: 3}
	chaosCABugCfg = CacheAsideConfig{Keys: 2, Rounds: 4, Buggy: true}
)

// chaosConfig is the shared simulation profile: enough checkpoints for
// crash-restart to restore meaningful state, and a latency band with room
// for injected jitter.
func chaosConfig(minLat, maxLat uint64) dsim.Config {
	return dsim.Config{
		MinLatency: minLat, MaxLatency: maxLat,
		InitCheckpoint: true, CheckpointEvery: 4,
		MaxSteps: 200_000,
	}
}

// RegistryExcept returns the registry minus the named applications —
// used to focus an experiment or keep a test fast (tokenring's seeded-bug
// variant costs ~1s/run without early-exit monitoring). Guided search
// itself sweeps the full registry: the tokenring exclusion was lifted when
// early-exit invariant monitoring (Runner.CheckEvery) made it affordable.
func RegistryExcept(names ...string) []AppSpec {
	skip := make(map[string]bool, len(names))
	for _, n := range names {
		skip[n] = true
	}
	var out []AppSpec
	for _, s := range Registry() {
		if !skip[s.Name] {
			out = append(out, s)
		}
	}
	return out
}

// JitterFreeKV returns the kvstore spec pinned to a jitter-free latency
// band, so its blind-apply bug manifests only when a fault schedule
// actually reorders messages — the controlled setting the shrinker tests
// and the guided-search experiment share. Artifacts recorded under this
// spec replay via Artifact.VerifyWith (registry resolution would use the
// stock config).
func JitterFreeKV() AppSpec {
	for _, s := range Registry() {
		if s.Name == "kvstore" {
			s.Config = func(bool) dsim.Config {
				return dsim.Config{MinLatency: 1, MaxLatency: 1,
					InitCheckpoint: true, CheckpointEvery: 4, MaxSteps: 200_000}
			}
			return s
		}
	}
	panic("apps: kvstore not registered")
}

// Lookup resolves one registered application by name — how stateless
// fleet workers and the fixd-fleet CLI turn an app name from the wire
// back into a runnable spec. It resolves scenario-zoo applications too:
// artifacts recorded against a zoo workload replay through the same path
// as matrix ones.
func Lookup(name string) (AppSpec, error) {
	for _, s := range Registry() {
		if s.Name == name {
			return s, nil
		}
	}
	for _, s := range Zoo() {
		if s.Name == name {
			return s, nil
		}
	}
	return AppSpec{}, fmt.Errorf("apps: unknown application %q", name)
}

// Zoo returns the scenario-zoo workloads: applications that exist to
// exercise the opt-in fault kinds (Corrupt, SlowNode) and the richer
// failure modes they unlock, kept out of Registry so the default chaos
// matrix — and every artifact pinned against it — stays byte-identical.
// Sweeps that want them list them explicitly (MatrixConfig.Apps,
// SearchConfig.Apps) or combine Registry()+Zoo(), as experiment E12 and
// the search benchmark do.
func Zoo() []AppSpec {
	return []AppSpec{
		{
			Name: "mservice",
			Make: func(buggy bool) map[string]dsim.Machine {
				if buggy {
					return NewMService(chaosMSBugCfg)
				}
				return NewMService(chaosMSCfg)
			},
			MakeFixed: func() map[string]dsim.Machine {
				cfg := chaosMSBugCfg
				cfg.Buggy = false
				return NewMService(cfg)
			},
			Invariants: func(buggy bool) []fault.GlobalInvariant {
				cfg := chaosMSCfg
				if buggy {
					cfg = chaosMSBugCfg
				}
				return []fault.GlobalInvariant{
					MSNoDuplicateSideEffects(), MSNoRetryStorm(cfg), MSBoundedLatency(cfg),
				}
			},
			// Backends durably log each committed request before responding,
			// so a restart re-serves the cached verdict instead of committing
			// twice; tiers and client are stateless retriers.
			CrashOK: func(string) bool { return true },
			Config: func(buggy bool) dsim.Config {
				return chaosConfig(1, 2)
			},
			Horizon: 120,
		},
		{
			Name: "cacheaside",
			Make: func(buggy bool) map[string]dsim.Machine {
				if buggy {
					return NewCacheAside(chaosCABugCfg)
				}
				return NewCacheAside(chaosCACfg)
			},
			MakeFixed: func() map[string]dsim.Machine {
				cfg := chaosCABugCfg
				cfg.Buggy = false
				return NewCacheAside(cfg)
			},
			Invariants: func(buggy bool) []fault.GlobalInvariant {
				if buggy {
					return []fault.GlobalInvariant{CANoStaleReads()}
				}
				return []fault.GlobalInvariant{CANoStaleReads(), CACacheNeverAhead()}
			},
			// The primary durably logs every write before acknowledging it
			// (kvstore's recovery idiom); the cache reboots cold; the client's
			// read fence only ever rewinds, which under-approximates staleness.
			CrashOK: func(string) bool { return true },
			Config: func(buggy bool) dsim.Config {
				return chaosConfig(1, 2)
			},
			Horizon: 100,
		},
	}
}

// Registry returns the five workload applications in matrix order.
func Registry() []AppSpec {
	pick := func(buggy bool, bug, ok dsim.Config) dsim.Config {
		if buggy {
			return bug
		}
		return ok
	}
	return []AppSpec{
		{
			Name: "bank",
			Make: func(buggy bool) map[string]dsim.Machine {
				if buggy {
					return NewBank(chaosBankBugCfg)
				}
				return NewBank(chaosBankCfg)
			},
			MakeFixed: func() map[string]dsim.Machine {
				cfg := chaosBankBugCfg
				cfg.Buggy = false
				return NewBank(cfg)
			},
			Invariants: func(buggy bool) []fault.GlobalInvariant {
				if buggy {
					return []fault.GlobalInvariant{BankNoOverdraft()}
				}
				return []fault.GlobalInvariant{BankConservation(chaosBankCfg), BankNoOverdraft()}
			},
			CrashOK: func(string) bool { return true },
			Config: func(buggy bool) dsim.Config {
				return pick(buggy, chaosConfig(1, 4), chaosConfig(1, 6))
			},
			Horizon: 90,
		},
		{
			Name: "election",
			Make: func(buggy bool) map[string]dsim.Machine {
				if buggy {
					return NewElection(chaosElectBugCfg)
				}
				return NewElection(chaosElectCfg)
			},
			MakeFixed: func() map[string]dsim.Machine {
				cfg := chaosElectBugCfg
				cfg.Buggy = false
				return NewElection(cfg)
			},
			Invariants: func(bool) []fault.GlobalInvariant {
				return []fault.GlobalInvariant{ElectionSafety()}
			},
			CrashOK: func(string) bool { return true },
			Config: func(buggy bool) dsim.Config {
				return pick(buggy, chaosConfig(1, 3), chaosConfig(1, 6))
			},
			Horizon: 60,
		},
		{
			Name: "kvstore",
			Make: func(buggy bool) map[string]dsim.Machine {
				if buggy {
					return NewKVStore(chaosKVBugCfg)
				}
				return NewKVStore(chaosKVCfg)
			},
			MakeFixed: func() map[string]dsim.Machine {
				cfg := chaosKVBugCfg
				cfg.Buggy = false
				return NewKVStore(cfg)
			},
			Invariants: func(bool) []fault.GlobalInvariant {
				return []fault.GlobalInvariant{KVSafety()}
			},
			// The primary durably logs every version assignment before
			// replicating it and recovers the log on restart, so even the
			// version authority is crash-restartable.
			CrashOK: func(string) bool { return true },
			Config: func(buggy bool) dsim.Config {
				return pick(buggy, chaosConfig(1, 30), chaosConfig(1, 8))
			},
			Horizon: 80,
		},
		{
			Name: "tokenring",
			Make: func(buggy bool) map[string]dsim.Machine {
				if buggy {
					return NewTokenRing(chaosRingBugCfg)
				}
				return NewTokenRing(chaosRingCfg)
			},
			MakeFixed: func() map[string]dsim.Machine {
				cfg := chaosRingBugCfg
				cfg.Buggy = false
				return NewTokenRing(cfg)
			},
			Invariants: func(bool) []fault.GlobalInvariant {
				return []fault.GlobalInvariant{TokenRingInvariant()}
			},
			CrashOK: func(string) bool { return true },
			Config: func(buggy bool) dsim.Config {
				return pick(buggy, chaosConfig(5, 20), chaosConfig(1, 6))
			},
			Horizon: 160,
		},
		{
			Name: "twopc",
			Make: func(buggy bool) map[string]dsim.Machine {
				if buggy {
					return NewTwoPC(chaosTwoPCBugCfg)
				}
				return NewTwoPC(chaosTwoPCCfg)
			},
			MakeFixed: func() map[string]dsim.Machine {
				cfg := chaosTwoPCBugCfg
				cfg.Buggy = false
				return NewTwoPC(cfg)
			},
			Invariants: func(bool) []fault.GlobalInvariant {
				return []fault.GlobalInvariant{TwoPCAtomicity()}
			},
			// The coordinator durably logs its decision before broadcasting
			// and re-installs it on restart, so the classic unrecoverable-
			// coordinator failure cannot occur.
			CrashOK: func(string) bool { return true },
			Config: func(buggy bool) dsim.Config {
				return pick(buggy, chaosConfig(1, 2), chaosConfig(1, 6))
			},
			Horizon: 50,
		},
	}
}
