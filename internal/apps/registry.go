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
	chaosRingBugCfg  = TokenRingConfig{N: 4, Rounds: 50, Buggy: true, RegenTimeout: 8, HoldTime: 2}
	chaosTwoPCCfg    = TwoPCConfig{Participants: 3}
	chaosTwoPCBugCfg = TwoPCConfig{Participants: 2, NoVoters: []int{1}, SlowVoters: []int{1},
		Timeout: 10, VoteDelay: 100, Buggy: true}
	chaosKVCfg    = KVConfig{Replicas: 2, Writes: 15, Keys: 3}
	chaosKVBugCfg = KVConfig{Replicas: 2, Writes: 30, Keys: 2, Buggy: true}
	// The blind-apply bug needs jitter to reorder replication; the
	// max-latency knob narrows this band.
	chaosKVBugSim = chaosConfig(1, 30)
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

// app declares one workload application once: its constructor, the
// correct (ok) and seeded-bug (bug) configs with their simulation profiles,
// how the bug is switched off, the invariants, and the knob table repair
// searches. Zoo apps are kept out of Registry.
type app[C any] struct {
	name          string
	new           func(C) map[string]dsim.Machine
	ok, bug       C
	fix           func(*C) // clears Buggy: the corrected program
	inv           func(cfg C, buggy bool) []fault.GlobalInvariant
	okSim, bugSim dsim.Config
	horizon       uint64
	zoo           bool
	knobs         []knob[C]
}

// row is an app of any config type, as the table holds it.
type row interface {
	id() (name string, zoo bool)
	knobTable() []Knob
	spec(assign map[string]uint64) AppSpec
}

func (a app[C]) id() (string, bool) { return a.name, a.zoo }

func (a app[C]) knobTable() []Knob {
	out := make([]Knob, len(a.knobs))
	for i, k := range a.knobs {
		out[i] = k.Knob
	}
	return out
}

// spec renders the app with assign set on its seeded-bug variant (the
// correct variant is untouched — repair patches the broken program, not
// the oracle, though an invariant may read the patched config). assign is
// already validated against the knob table.
func (a app[C]) spec(assign map[string]uint64) AppSpec {
	bug, bugSim := a.bug, a.bugSim
	for _, k := range a.knobs {
		if v, ok := assign[k.Name]; ok {
			k.set(&bug, &bugSim, v)
		}
	}
	fixed := bug
	a.fix(&fixed)
	return AppSpec{
		Name: a.name,
		Make: func(buggy bool) map[string]dsim.Machine {
			if buggy {
				return a.new(bug)
			}
			return a.new(a.ok)
		},
		MakeFixed: func() map[string]dsim.Machine { return a.new(fixed) },
		Invariants: func(buggy bool) []fault.GlobalInvariant {
			if buggy {
				return a.inv(bug, true)
			}
			return a.inv(a.ok, false)
		},
		Config: func(buggy bool) dsim.Config {
			if buggy {
				return bugSim
			}
			return a.okSim
		},
		Horizon: a.horizon,
	}
}

// table is every workload application: Registry's five in matrix order,
// then the scenario zoo.
var table = []row{
	app[BankConfig]{
		name: "bank", new: NewBank, ok: chaosBankCfg, bug: chaosBankBugCfg,
		fix: func(c *BankConfig) { c.Buggy = false },
		inv: func(c BankConfig, buggy bool) []fault.GlobalInvariant {
			if buggy {
				return []fault.GlobalInvariant{BankNoOverdraft()}
			}
			return []fault.GlobalInvariant{BankConservation(c), BankNoOverdraft()}
		},
		okSim: chaosConfig(1, 6), bugSim: chaosConfig(1, 4), horizon: 90,
	},
	app[ElectionConfig]{
		name: "election", new: NewElection, ok: chaosElectCfg, bug: chaosElectBugCfg,
		fix: func(c *ElectionConfig) { c.Buggy = false },
		inv: func(ElectionConfig, bool) []fault.GlobalInvariant {
			return []fault.GlobalInvariant{ElectionSafety()}
		},
		okSim: chaosConfig(1, 6), bugSim: chaosConfig(1, 3), horizon: 60,
		knobs: []knob[ElectionConfig]{
			{Knob{Name: "re-elect-timeout", Min: 4, Max: 2048, Step: 2, Current: chaosElectBugCfg.ReElectTimeout},
				func(c *ElectionConfig, _ *dsim.Config, v uint64) { c.ReElectTimeout = v }},
		},
	},
	app[KVConfig]{
		name: "kvstore", new: NewKVStore, ok: chaosKVCfg, bug: chaosKVBugCfg,
		fix: func(c *KVConfig) { c.Buggy = false },
		inv: func(KVConfig, bool) []fault.GlobalInvariant {
			return []fault.GlobalInvariant{KVSafety()}
		},
		okSim: chaosConfig(1, 8), bugSim: chaosKVBugSim, horizon: 80,
		// The knob bounds the network's latency band rather than an app
		// timer: the jitter window shrinks to [min(MinLatency, max), max].
		// The floor keeps real jitter in the band: a latency cap cannot
		// serialize the replicas, so no value in range fixes the blind
		// apply — kvstore is the table's honest negative space.
		knobs: []knob[KVConfig]{
			{Knob{Name: "max-latency", Min: 8, Max: 64, Step: 1, Current: chaosKVBugSim.MaxLatency},
				func(_ *KVConfig, sim *dsim.Config, v uint64) {
					sim.MaxLatency, sim.MinLatency = v, min(sim.MinLatency, v)
				}},
		},
	},
	app[TokenRingConfig]{
		name: "tokenring", new: NewTokenRing, ok: chaosRingCfg, bug: chaosRingBugCfg,
		fix: func(c *TokenRingConfig) { c.Buggy = false },
		inv: func(TokenRingConfig, bool) []fault.GlobalInvariant {
			return []fault.GlobalInvariant{TokenRingInvariant()}
		},
		okSim: chaosConfig(1, 6), bugSim: chaosConfig(5, 20), horizon: 160,
		knobs: []knob[TokenRingConfig]{
			{Knob{Name: "regen-timeout", Min: 2, Max: 1 << 16, Step: 2, Current: chaosRingBugCfg.RegenTimeout},
				func(c *TokenRingConfig, _ *dsim.Config, v uint64) { c.RegenTimeout = v }},
			{Knob{Name: "hold-time", Min: 1, Max: 16, Step: 1, Current: chaosRingBugCfg.HoldTime},
				func(c *TokenRingConfig, _ *dsim.Config, v uint64) { c.HoldTime = v }},
		},
	},
	app[TwoPCConfig]{
		name: "twopc", new: NewTwoPC, ok: chaosTwoPCCfg, bug: chaosTwoPCBugCfg,
		fix: func(c *TwoPCConfig) { c.Buggy = false },
		inv: func(TwoPCConfig, bool) []fault.GlobalInvariant {
			return []fault.GlobalInvariant{TwoPCAtomicity()}
		},
		okSim: chaosConfig(1, 6), bugSim: chaosConfig(1, 2), horizon: 50,
		knobs: []knob[TwoPCConfig]{
			{Knob{Name: "timeout", Min: 4, Max: 512, Step: 2, Current: chaosTwoPCBugCfg.Timeout},
				func(c *TwoPCConfig, _ *dsim.Config, v uint64) { c.Timeout = v }},
			{Knob{Name: "vote-delay", Min: 4, Max: 512, Step: 2, Current: chaosTwoPCBugCfg.VoteDelay},
				func(c *TwoPCConfig, _ *dsim.Config, v uint64) { c.VoteDelay = v }},
		},
	},
	app[MServiceConfig]{
		name: "mservice", new: NewMService, ok: chaosMSCfg, bug: chaosMSBugCfg, zoo: true,
		fix: func(c *MServiceConfig) { c.Buggy = false },
		// The retry-storm limit and latency bound are derived from the knob
		// values, so the oracle tracks the patch: a legitimately longer
		// retry schedule is not a storm.
		inv: func(c MServiceConfig, _ bool) []fault.GlobalInvariant {
			return []fault.GlobalInvariant{MSNoDuplicateSideEffects(), MSNoRetryStorm(c), MSBoundedLatency(c)}
		},
		okSim: chaosConfig(1, 2), bugSim: chaosConfig(1, 2), horizon: 120,
		// The timeout cascade is a misconfiguration: any knob that stretches
		// the backend-adjacent tier's patience past the 40-tick slow path
		// (a bigger timeout, more retries, steeper backoff) is a valid fix.
		knobs: []knob[MServiceConfig]{
			{Knob{Name: "timeout", Min: 4, Max: 512, Step: 2, Current: chaosMSBugCfg.Timeout},
				func(c *MServiceConfig, _ *dsim.Config, v uint64) { c.Timeout = v }},
			{Knob{Name: "retries", Min: 1, Max: 6, Step: 1, Current: uint64(chaosMSBugCfg.Retries)},
				func(c *MServiceConfig, _ *dsim.Config, v uint64) { c.Retries = int(v) }},
			{Knob{Name: "backoff", Min: 2, Max: 64, Step: 2, Current: chaosMSBugCfg.Backoff},
				func(c *MServiceConfig, _ *dsim.Config, v uint64) { c.Backoff = v }},
		},
	},
	app[CacheAsideConfig]{
		name: "cacheaside", new: NewCacheAside, ok: chaosCACfg, bug: chaosCABugCfg, zoo: true,
		fix: func(c *CacheAsideConfig) { c.Buggy = false },
		inv: func(_ CacheAsideConfig, buggy bool) []fault.GlobalInvariant {
			if buggy {
				return []fault.GlobalInvariant{CANoStaleReads()}
			}
			return []fault.GlobalInvariant{CANoStaleReads(), CACacheNeverAhead()}
		},
		okSim: chaosConfig(1, 2), bugSim: chaosConfig(1, 2), horizon: 100,
	},
}

// find returns the table row named name.
func find(name string) (row, error) {
	for _, r := range table {
		if n, _ := r.id(); n == name {
			return r, nil
		}
	}
	return nil, fmt.Errorf("apps: unknown application %q", name)
}

// specs renders the table's rows in order, zoo or not.
func specs(zoo bool) []AppSpec {
	var out []AppSpec
	for _, r := range table {
		if _, z := r.id(); z == zoo {
			out = append(out, r.spec(nil))
		}
	}
	return out
}

// JitterFreeKV returns the kvstore spec pinned to a jitter-free latency
// band, so its blind-apply bug manifests only when a fault schedule
// actually reorders messages — the controlled setting the shrinker tests
// and the guided-search experiment share. Artifact.Verify and
// repair.Repair reject artifacts recorded under this spec, because
// resolving "kvstore" by name yields the stock band; replay them with
// Artifact.VerifyWith(JitterFreeKV()).
func JitterFreeKV() AppSpec {
	r, _ := find("kvstore")
	kv := r.(app[KVConfig])
	kv.okSim, kv.bugSim = chaosConfig(1, 1), chaosConfig(1, 1)
	return kv.spec(nil)
}

// Lookup resolves one registered application by name — how stateless
// fleet workers and the fixd-fleet CLI turn an app name from the wire
// back into a runnable spec. It resolves scenario-zoo applications too:
// artifacts recorded against a zoo workload replay through the same path
// as matrix ones.
func Lookup(name string) (AppSpec, error) {
	r, err := find(name)
	if err != nil {
		return AppSpec{}, err
	}
	return r.spec(nil), nil
}

// Zoo returns the scenario-zoo workloads: applications that exist to
// exercise the opt-in fault kinds (Corrupt, SlowNode) and the richer
// failure modes they unlock, kept out of Registry so the default chaos
// matrix — and every artifact pinned against it — stays byte-identical.
// Sweeps that want them list them explicitly (MatrixConfig.Apps,
// SearchConfig.Apps) or combine Registry()+Zoo(), as the guided-vs-random
// search test and the search benchmark do.
func Zoo() []AppSpec { return specs(true) }

// Registry returns the five workload applications in matrix order.
func Registry() []AppSpec { return specs(false) }
