// Package fixd is the public API of the FixD reproduction: a framework for
// fault detection, bug reporting, and recoverability of distributed
// applications (Ţăpuş & Noblet, IPPS 2007).
//
// Applications are written as deterministic event-driven Machines and run
// on a Substrate — the backend-agnostic runtime seam. Two backends ship:
//
//   - the simulated substrate (default, fixd.New): a deterministic
//     discrete-event simulator with seeded replayable executions;
//   - the live substrate (fixd.NewLive): the same machines as real
//     goroutines exchanging messages over an in-memory switch or a real
//     TCP hub, with chaos injection interposed at the hub. Its timing is
//     fixed: a virtual tick is 1 ms of wall time, a run is quiescent after
//     75 ms idle, and one Run or Resume returns after 10 s at the latest.
//
// Whichever backend runs the application, FixD wraps it with its four
// components:
//
//   - the Scroll records every nondeterministic action for replay;
//   - the Time Machine checkpoints processes (copy-on-write) and rolls
//     them back to globally consistent recovery lines, with distributed
//     speculations for automatic absorb/commit/abort semantics;
//   - the Investigator model-checks the actual process implementations
//     from a restored global checkpoint and reports the trails that lead
//     to invariant violations;
//   - the Healer repairs the system by restarting the corrected program or
//     dynamically updating it at a verified line: the newest recovery line
//     that is globally consistent and where every registered invariant
//     holds (System.Heal). With no such line it heals nothing.
//
// The chaos engine (Chaos, SearchChaos, InjectChaos, ShrinkChaos)
// stresses all of the above: composable fault scenarios — crash-restart,
// partitions, message delay/reorder/duplication/loss, clock skew — swept
// deterministically over the workload applications, with delta-debugging
// minimization of any failing schedule. Chaos sweeps a fixed matrix;
// SearchChaos hunts with AFL-style coverage guidance, treating each run's
// merged-scroll digest plus coarse event-shape signature as coverage and
// mutating schedules that reached new shapes. The same ChaosSchedule
// value compiles onto either backend, so a scenario found in the
// simulator can be replayed against real goroutines unchanged.
//
// Stable storage (Context.DurablePut/DurableGet/DurableKeys) models each
// process's disk: cells survive crash-restart and rollback — they are
// never rewound by a checkpoint restore — which is what makes classically
// unrecoverable processes (a 2PC coordinator whose broadcast decision
// would otherwise be forgotten, a primary whose version assignments
// replicas already applied) genuinely crash-restartable. On the live
// backend, LiveConfig.DurableDir write-ahead logs the cells onto a
// segmented checksummed WAL so they also survive real process crashes.
//
// Capability matrix: replay determinism (byte-identical repeated runs) and
// distributed speculations are sim-only — real goroutine scheduling is
// outside the seed's control, and aborting a speculation requires
// recalling messages from the network. Per-process scroll replay,
// invariant monitoring, fault response, chaos injection, stable storage
// and checkpoint/rollback (in-transit messages re-delivered) work on both. See
// Substrate.Capabilities.
//
// Quickstart:
//
//	sys := fixd.New(fixd.Config{Seed: 1, CICheckpoint: true})
//	sys.Add("worker", func() fixd.Machine { return newWorker() })
//	sys.AddInvariant(myInvariant)
//	sys.Protect(fixd.ProtectOptions{StopAtFirstViolation: true})
//	sys.Run()
//	if r := sys.Response(); r != nil && r.Err == nil {
//	    fmt.Println(r.Investigation.Trails)
//	}
package fixd

import (
	"repro/internal/apps"
	"repro/internal/baselines"
	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/dsim"
	"repro/internal/fault"
	"repro/internal/fleet"
	"repro/internal/heal"
	"repro/internal/repair"
	"repro/internal/scroll"
	"repro/internal/substrate"
)

// Re-exported substrate types, so applications only import fixd.
type (
	// Machine is a deterministic event-driven process implementation.
	Machine = dsim.Machine
	// Context is the environment API available to machines.
	Context = dsim.Context
	// Config parameterizes the simulated distributed substrate.
	Config = dsim.Config
	// Stats are substrate counters (deliveries, checkpoints, rollbacks...).
	Stats = dsim.Stats
	// RollbackInfo tells a machine why it was rolled back.
	RollbackInfo = dsim.RollbackInfo
	// FaultRecord is a locally detected fault.
	FaultRecord = dsim.FaultRecord
	// GlobalInvariant is a safety property over all process states.
	GlobalInvariant = fault.GlobalInvariant
	// States is the read-only view of every process's machine state an
	// invariant's Holds receives; read it with State.
	States = fault.States
	// Program is a versioned set of process implementations for the Healer.
	Program = heal.Program
	// StateMapper converts old-version state to new-version state.
	StateMapper = heal.StateMapper
	// Response is the record of one Fig. 4 fault-response execution.
	Response = core.Response
	// ProtectOptions configures the FixD coordinator: TreatLocalFaultAsViolation
	// (hunt Context.Fault reports too), MaxStates / MaxDepth (bound each
	// investigation, defaults 20000 / 48), StopAtFirstViolation, and AutoHeal
	// (a Program dynamically injected at the recovery line after a successful
	// investigation). The invariants are those AddInvariant registered.
	ProtectOptions = core.Config
	// Diagnosis is a liblog-style replay diagnosis.
	Diagnosis = baselines.ReplayDiagnosis

	// Substrate is the backend-agnostic runtime surface a System drives:
	// process registry, run/pause/resume, scroll access, checkpoint and
	// rollback hooks, and the chaos-injection capability.
	Substrate = substrate.Substrate
	// SubstrateCapabilities describes what a backend supports.
	SubstrateCapabilities = substrate.Capabilities
	// LiveConfig parameterizes the live (real-goroutine) substrate.
	LiveConfig = substrate.LiveConfig
	// ChaosInjector is the fault-injection capability chaos schedules arm —
	// one method, Inject; every Substrate is one.
	ChaosInjector = fault.Injector

	// FaultKind classifies injectable faults.
	FaultKind = fault.Kind
	// ChaosScenario is one composable fault: kind × targets × window ×
	// intensity (see package internal/chaos).
	ChaosScenario = chaos.Scenario
	// ChaosSchedule composes scenarios into a reproducible fault schedule.
	ChaosSchedule = chaos.Schedule
	// ChaosWindow is a half-open virtual-time interval.
	ChaosWindow = chaos.Window
	// ChaosIntensity quantifies a scenario's severity.
	ChaosIntensity = chaos.Intensity
	// ChaosReport is a chaos-matrix sweep's outcome.
	ChaosReport = chaos.MatrixReport
	// ChaosMatrixConfig parameterizes a chaos-matrix sweep: apps, kinds,
	// seeds, worker sharding, the live sample lane, and CheckEvery (the
	// early-exit invariant cadence).
	ChaosMatrixConfig = chaos.MatrixConfig
	// ChaosArtifact is a replayable minimized counterexample.
	ChaosArtifact = chaos.Artifact

	// ChaosSearchConfig parameterizes coverage-guided chaos search.
	ChaosSearchConfig = chaos.SearchConfig
	// ChaosSearchReport is a guided (or baseline) search's outcome.
	ChaosSearchReport = chaos.SearchReport
	// ChaosFingerprint is one run's behavioral coverage signature: exact
	// merged-scroll digest plus coarse event-shape signature.
	ChaosFingerprint = chaos.Fingerprint

	// FleetConfig parameterizes a distributed chaos-search fleet: the
	// underlying ChaosSearchConfig plus the coordinator's listen address,
	// worker count, lease timeout/retry knobs and journal path.
	FleetConfig = fleet.Config

	// RepairConfig parameterizes a repair attempt: the failing artifact,
	// the knob table (nil uses the app's registered table), and the trial,
	// verification and re-verification budgets.
	RepairConfig = repair.Config
	// RepairReport is the repair outcome: the trials in proposal order,
	// the winning assignment (if any) and the evidence that accepted it.
	// Byte-identical JSON for a given seed at any worker count.
	RepairReport = repair.Report
	// RepairKnob is one tunable, typed parameter of an application's
	// seeded-bug variant — the unit of the bounded patch space.
	RepairKnob = apps.Knob
)

// Injectable fault kinds for chaos scenarios.
const (
	FaultCrash     = fault.Crash
	FaultPartition = fault.Partition
	FaultDelay     = fault.Delay
	FaultReorder   = fault.Reorder
	FaultDuplicate = fault.Duplicate
	FaultDrop      = fault.Drop
	FaultClockSkew = fault.ClockSkew
	// Opt-in kinds: valid in any schedule or scenario, absent from the
	// default matrix sweep (see chaos.MatrixKinds).
	FaultRollback = fault.Rollback
	FaultCorrupt  = fault.Corrupt
	FaultSlowNode = fault.SlowNode
)

// Chaos sweeps the deterministic chaos matrix — every registered workload
// application × every matrix fault kind × the given seeds (default 1–4) —
// and returns the report. Every cell runs a seeded, generated scenario
// twice; a cell passes when the application's global invariants hold and
// the second execution reproduces the first, scroll record for record.
func Chaos(seeds ...int64) *ChaosReport {
	return chaos.RunMatrix(chaos.MatrixConfig{Seeds: seeds})
}

// ChaosMatrix sweeps the chaos matrix with full control over the
// configuration — worker sharding, the live lane, and CheckEvery, which
// halts each cell as soon as a global invariant is violated (early-exit
// attribution lands on Stats.EarlyExit) instead of burning the remaining
// step budget. Chaos is the zero-config shorthand.
func ChaosMatrix(cfg ChaosMatrixConfig) *ChaosReport {
	return chaos.RunMatrix(cfg)
}

// SearchChaos runs AFL-style coverage-guided chaos search: each run's
// behavioral fingerprint (merged-scroll digest plus the coarser
// event-shape signature) is the coverage signal, schedules reaching new
// shapes form the corpus, and new candidates are mutated from corpus
// entries — window/intensity perturbation, retargeting, scenario add/drop,
// splicing two parents. The whole search replays deterministically from
// cfg.Seed, for any worker count. Failing schedules are minimized with the
// shrinker and emitted as replayable artifacts on the report. The zero
// config searches every registered workload application's correct variant
// at the default budget; see chaos.SearchConfig for the knobs.
func SearchChaos(cfg ChaosSearchConfig) *ChaosSearchReport {
	return chaos.Search(cfg)
}

// SearchFleet runs the same coverage-guided chaos search as SearchChaos,
// distributed: a coordinator owns the seeded candidate frontier and leases
// evaluation batches to stateless workers over TCP (cfg.Workers spawns
// them in-process on the loopback interface; fixd-fleet runs them as
// separate processes). Candidates are generated sequentially on the
// coordinator and admitted in candidate order, so for a fixed (seed,
// budget) the report is byte-identical to SearchChaos at any worker count
// and across worker crashes; expired leases are reissued and, past the
// retry limit, evaluated by the coordinator itself. cfg.Journal makes the
// frontier durable: a restarted coordinator replays journaled results and
// resumes without re-executing a schedule.
func SearchFleet(cfg FleetConfig) (*ChaosSearchReport, error) {
	return fleet.Search(cfg)
}

// Repair closes the detect → fix loop on a minimal failing counterexample:
// given a ChaosArtifact (found by SearchChaos or the matrix, minimized by
// the shrinker) for an application with a registered knob table, it
// searches the bounded space of typed timeout/delay parameters for an
// assignment under which the bug no longer manifests. Candidates are
// cheap-rejected by replaying the artifact's minimal schedule against the
// patched program; survivors are accepted only after the full chaos
// pipeline — the complete fault-kind matrix plus a coverage-guided search
// re-run on the patched variant — comes back with zero failures. The
// report is deterministic: byte-identical JSON for a given seed at any
// worker count. An exhausted search returns Fixed=false honestly; an
// error means the inputs are unusable (no artifact, no knob table, or an
// artifact that does not reproduce).
func Repair(cfg RepairConfig) (*RepairReport, error) {
	return repair.Repair(cfg)
}

// ShrinkChaos minimizes a failing fault schedule by delta debugging:
// fails must deterministically report whether a schedule reproduces the
// failure, and budget bounds the number of executions. The result is a
// 1-minimal scenario subsequence with shrunken windows, intensities and
// target sets.
func ShrinkChaos(sched ChaosSchedule, fails func(ChaosSchedule) bool, budget int) ChaosSchedule {
	return chaos.Shrink(sched, fails, budget).Schedule
}

// State returns process id's machine state as a *T from the view an
// invariant is handed (fault.Get): the machine's own state, read in place
// and read-only, when the backend can offer it and the state is a *T; a
// fresh T decoded from the process's JSON state otherwise. Asking for a
// process the view does not hold (States.Has) is an error.
func State[T any](states *States, id string) (*T, error) { return fault.Get[T](states, id) }

// System is a distributed application under FixD protection, running on
// either backend.
type System struct {
	sub        substrate.Substrate
	factories  map[string]func() dsim.Machine
	invariants []GlobalInvariant
	coord      *core.Coordinator
}

// New creates a system on a fresh simulated substrate — the full-fidelity,
// deterministic default.
func New(cfg Config) *System { return NewOn(substrate.NewSim(cfg)) }

// NewLive creates a system on the live substrate: real goroutines
// exchanging messages over an in-memory switch or (with cfg.UseTCP) a real
// TCP hub on the loopback interface. Replay determinism and speculations
// are unavailable there; everything else — scroll recording, chaos
// injection, invariant monitoring, fault response, per-process replay —
// works identically.
func NewLive(cfg LiveConfig) (*System, error) {
	sub, err := substrate.NewLive(cfg)
	if err != nil {
		return nil, err
	}
	return NewOn(sub), nil
}

// NewOn creates a system on the given substrate. Use it to supply a
// custom backend implementation.
func NewOn(sub Substrate) *System {
	return &System{
		sub:       sub,
		factories: make(map[string]func() dsim.Machine),
	}
}

// Add registers a process. The factory is called once to create the live
// instance and kept as the process's model for the Investigator.
func (s *System) Add(id string, factory func() Machine) {
	s.factories[id] = factory
	s.sub.AddProcess(id, factory())
}

// AddInvariant registers a global safety property.
func (s *System) AddInvariant(inv GlobalInvariant) {
	s.invariants = append(s.invariants, inv)
}

// Protect enables the FixD coordinator: the first locally detected fault
// triggers rollback, global checkpoint assembly and investigation.
func (s *System) Protect(opts ProtectOptions) {
	s.coord = core.NewCoordinator(s.sub, s.factories, s.invariants, opts)
}

// InjectChaos compiles a chaos schedule against this system's processes
// (scenario targets index the sorted process list) and arms it on the
// substrate. Call after every Add and before Run. The same schedule value
// works on both backends.
func (s *System) InjectChaos(sched ChaosSchedule) {
	sched.Compile(s.sub.Procs()).Apply(s.sub)
}

// Run executes the system until quiescence, a step bound, or a protected
// fault pauses it.
func (s *System) Run() Stats { return s.sub.Run() }

// Resume continues after a pause (e.g. after inspecting a Response or
// applying a heal).
func (s *System) Resume() Stats { return s.sub.Resume() }

// Stop pauses the run.
func (s *System) Stop() { s.sub.Stop() }

// Response returns the first fault response, or nil if no fault fired.
func (s *System) Response() *Response {
	if s.coord == nil || len(s.coord.Responses()) == 0 {
		return nil
	}
	return s.coord.Responses()[0]
}

// CheckInvariants evaluates the registered invariants against the current
// global state and returns the names of those violated.
func (s *System) CheckInvariants() []string {
	var out []string
	for _, v := range fault.NewMonitor(s.invariants...).Check(s.sub) {
		out = append(out, v.Invariant)
	}
	return out
}

// Diagnose replays one process from its scroll in isolation (liblog-style)
// and returns the diagnosis with the merged interaction trace. It works on
// both backends: per-process replay needs only the recorded scroll.
func (s *System) Diagnose(proc string) (*Diagnosis, error) {
	f, ok := s.factories[proc]
	if !ok {
		return nil, &UnknownProcessError{Proc: proc}
	}
	return baselines.Diagnose(s.sub, proc, f())
}

// Replay re-executes the given machine against proc's recorded scroll —
// Diagnose with a caller-supplied implementation, used to check whether a
// patched machine still follows the recorded interaction (divergence
// analysis).
func (s *System) Replay(proc string, m Machine) (*Diagnosis, error) {
	if s.sub.Scroll(proc) == nil {
		return nil, &UnknownProcessError{Proc: proc}
	}
	return baselines.Diagnose(s.sub, proc, m)
}

// Heal applies a corrected program by dynamic update at the most recent
// recovery line that is globally consistent and where every registered
// invariant holds (heal.VerifiedLine; paper §3.4: resume "from a previously
// saved checkpoint where all invariants are satisfied"). With no such line
// it returns a *NoCheckpointError and changes nothing. Use Response().Line
// for fault-aligned lines instead.
func (s *System) Heal(prog Program, mapper StateMapper) (*heal.Report, error) {
	line := heal.VerifiedLine(s.sub, s.invariants)
	if line == nil {
		return nil, &NoCheckpointError{}
	}
	return heal.Apply(s.sub, line, prog, mapper, heal.VerifyOptions{Invariants: s.invariants})
}

// MergedScroll returns the global, Lamport-ordered record of every
// nondeterministic action in the run.
func (s *System) MergedScroll() []scroll.Record { return s.sub.MergedScroll() }

// DurableSnapshot returns a deep copy of every process's stable-storage
// cells (proc -> key -> value; nil when nothing was written). Stable
// storage survives crash-restart and rollback on both backends.
func (s *System) DurableSnapshot() map[string]map[string][]byte { return s.sub.DurableSnapshot() }

// Fingerprint returns the run's behavioral fingerprint — the SHA-256
// digest and the coarse event-shape signature (bucket is the Lamport
// window width; 0 selects the chaos engine's default) of the globally
// merged scroll, streamed from the per-process scrolls without
// materializing the merged record slice. Call it after Run or at a pause —
// fingerprinting a live substrate mid-flight is racy.
func (s *System) Fingerprint(bucket uint64) (digest, shape string) {
	if bucket == 0 {
		bucket = chaos.ShapeBucket
	}
	var fp scroll.Fingerprinter
	return fp.Fingerprint(s.sub.Scrolls(), bucket)
}

// Substrate exposes the underlying runtime for advanced use (fault
// injection, checkpoint store access, manual rollback, capabilities).
func (s *System) Substrate() Substrate { return s.sub }

// Close releases backend resources (network listeners, goroutines). Only
// the live backend holds any; closing a simulated system is a no-op.
func (s *System) Close() error { return s.sub.Close() }

// UnknownProcessError reports a Diagnose call for an unregistered process.
type UnknownProcessError struct{ Proc string }

func (e *UnknownProcessError) Error() string { return "fixd: unknown process " + e.Proc }

// NoCheckpointError reports a Heal call with no recovery line to heal at:
// no checkpoint was taken, or no consistent line satisfies the invariants.
type NoCheckpointError struct{}

func (e *NoCheckpointError) Error() string {
	return "fixd: no recovery line available (no checkpoints taken, or no consistent line satisfies the invariants)"
}
