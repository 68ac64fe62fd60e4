// Package substrate defines FixD's substrate seam: the runtime surface the
// framework's four components (Scroll, Time Machine, Investigator, Healer)
// and the chaos engine program against, decoupled from any particular
// execution backend — the MAPE-K separation of the managed substrate from
// the monitor/analyze/plan/execute loop.
//
// Two implementations ship:
//
//   - SimSubstrate wraps the deterministic discrete-event simulator
//     (internal/dsim): full fidelity — seeded replayable executions,
//     copy-on-write checkpoints, distributed speculations. The default.
//   - LiveSubstrate runs the same dsim.Machine implementations as real
//     goroutines exchanging messages over internal/transport (an in-memory
//     switch or a real TCP hub), with chaos injection interposed at the
//     hub and the Scroll tapped on every send and delivery. Real
//     concurrency means runs are not globally replayable and speculations
//     are unavailable, but per-process scroll replay, invariant
//     monitoring, fault response and best-effort checkpoint/rollback all
//     work.
//
// The same chaos.Schedule compiles to the same fault.Injections on either
// backend, and both evaluate them with the one inject.Store, so a fault
// scenario exercised in the simulator can be replayed against real
// goroutines unchanged.
package substrate

import (
	"repro/internal/baselines"
	"repro/internal/core"
	"repro/internal/dsim"
	"repro/internal/fault"
)

// Substrate is the backend-agnostic runtime surface: the consumer
// interfaces of the framework's components, embedded — each of their
// methods is declared and documented once, where it is consumed — plus what
// only code that owns a backend needs. A Substrate value can therefore be
// handed to any FixD component directly.
type Substrate interface {
	// The coordinator's view, which includes the Healer's (heal.Target):
	// registry, execution, scroll and clock access, the fault-report hook,
	// checkpoint store, RollbackTo, ReplaceMachine, DurableSnapshotAt.
	core.Substrate
	// The monitor's view: Procs, MachineState, Now.
	fault.StateSource
	// The baselines' view: Procs, Scroll, MergedScroll.
	baselines.Source
	// Inject arms one fault injection: plan.Apply(sub).
	fault.Injector

	// AddProcess registers a machine under the given ID. Must be called
	// before Run; duplicate IDs panic.
	AddProcess(id string, m dsim.Machine)
	// Stop pauses the run; Run/Resume return once in-flight work settles.
	Stop()
	// Stats returns the cumulative counters.
	Stats() dsim.Stats
	// Faults returns all locally detected faults so far.
	Faults() []dsim.FaultRecord
	// DurableSnapshot returns a deep copy of every process's
	// stable-storage cells (proc -> key -> value; nil when nothing was
	// written). Stable storage — the Context.Durable… seam — survives
	// crash-restart on both backends; a deliberate rollback fences cells
	// written after the restored checkpoint (the abandoned timeline's
	// writes), which the snapshot omits. See Capabilities.StableStorage.
	DurableSnapshot() map[string]map[string][]byte
	// Capabilities describes what this backend supports.
	Capabilities() Capabilities
	// Close releases backend resources (network listeners, goroutines).
	Close() error
}

// Both backends implement the surface.
var (
	_ Substrate = (*SimSubstrate)(nil)
	_ Substrate = (*LiveSubstrate)(nil)
)

// Capabilities describes a backend's supported feature set, so callers can
// degrade gracefully instead of failing at runtime.
type Capabilities struct {
	// Name identifies the backend ("sim", "live").
	Name string
	// Deterministic: identical configuration and seed reproduce the run
	// byte-for-byte (merged-scroll digest equality). Sim-only: real
	// goroutine scheduling and network timing are outside the seed's
	// control.
	Deterministic bool
	// ProcessReplay: a single process can be re-executed offline from its
	// scroll. True on both backends — it needs only the per-process log.
	ProcessReplay bool
	// Checkpoints: the checkpoint store is populated and RollbackTo works.
	// On the live backend messages already in flight cannot be recalled,
	// but every rollback advances a timeline epoch that sends stamp onto
	// their frames and receivers fence at delivery, so processes observe
	// exactly-once-per-timeline delivery rather than at-least-once
	// redelivery of the abandoned timeline's traffic.
	Checkpoints bool
	// Speculation: distributed speculations with absorb/commit/abort.
	// Sim-only: aborting requires recalling messages from the network,
	// which only a simulated network can do.
	Speculation bool
	// StableStorage: per-process Context.Durable… cells survive
	// crash-restart (a checkpoint restore never rewinds the disk), while a
	// deliberate rollback fences the abandoned timeline's writes so a later
	// crash-restart cannot re-install them. True on both backends:
	// in-memory on the simulator, and on the live backend optionally
	// write-ahead logged onto internal/wal (LiveConfig.DurableDir) so the
	// cells — and the fences, as tombstones — also survive real process
	// crashes across substrate instances.
	StableStorage bool
}
