// Package core is the FixD runtime: the glue that composes the Scroll, the
// Time Machine, the Investigator and the Healer into the fault-response
// pipeline of the paper's Figure 4.
//
// When a process detects a fault locally (Context.Fault), the coordinator:
//
//  1. rolls the detecting process back to a recent stored checkpoint and
//     notifies the other processes that an error occurred;
//  2. collects from each process a reply of (local checkpoint, model) —
//     the checkpoint chosen so that the assembled set satisfies global
//     consistency (recovery.MaxConsistentSet), the model being the process
//     implementation itself;
//  3. pieces the replies into a consistent global checkpoint and feeds it
//     to the Investigator, which explores execution paths and returns the
//     trails that lead to invariant violations;
//  4. optionally hands the trails to the Healer, which repairs the system
//     either by dynamic update + resume from the recovery line, or by
//     restart with the corrected program.
package core

import (
	"fmt"

	"repro/internal/checkpoint"
	"repro/internal/dsim"
	"repro/internal/fault"
	"repro/internal/heal"
	"repro/internal/investigate"
	"repro/internal/recovery"
	"repro/internal/vclock"
)

// Config configures the coordinator; fixd.ProtectOptions is this type.
type Config struct {
	// TreatLocalFaultAsViolation hunts Context.Fault reports during
	// investigation in addition to the invariants.
	TreatLocalFaultAsViolation bool
	// MaxStates / MaxDepth bound each investigation (defaults 20000 / 48).
	MaxStates int
	MaxDepth  int
	// StopAtFirstViolation ends each investigation at the first trail.
	StopAtFirstViolation bool
	// AutoHeal, if non-nil, is dynamically injected at the recovery line
	// after a successful investigation.
	AutoHeal *heal.Program
}

// maxResponses is how many faults a coordinator responds to: the first
// fault triggers the pipeline and stops the run; later ones are declined.
const maxResponses = 1

// Substrate is the runtime surface the coordinator drives: the process
// registry, scroll access, the fault-report hook, and the
// Healer's checkpoint/rollback capability (heal.Target). *dsim.Sim
// satisfies it natively; internal/substrate adapts the live runtime.
// Substrates without real checkpoints still work — the recovery line then
// degenerates to the always-consistent initial states (FellBackToNow).
type Substrate interface {
	heal.Target
	// SetFaultHandler installs h on every Context.Fault report; returning
	// true pauses the run. Passing nil clears it.
	SetFaultHandler(h func(dsim.FaultRecord) bool)
	// Run starts the system (initializing machines on first call) and
	// blocks until quiescence, a step/time bound, or a protected fault
	// pauses it.
	Run() dsim.Stats
	// Resume continues after a pause without re-initializing machines.
	Resume() dsim.Stats
}

// Response records one complete execution of the Fig. 4 protocol.
type Response struct {
	Fault         dsim.FaultRecord
	Line          map[string]string // proc -> checkpoint ID of the recovery line
	LineClocks    map[string]vclock.VC
	FellBackToNow bool // no consistent checkpoint set existed; used current states
	Messages      int  // protocol messages exchanged (notify + replies)
	Investigation *investigate.Report
	Heal          *heal.Report
	// Err is why the protocol stopped short; the fields above keep what it
	// gathered before it did (a heal-stage error keeps the investigation).
	Err error
}

// Coordinator drives FixD on top of a substrate.
type Coordinator struct {
	sim       Substrate
	factories map[string]func() dsim.Machine
	invs      []fault.GlobalInvariant
	cfg       Config
	responses []*Response
}

// NewCoordinator wires a coordinator to the substrate. factories must
// provide a fresh-instance constructor for every process (the "model" each
// process ships on request — here, its own implementation, as the paper
// permits). invs are the global safety properties the Investigator checks
// and a heal must keep.
func NewCoordinator(s Substrate, factories map[string]func() dsim.Machine, invs []fault.GlobalInvariant, cfg Config) *Coordinator {
	if cfg.MaxStates <= 0 {
		cfg.MaxStates = 20_000
	}
	if cfg.MaxDepth <= 0 {
		cfg.MaxDepth = 48
	}
	c := &Coordinator{sim: s, factories: factories, invs: invs, cfg: cfg}
	s.SetFaultHandler(c.onFault)
	return c
}

// Responses returns the fault responses executed so far.
func (c *Coordinator) Responses() []*Response { return c.responses }

// onFault is installed as the substrate's fault handler.
func (c *Coordinator) onFault(f dsim.FaultRecord) bool {
	if len(c.responses) >= maxResponses {
		return false
	}
	// A coordinator failure is itself a fault: record it with what the
	// response found, and stop.
	resp, err := c.Respond(f)
	resp.Err = err
	c.responses = append(c.responses, resp)
	return true // pause the substrate; caller decides whether to Resume
}

// Respond executes the Fig. 4 protocol for the given fault and returns the
// response record. On error the record holds what the protocol gathered
// before it stopped.
func (c *Coordinator) Respond(f dsim.FaultRecord) (*Response, error) {
	resp := &Response{Fault: f, Line: map[string]string{}, LineClocks: map[string]vclock.VC{}}

	procs := c.sim.Procs()
	// Step 1-2: notify peers, collect (checkpoint, model) replies. One
	// notification out and one reply back per peer.
	resp.Messages = 2 * (len(procs) - 1)

	// Choose a consistent set of checkpoints. Every process has an implicit
	// initial checkpoint (empty clock — concurrent with everything), so a
	// consistent set always exists.
	lists := make(map[string][]*checkpoint.Checkpoint, len(procs))
	for _, id := range procs {
		initial := &checkpoint.Checkpoint{Proc: id, Clock: vclock.New()}
		lists[id] = append([]*checkpoint.Checkpoint{initial}, c.sim.Store().List(id)...)
	}
	set := recovery.MaxConsistentSet(lists)
	if set == nil {
		return resp, fmt.Errorf("core: no consistent checkpoint set (unreachable: initial states are concurrent)")
	}

	// Step 3: piece the replies into the global checkpoint the Investigator
	// explores from.
	line := make([]heal.Member, 0, len(procs))
	for _, id := range procs {
		factory, ok := c.factories[id]
		if !ok {
			return resp, fmt.Errorf("core: no model factory for process %q", id)
		}
		m := heal.Member{Ck: set[id], New: factory}
		if ck := set[id]; ck.ID != "" { // else the initial-state sentinel
			state, err := ck.StateJSON()
			if err != nil {
				return resp, fmt.Errorf("core: checkpoint %s: %w", ck.ID, err)
			}
			m.State = append([]byte(nil), state...)
			resp.Line[id] = ck.ID
			resp.LineClocks[id] = ck.Clock.Copy()
		}
		line = append(line, m)
	}
	if len(resp.Line) == 0 {
		resp.FellBackToNow = true
	}
	rep, err := heal.Investigate(c.sim, line, investigate.Config{
		Invariants:                 c.invs,
		TreatLocalFaultAsViolation: c.cfg.TreatLocalFaultAsViolation,
		MaxStates:                  c.cfg.MaxStates,
		MaxDepth:                   c.cfg.MaxDepth,
		StopAtFirstViolation:       c.cfg.StopAtFirstViolation,
	})
	if err != nil {
		return resp, fmt.Errorf("core: investigation: %w", err)
	}
	resp.Investigation = rep

	// Step 4: optional healing with the corrected program.
	if c.cfg.AutoHeal != nil && len(resp.Line) > 0 {
		hrep, err := heal.Apply(c.sim, resp.Line, *c.cfg.AutoHeal, nil, heal.VerifyOptions{Invariants: c.invs})
		if err != nil {
			return resp, fmt.Errorf("core: heal: %w", err)
		}
		resp.Heal = hrep
	}
	return resp, nil
}

// RunProtected runs the substrate under coordinator protection and
// returns the first response, or nil if the run completed without faults.
func (c *Coordinator) RunProtected() *Response {
	c.sim.Run()
	if len(c.responses) == 0 {
		return nil
	}
	return c.responses[0]
}
