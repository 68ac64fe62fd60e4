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
	"time"

	"repro/internal/checkpoint"
	"repro/internal/dsim"
	"repro/internal/fault"
	"repro/internal/heal"
	"repro/internal/investigate"
	"repro/internal/recovery"
	"repro/internal/scroll"
	"repro/internal/vclock"
)

// Config parameterizes the coordinator.
type Config struct {
	// Invariants are the global safety properties the Investigator checks.
	Invariants []fault.GlobalInvariant
	// TreatLocalFaultAsViolation also hunts Context.Fault reports.
	TreatLocalFaultAsViolation bool
	// MaxStates / MaxDepth bound the investigation.
	MaxStates int
	MaxDepth  int
	// ModelLoss adds a lossy-network environment model.
	ModelLoss bool
	// StopAtFirstViolation ends each investigation at the first trail.
	StopAtFirstViolation bool
	// AutoHealProgram, if set, is applied via dynamic update after a
	// successful investigation; Mapper transforms checkpoint states.
	AutoHealProgram *heal.Program
	Mapper          heal.StateMapper
	// VerifyDepth bounds the Healer's verification exploration (0 = skip).
	VerifyDepth int
	// MaxResponses stops handling faults after this many responses
	// (default 1: first fault triggers the pipeline and stops the run).
	MaxResponses int
}

// Substrate is the runtime surface the coordinator drives: the process
// registry, scroll and vector-clock access, the fault-report hook, and the
// Healer's checkpoint/rollback capability (heal.Target). *dsim.Sim
// satisfies it natively; internal/substrate adapts the live runtime.
// Substrates without real checkpoints still work — the recovery line then
// degenerates to the always-consistent initial states (FellBackToNow).
type Substrate interface {
	heal.Target
	// Now returns the current virtual time in ticks.
	Now() uint64
	// Clock returns a copy of the process's vector clock.
	Clock(id string) vclock.VC
	// Scroll returns the named process's recording (nil if unknown).
	Scroll(id string) *scroll.Scroll
	// SetFaultHandler installs h on every Context.Fault report; returning
	// true pauses the run. Passing nil clears it.
	SetFaultHandler(h func(dsim.FaultRecord) bool)
	// Run starts the system (initializing machines on first call) and
	// blocks until quiescence, a step/time bound, or a protected fault
	// pauses it.
	Run() dsim.Stats
	// Resume continues after a pause without re-initializing machines.
	Resume() dsim.Stats
	// DurableSnapshotAt returns the stable-storage cells as of a recovery
	// line (proc -> line scroll position): per process on the line, the
	// cells written strictly before its position — what the Investigator's
	// sandbox disks are seeded with.
	DurableSnapshotAt(lineSeq map[string]uint64) map[string]map[string][]byte
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
	Elapsed       time.Duration
}

// Coordinator drives FixD on top of a substrate.
type Coordinator struct {
	sim       Substrate
	factories map[string]func() dsim.Machine
	cfg       Config
	responses []*Response
}

// NewCoordinator wires a coordinator to the substrate. factories must
// provide a fresh-instance constructor for every process (the "model" each
// process ships on request — here, its own implementation, as the paper
// permits).
func NewCoordinator(s Substrate, factories map[string]func() dsim.Machine, cfg Config) *Coordinator {
	if cfg.MaxStates <= 0 {
		cfg.MaxStates = 20_000
	}
	if cfg.MaxDepth <= 0 {
		cfg.MaxDepth = 48
	}
	if cfg.MaxResponses <= 0 {
		cfg.MaxResponses = 1
	}
	c := &Coordinator{sim: s, factories: factories, cfg: cfg}
	s.SetFaultHandler(c.onFault)
	return c
}

// Responses returns the fault responses executed so far.
func (c *Coordinator) Responses() []*Response { return c.responses }

// onFault is installed as the substrate's fault handler.
func (c *Coordinator) onFault(f dsim.FaultRecord) bool {
	if len(c.responses) >= c.cfg.MaxResponses {
		return false
	}
	resp, err := c.Respond(f)
	if err != nil {
		// A coordinator failure is itself a fault; record it and stop.
		resp = &Response{Fault: f}
	}
	c.responses = append(c.responses, resp)
	return true // pause the substrate; caller decides whether to Resume
}

// Respond executes the Fig. 4 protocol for the given fault and returns the
// full response record.
func (c *Coordinator) Respond(f dsim.FaultRecord) (*Response, error) {
	start := time.Now()
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
		return nil, fmt.Errorf("core: no consistent checkpoint set (unreachable: initial states are concurrent)")
	}

	// Step 3: assemble the global checkpoint and models, plus the channel
	// contents at the line: messages whose send is inside the cut but
	// whose receive is not, and the timers pending at each checkpoint.
	var (
		models  []investigate.ProcModel
		timers  []investigate.Timer
		lineSeq = make(map[string]uint64, len(procs))
	)
	for _, id := range procs {
		factory, ok := c.factories[id]
		if !ok {
			return nil, fmt.Errorf("core: no model factory for process %q", id)
		}
		pm := investigate.ProcModel{Proc: id, New: factory}
		if ck := set[id]; ck.ID != "" { // else the initial-state sentinel
			state, err := ck.StateJSON()
			if err != nil {
				return nil, fmt.Errorf("core: checkpoint %s: %w", ck.ID, err)
			}
			pm.State = append([]byte(nil), state...)
			pm.Heap = ck.Snap
			resp.Line[id] = ck.ID
			resp.LineClocks[id] = ck.Clock.Copy()
			lineSeq[id] = ck.ScrollSeq
			for _, name := range ck.Timers {
				timers = append(timers, investigate.Timer{Proc: id, Name: name})
			}
		}
		models = append(models, pm)
	}
	if len(resp.Line) == 0 {
		resp.FellBackToNow = true
	}
	// Substrates with stable storage ship each process's cells alongside
	// its (checkpoint, model) reply — restricted to writes before that
	// process's line position, so the sandbox disk matches the line's
	// timeline and never holds a later (or fenced) decision.
	durable := c.sim.DurableSnapshotAt(lineSeq)
	for i := range models {
		models[i].Durable = durable[models[i].Proc]
	}
	inTransit := c.inTransitAt(lineSeq)

	rep, err := investigate.Run(models, inTransit, timers, investigate.Config{
		Invariants:                 c.cfg.Invariants,
		TreatLocalFaultAsViolation: c.cfg.TreatLocalFaultAsViolation,
		MaxStates:                  c.cfg.MaxStates,
		MaxDepth:                   c.cfg.MaxDepth,
		ModelLoss:                  c.cfg.ModelLoss,
		StopAtFirstViolation:       c.cfg.StopAtFirstViolation,
	})
	if err != nil {
		return nil, fmt.Errorf("core: investigation: %w", err)
	}
	resp.Investigation = rep

	// Step 4: optional healing with the corrected program.
	if c.cfg.AutoHealProgram != nil && len(resp.Line) > 0 {
		hrep, err := heal.Apply(c.sim, resp.Line, *c.cfg.AutoHealProgram, c.cfg.Mapper, heal.VerifyOptions{
			Invariants:   c.cfg.Invariants,
			ExploreDepth: c.cfg.VerifyDepth,
		})
		if err != nil {
			return nil, fmt.Errorf("core: heal: %w", err)
		}
		resp.Heal = hrep
	}
	resp.Elapsed = time.Since(start)
	return resp, nil
}

// inTransitAt computes the messages crossing the recovery line: sends
// recorded within a process's line prefix whose matching receive is not
// within the receiver's prefix. Processes restored to their initial state
// have an empty prefix (no sends, no receives).
func (c *Coordinator) inTransitAt(lineSeq map[string]uint64) []investigate.Msg {
	received := make(map[string]bool)
	for _, id := range c.sim.Procs() {
		limit := lineSeq[id]
		for r := range c.sim.Scroll(id).All() {
			if r.Seq >= limit {
				break
			}
			if r.Kind == scroll.KindRecv {
				received[r.MsgID] = true
			}
		}
	}
	var out []investigate.Msg
	for _, id := range c.sim.Procs() {
		limit := lineSeq[id]
		for r := range c.sim.Scroll(id).All() {
			if r.Seq >= limit {
				break
			}
			if r.Kind == scroll.KindSend && !received[r.MsgID] {
				out = append(out, investigate.Msg{From: id, To: r.Peer, Payload: append([]byte(nil), r.Payload...)})
			}
		}
	}
	return out
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

// ResumeAfterHeal continues the substrate after a successful heal.
func (c *Coordinator) ResumeAfterHeal() dsim.Stats {
	return c.sim.Resume()
}
