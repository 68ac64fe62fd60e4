// Package heal implements the Healer, FixD's fourth component (paper §3.4,
// §4.4, Fig. 5).
//
// Once the Investigator has produced violation trails and the programmer
// has prepared corrected code (a new Program version), there are two
// recovery options:
//
//   - Restart: run the corrected program from the initial state — simple,
//     but all computation performed so far is lost.
//   - Update: roll the system back to a stable checkpoint where all
//     invariants hold and resume with the corrected code dynamically
//     injected, preserving the work up to the checkpoint.
//
// Dynamic update must not break type safety or invalidate invariants
// (paper §3.4). The Ginseng-inspired safety pipeline here is three-staged:
// the new machine must accept the mapped state (type safety), the mapped
// global state must satisfy the invariants (state equivalence at the
// update point), and optionally a bounded model-checking run of the
// updated program from the mapped state must be violation-free (the
// "automatically verified" equivalence of §4.4).
package heal

import (
	"encoding/json"
	"fmt"
	"slices"
	"sort"

	"repro/internal/checkpoint"
	"repro/internal/dsim"
	"repro/internal/fault"
	"repro/internal/investigate"
	"repro/internal/recovery"
	"repro/internal/scroll"
)

// Target is the checkpoint/rollback capability surface the Healer drives:
// any substrate exposing a checkpoint store, recovery-line rollback, and
// the dynamic-update primitive. *dsim.Sim satisfies it natively; the live
// substrate (internal/substrate) implements it too.
type Target interface {
	// Procs returns the sorted process IDs.
	Procs() []string
	// Store exposes the substrate's checkpoint store.
	Store() *checkpoint.Store
	// RollbackTo restores the given recovery line (proc -> checkpoint ID),
	// all of it or — when an entry names an unknown checkpoint or process —
	// none of it, and re-delivers the messages in transit across it to its
	// members.
	RollbackTo(line map[string]string) error
	// ReplaceMachine swaps a process's implementation, loading state (JSON)
	// into it when non-nil — the dynamic-update primitive.
	ReplaceMachine(procID string, m dsim.Machine, state []byte) error
	// DurableSnapshotAt returns the stable-storage cells as of a recovery
	// line (proc -> checkpoint): per process on the line, the cells as its
	// checkpoint saw them (checkpoint.Cells.At its Disk) — the disks the
	// Investigator's explored processes start from.
	DurableSnapshotAt(line map[string]*checkpoint.Checkpoint) map[string]map[string][]byte
	// Scrolls returns the processes' recordings, in Procs order.
	Scrolls() []*scroll.Scroll
}

// Program is a versioned set of process implementations.
type Program struct {
	Version   string
	Factories map[string]func() dsim.Machine
}

// StateMapper transforms a process's checkpointed state (old program
// format, JSON) into the new program's format. Identity if nil.
type StateMapper func(proc string, old []byte) ([]byte, error)

// VerifyOptions controls the safety checks performed before an update is
// applied.
type VerifyOptions struct {
	// Invariants must hold on the mapped global state.
	Invariants []fault.GlobalInvariant
	// ExploreDepth > 0 runs a bounded exploration of the updated program
	// from the mapped state, of at most verifyStates states, and requires it
	// violation-free.
	ExploreDepth int
}

// verifyStates bounds the exploration VerifyOptions.ExploreDepth asks for.
const verifyStates = 5000

// Report describes the outcome of a recovery.
type Report struct {
	Mode          string // "update" or "restart"
	Version       string
	Line          map[string]string // recovery line used (update mode)
	TypeSafe      bool
	InvariantsOK  bool
	ExploreOK     bool
	ExploreStates int
	Failures      []string // reasons the update was refused
}

// Verified reports whether every requested check passed.
func (r *Report) Verified() bool { return len(r.Failures) == 0 }

// Restart builds a fresh simulation running the corrected program from its
// initial state — recovery option one (paper §3.4).
func Restart(cfg dsim.Config, prog Program) (*dsim.Sim, *Report) {
	s := dsim.New(cfg)
	ids := make([]string, 0, len(prog.Factories))
	for id := range prog.Factories {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		s.AddProcess(id, prog.Factories[id]())
	}
	return s, &Report{Mode: "restart", Version: prog.Version, TypeSafe: true, InvariantsOK: true, ExploreOK: true}
}

// Apply performs a dynamic update on a live simulation: roll back to the
// recovery line (proc -> checkpoint ID), verify safety, and swap in the
// corrected program with mapped states — recovery option two. If any check
// fails, the simulation is left untouched and the report lists the
// failures.
func Apply(s Target, line map[string]string, prog Program, mapper StateMapper, opts VerifyOptions) (*Report, error) {
	rep := &Report{Mode: "update", Version: prog.Version, Line: line}
	if mapper == nil {
		mapper = func(_ string, old []byte) ([]byte, error) { return old, nil }
	}
	cks, err := s.Store().ResolveLine(line)
	if err != nil {
		return nil, fmt.Errorf("heal: %w", err)
	}

	// Stage 0: gather and map the checkpointed states.
	members := make([]Member, len(cks))
	for i, ck := range cks {
		id := ck.Proc
		old, err := ck.StateJSON()
		if err != nil {
			return nil, fmt.Errorf("heal: checkpoint %s: %w", ck.ID, err)
		}
		m, err := mapper(id, old)
		if err != nil {
			rep.Failures = append(rep.Failures, fmt.Sprintf("state mapping for %s: %v", id, err))
			continue
		}
		members[i] = Member{Ck: ck, New: prog.Factories[id], State: m}
		if members[i].New == nil {
			rep.Failures = append(rep.Failures, fmt.Sprintf("program %s has no implementation for %s", prog.Version, id))
		}
	}
	if len(rep.Failures) > 0 {
		return rep, nil
	}

	// Stage 1: type safety — the new implementation must accept the mapped
	// state.
	rep.TypeSafe = true
	for _, m := range members {
		if err := checkpoint.RestoreState(m.State, m.New().State()); err != nil {
			rep.TypeSafe = false
			rep.Failures = append(rep.Failures, fmt.Sprintf("type safety: %s rejects mapped state: %v", m.Ck.Proc, err))
		}
	}
	if !rep.TypeSafe {
		return rep, nil
	}

	// Stage 2: the mapped global state must satisfy the invariants.
	rep.InvariantsOK = true
	raw := make(map[string]json.RawMessage, len(members))
	for _, m := range members {
		raw[m.Ck.Proc] = m.State
	}
	states := fault.StatesFromRaw(raw)
	for _, inv := range opts.Invariants {
		if !inv.Holds(states) {
			rep.InvariantsOK = false
			rep.Failures = append(rep.Failures, fmt.Sprintf("invariant %q fails at the update point", inv.Name))
		}
	}
	if !rep.InvariantsOK {
		return rep, nil
	}

	// Stage 3: optional bounded exploration of the updated program from the
	// line.
	rep.ExploreOK = true
	if opts.ExploreDepth > 0 {
		irep, err := Investigate(s, members, investigate.Config{
			Invariants:                 opts.Invariants,
			TreatLocalFaultAsViolation: true,
			StopAtFirstViolation:       true,
			MaxDepth:                   opts.ExploreDepth,
			MaxStates:                  verifyStates,
		})
		if err != nil {
			return nil, fmt.Errorf("heal: verification exploration: %w", err)
		}
		rep.ExploreStates = irep.StatesExplored
		if irep.Violating() {
			rep.ExploreOK = false
			tr := irep.ShortestTrail()
			rep.Failures = append(rep.Failures, fmt.Sprintf("updated program still violates %q within depth %d", tr.Invariant, opts.ExploreDepth))
		}
	}
	if !rep.ExploreOK {
		return rep, nil
	}

	// All checks passed: roll back and inject the corrected code.
	if err := s.RollbackTo(line); err != nil {
		return nil, fmt.Errorf("heal: rollback: %w", err)
	}
	for _, m := range members {
		if err := s.ReplaceMachine(m.Ck.Proc, m.New(), m.State); err != nil {
			return nil, fmt.Errorf("heal: inject: %w", err)
		}
	}
	return rep, nil
}

// Member is a process of a recovery line as an investigation starts it: its
// checkpoint Ck, the implementation New runs and the state State it loads. A
// member at its initial state has a nil State and an empty-ID checkpoint at
// position and time 0, with no heap or timers.
type Member struct {
	Ck    *checkpoint.Checkpoint
	New   func() dsim.Machine
	State []byte
}

// Investigate runs the Investigator from a recovery line of s: each member
// with its checkpoint's heap, virtual time and pending timers, and the disk
// it had written before its line position, and the messages in transit
// across the line (scroll.InTransit). A process off the line is not rolled
// back: all it recorded counts.
func Investigate(s Target, line []Member, cfg investigate.Config) (*investigate.Report, error) {
	cut := make(map[string]uint64, len(line))
	cks := make(map[string]*checkpoint.Checkpoint, len(line)) // an initial state's Disk is 0: no disk
	for _, m := range line {
		cut[m.Ck.Proc] = m.Ck.ScrollSeq
		cks[m.Ck.Proc] = m.Ck
	}
	durable := s.DurableSnapshotAt(cks)
	models := make([]investigate.ProcModel, len(line))
	var timers []investigate.Timer
	for i, m := range line {
		ck := m.Ck
		models[i] = investigate.ProcModel{Proc: ck.Proc, New: m.New, State: m.State,
			Heap: ck.Snap, Durable: durable[ck.Proc], Time: ck.Time}
		for _, name := range ck.Timers {
			timers = append(timers, investigate.Timer{Proc: ck.Proc, Name: name})
		}
	}
	var msgs []investigate.Msg
	for r := range scroll.InTransit(s.Scrolls(), cut) {
		msgs = append(msgs, investigate.Msg{From: r.Proc, To: r.Peer, Payload: append([]byte(nil), r.Payload...)})
	}
	return investigate.Run(models, msgs, timers, cfg)
}

// VerifiedLine finds the most recent recovery line that is both globally
// consistent (no orphan messages, by vector-clock analysis) and satisfies
// every given invariant — the state the paper requires for resumption: "a
// previously saved checkpoint where all invariants are satisfied" (§3.4).
// It walks backwards, discarding the newest offending checkpoint until a
// verified line emerges, and returns nil if none exists (callers should
// then restart from scratch).
func VerifiedLine(s Target, invariants []fault.GlobalInvariant) map[string]string {
	// Processes without any checkpoint are left out of the line: not rolled
	// back, their sends in transit across it (scroll.InTransit) are
	// re-delivered to its members by either backend's RollbackTo.
	// Invariant functions receive only the line members' states and must
	// tolerate absent processes.
	lists := s.Store().Lists(s.Procs())
	if len(lists) == 0 {
		return nil
	}
	for {
		set := recovery.MaxConsistentSet(lists)
		if set == nil {
			return nil
		}
		ok := true
		raw := make(map[string]json.RawMessage, len(set))
		for id, ck := range set {
			state, err := ck.StateJSON()
			ok = ok && err == nil // a checkpoint whose state does not decode verifies nothing
			raw[id] = state
		}
		states := fault.StatesFromRaw(raw)
		for i := 0; ok && i < len(invariants); i++ {
			ok = invariants[i].Holds(states)
		}
		if ok {
			line := make(map[string]string, len(set))
			for id, ck := range set {
				line[id] = ck.ID
			}
			return line
		}
		// Discard the newest checkpoint in the offending set and retry: the
		// set member is the last *consistent* one, so trim its process's list
		// to end just before it.
		var newest *checkpoint.Checkpoint
		for _, ck := range set {
			if newest == nil || ck.Time > newest.Time || ck.Time == newest.Time && ck.Proc > newest.Proc {
				newest = ck
			}
		}
		cks := lists[newest.Proc]
		lists[newest.Proc] = cks[:slices.Index(cks, newest)]
	}
}
