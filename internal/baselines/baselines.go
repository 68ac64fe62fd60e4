// Package baselines implements the comparison systems of the paper's
// Figure 8: a liblog-style record/replay diagnoser (§2.3, §4.1), a
// CMC-style implementation-level model checker operating from the initial
// state (§2.1, §4.3), and the naive uncoordinated checkpoint/rollback
// analysis that exhibits the domino effect (§4.2, Fig. 6). FixD itself
// (internal/core) composes the full mechanism set; experiments E6 and E8
// measure these baselines against it.
package baselines

import (
	"fmt"

	"repro/internal/dsim"
	"repro/internal/fault"
	"repro/internal/investigate"
	"repro/internal/recovery"
	"repro/internal/scroll"
)

// Source is the scroll-bearing substrate view the baselines read: the
// process registry plus per-process and merged scroll access. *dsim.Sim
// and the live substrate (internal/substrate) both satisfy it.
type Source interface {
	Procs() []string
	Scroll(id string) *scroll.Scroll
	MergedScroll() []scroll.Record
}

// ReplayDiagnosis is the liblog capability: given the scrolls of a failed
// run, re-execute one process in isolation and present the interaction
// trace. It diagnoses (what happened on this path) but cannot explore
// alternative paths, roll anything back, or repair.
type ReplayDiagnosis struct {
	Proc     string
	Events   int
	Sends    int
	Faults   []string
	Diverged bool
	Trace    []string // human-readable merged interaction trace
}

// Diagnose replays proc's scroll against a fresh machine instance and
// formats the globally ordered interaction trace.
func Diagnose(s Source, proc string, fresh dsim.Machine) (*ReplayDiagnosis, error) {
	recs := s.Scroll(proc).Records()
	res, err := dsim.Replay(proc, fresh, recs, 0, 0)
	if err != nil {
		return nil, fmt.Errorf("baselines: replay %s: %w", proc, err)
	}
	d := &ReplayDiagnosis{
		Proc:     proc,
		Events:   res.Events,
		Sends:    res.Sends,
		Faults:   res.Faults,
		Diverged: res.Diverged,
	}
	for _, r := range s.MergedScroll() {
		switch r.Kind {
		case scroll.KindSend:
			d.Trace = append(d.Trace, fmt.Sprintf("%6d %s -> %s %s (%d bytes)", r.Lamport, r.Proc, r.Peer, r.MsgID, len(r.Payload)))
		case scroll.KindRecv:
			d.Trace = append(d.Trace, fmt.Sprintf("%6d %s <- %s %s", r.Lamport, r.Proc, r.Peer, r.MsgID))
		case scroll.KindFault:
			d.Trace = append(d.Trace, fmt.Sprintf("%6d %s !! FAULT: %s", r.Lamport, r.Proc, r.Payload))
		}
	}
	return d, nil
}

// CMCReport is the result of a CMC-style check: exhaustive exploration of
// the real implementation from its *initial* state, with generic property
// checks (deadlocks) plus user invariants. Unlike FixD's Investigator it
// cannot start from a checkpoint near the fault — the whole prefix must be
// re-explored every time.
type CMCReport struct {
	StatesExplored int
	Transitions    int
	Deadlocks      int
	Truncated      bool
	Violations     int
	ShortestTrail  int
}

// CMCCheck model-checks the given process implementations from their
// initial states under a lossy-network environment model.
func CMCCheck(factories map[string]func() dsim.Machine, invariants []fault.GlobalInvariant, maxStates, maxDepth int) (*CMCReport, error) {
	var models []investigate.ProcModel
	for id, f := range factories {
		models = append(models, investigate.ProcModel{Proc: id, New: f})
	}
	rep, err := investigate.Run(models, nil, nil, investigate.Config{
		Invariants:                 invariants,
		TreatLocalFaultAsViolation: true,
		MaxStates:                  maxStates,
		MaxDepth:                   maxDepth,
	})
	if err != nil {
		return nil, err
	}
	out := &CMCReport{
		StatesExplored: rep.StatesExplored,
		Transitions:    rep.Transitions,
		Deadlocks:      rep.Deadlocks,
		Truncated:      rep.Truncated,
		Violations:     len(rep.Trails),
	}
	if t := rep.ShortestTrail(); t != nil {
		out.ShortestTrail = len(t.Steps)
	}
	return out, nil
}

// ExtractDependencies converts a simulation's scrolls into the
// rollback-dependency inputs of the recovery package: per-process
// checkpoint counts and messages annotated with the checkpoint interval of
// their send and receive. This is how a checkpoint/rollback system decides
// recovery lines after the fact; with uncoordinated (periodic) checkpoints
// it exhibits the domino effect that experiment E6 measures.
func ExtractDependencies(s Source) (recovery.Line, []recovery.Message) {
	return ExtractDependenciesFunc(s, nil)
}

// ExtractDependenciesFunc is ExtractDependencies with a filter: messages
// whose records match ignore are excluded from the dependency graph.
// Coordinated snapshot protocols use this to exclude their marker traffic,
// which by design crosses the cut (sent after the sender's checkpoint,
// received before the receiver's) without carrying application state.
func ExtractDependenciesFunc(s Source, ignore func(r scroll.Record) bool) (recovery.Line, []recovery.Message) {
	// First pass: checkpoint interval at each send/recv, per process.
	type sendInfo struct {
		proc     string
		interval int
	}
	sends := make(map[string]sendInfo)
	counts := recovery.Line{}
	for _, id := range s.Procs() {
		interval := 0
		for r := range s.Scroll(id).All() {
			switch r.Kind {
			case scroll.KindCkpt:
				interval++
			case scroll.KindSend:
				if ignore != nil && ignore(r) {
					continue
				}
				sends[r.MsgID] = sendInfo{proc: id, interval: interval}
			}
		}
		counts[id] = interval
	}
	var msgs []recovery.Message
	for _, id := range s.Procs() {
		interval := 0
		for r := range s.Scroll(id).All() {
			switch r.Kind {
			case scroll.KindCkpt:
				interval++
			case scroll.KindRecv:
				if ignore != nil && ignore(r) {
					continue
				}
				si, ok := sends[r.MsgID]
				if !ok {
					continue // sender outside the simulation
				}
				msgs = append(msgs, recovery.Message{
					ID: r.MsgID, From: si.proc, To: id,
					SendInterval: si.interval, RecvInterval: interval,
				})
			}
		}
	}
	return counts, msgs
}

// DominoReport compares recovery-line quality for a failed process.
type DominoReport struct {
	FailedProc   string
	Line         recovery.Line
	Rollbacks    int // total checkpoint intervals discarded
	MaxRollback  int // worst single-process rollback distance
	Iterations   int
	FullRollback bool // some process rolled all the way to its initial state
}

// AnalyzeRecovery computes the recovery line after failedProc loses its
// volatile state and restores its latest checkpoint, using the rollback-
// propagation algorithm over the extracted dependency graph. Line index
// semantics: k undoes every event in intervals >= k, so counts[p]+1 keeps
// the volatile suffix (no rollback), counts[p] restores the latest
// checkpoint, and 0 is the initial state.
func AnalyzeRecovery(s Source, failedProc string) DominoReport {
	return AnalyzeRecoveryFunc(s, failedProc, nil)
}

// AnalyzeRecoveryFunc is AnalyzeRecovery with a record filter (see
// ExtractDependenciesFunc).
func AnalyzeRecoveryFunc(s Source, failedProc string, ignore func(r scroll.Record) bool) DominoReport {
	counts, msgs := ExtractDependenciesFunc(s, ignore)
	start := recovery.Line{}
	for p, c := range counts {
		start[p] = c + 1 // survivors keep their volatile state initially
	}
	start[failedProc] = counts[failedProc] // failed: latest checkpoint
	rep := recovery.RecoveryLine(start, msgs)
	out := DominoReport{
		FailedProc:  failedProc,
		Line:        rep.Line,
		Rollbacks:   rep.Rollbacks,
		MaxRollback: rep.MaxRollback,
		Iterations:  rep.Iterations,
	}
	for p, v := range rep.Line {
		if v == 0 && counts[p] > 0 {
			out.FullRollback = true
			_ = p
		}
	}
	return out
}
