// Package recovery computes globally consistent recovery lines from local
// checkpoints (paper §3.2, §4.2, Fig. 6).
//
// Two complementary algorithms are provided:
//
//   - RecoveryLine: the classic rollback-propagation fixpoint over a
//     rollback-dependency graph (checkpoint intervals + messages). This is
//     the algorithm whose pathological behaviour is the *domino effect*;
//     experiment E6 contrasts its behaviour under uncoordinated versus
//     communication-induced checkpoint placement.
//
//   - MaxConsistentSet: a vector-clock-based selection that finds, for each
//     process, the latest checkpoint such that no member of the set causally
//     precedes another (no orphan messages), matching the paper's
//     requirement that "the checkpoint it provides needs to satisfy global
//     consistency properties" (§3.3). It is the Time Machine's one selection
//     rule; package checkpoint's doc lists the other three decisions.
package recovery

import (
	"fmt"
	"sort"

	"repro/internal/checkpoint"
)

// Message describes one message exchange for rollback-dependency analysis.
// SendInterval is the index of the sender's last checkpoint taken before
// the send (the send happened in that checkpoint interval); RecvInterval
// likewise for the receiver. Rolling a process back to checkpoint k undoes
// every event in intervals >= k.
type Message struct {
	ID           string
	From, To     string
	SendInterval int
	RecvInterval int
}

// Line maps each process to the index of the checkpoint it must restore.
type Line map[string]int

// Clone returns an independent copy of the line.
func (l Line) Clone() Line {
	out := make(Line, len(l))
	for k, v := range l {
		out[k] = v
	}
	return out
}

// String renders the line deterministically.
func (l Line) String() string {
	procs := make([]string, 0, len(l))
	for p := range l {
		procs = append(procs, p)
	}
	sort.Strings(procs)
	s := "line{"
	for i, p := range procs {
		if i > 0 {
			s += " "
		}
		s += fmt.Sprintf("%s:%d", p, l[p])
	}
	return s + "}"
}

// Report summarizes a recovery-line computation for experiments.
type Report struct {
	Line        Line // the computed consistent line
	Iterations  int  // fixpoint rounds until stable
	Rollbacks   int  // total checkpoint indices discarded across processes
	MaxRollback int  // worst single-process rollback distance (domino depth)
}

// RecoveryLine computes the largest consistent recovery line at or below
// start, by iteratively rolling back receivers of orphan messages. start
// gives each process's initial restore target (typically: failed process at
// its latest checkpoint, everyone else at a virtual checkpoint of their
// current state). A message is orphan when its receive is preserved
// (line[to] > RecvInterval) but its send is undone (line[from] <= SendInterval).
func RecoveryLine(start Line, msgs []Message) Report {
	line := start.Clone()
	iters := 0
	for {
		iters++
		changed := false
		for _, m := range msgs {
			lf, okF := line[m.From]
			lt, okT := line[m.To]
			if !okF || !okT {
				continue // message endpoints outside the rollback set
			}
			if lt > m.RecvInterval && lf <= m.SendInterval {
				// Orphan: roll the receiver back to the checkpoint opening
				// the receive's interval, undoing the receive.
				line[m.To] = m.RecvInterval
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	rep := Report{Line: line, Iterations: iters}
	for p, s := range start {
		d := s - line[p]
		rep.Rollbacks += d
		if d > rep.MaxRollback {
			rep.MaxRollback = d
		}
	}
	return rep
}

// Consistent reports whether the line has no orphan messages.
func Consistent(line Line, msgs []Message) bool {
	for _, m := range msgs {
		lf, okF := line[m.From]
		lt, okT := line[m.To]
		if !okF || !okT {
			continue
		}
		if lt > m.RecvInterval && lf <= m.SendInterval {
			return false
		}
	}
	return true
}

// MaxConsistentSet is the Time Machine's selection decision, made here and
// nowhere else: given each process's checkpoints oldest-first, it returns
// for every process the latest one such that the set is globally
// consistent — no member knows more about process p than p's own member
// remembers (c_q.Clock[p] <= c_p.Clock[p]); a c_q beyond that would reflect
// a message chain p has rolled back past, an orphan. Any member that knows
// too much must be demoted whatever the others do, so the greedy loop
// reaches the one maximal set. It returns nil when a process has no
// checkpoint or no consistent set exists even at the oldest ones; a caller
// that wants the always-consistent initial states as a fallback puts an
// empty-clock sentinel at the head of each list (core.Respond does).
func MaxConsistentSet(lists map[string][]*checkpoint.Checkpoint) map[string]*checkpoint.Checkpoint {
	procs := make([]string, 0, len(lists))
	for p, list := range lists {
		if len(list) == 0 {
			return nil
		}
		procs = append(procs, p)
	}
	sort.Strings(procs)
	idx := make([]int, len(procs))
	for i, p := range procs {
		idx[i] = len(lists[p]) - 1
	}
	for {
		demote := -1
	search:
		for i, p := range procs {
			own := lists[p][idx[i]].Clock.Get(p)
			for j, q := range procs {
				if i != j && lists[q][idx[j]].Clock.Get(p) > own {
					demote = j
					break search
				}
			}
		}
		if demote < 0 {
			set := make(map[string]*checkpoint.Checkpoint, len(procs))
			for i, p := range procs {
				set[p] = lists[p][idx[i]]
			}
			return set
		}
		if idx[demote] == 0 {
			return nil // cannot roll back further
		}
		idx[demote]--
	}
}
