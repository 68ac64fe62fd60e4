package recovery

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/checkpoint"
	"repro/internal/vclock"
)

// vc builds a clock from (id string, count int) pairs.
func vc(pairs ...any) vclock.VC {
	v := vclock.New()
	for i := 0; i < len(pairs); i += 2 {
		v.Set(pairs[i].(string), uint64(pairs[i+1].(int)))
	}
	return v
}

// Figure 6 scenario: three processes A, B, C. B fails and rolls back to its
// last checkpoint; the safe recovery line must exclude the messages B sent
// after that checkpoint.
func TestRecoveryLineFigure6(t *testing.T) {
	// A: ckpt0 --- recv m1 --- ckpt1 ...
	// B: ckpt0 --- send m1 --- ckpt1 --- send m2 --- FAIL (rolls to ckpt1)
	// C: ckpt0 --- recv m2 --- ckpt1 ...
	msgs := []Message{
		{ID: "m1", From: "B", To: "A", SendInterval: 0, RecvInterval: 0},
		{ID: "m2", From: "B", To: "C", SendInterval: 1, RecvInterval: 0},
	}
	// B fails: restored to ckpt 1. A and C initially keep their latest (ckpt 1).
	start := Line{"A": 1, "B": 1, "C": 1}
	rep := RecoveryLine(start, msgs)
	// m1 was sent in B's interval 0, B restored at 1 > 0, so m1's send is
	// preserved; A keeps ckpt1. m2 sent in B's interval 1, undone (1 <= 1),
	// and C received it in interval 0, preserved by ckpt1 — orphan. C must
	// roll back to ckpt 0.
	if rep.Line["A"] != 1 {
		t.Errorf("A = %d, want 1", rep.Line["A"])
	}
	if rep.Line["C"] != 0 {
		t.Errorf("C = %d, want 0 (unsafe line avoided)", rep.Line["C"])
	}
	if !Consistent(rep.Line, msgs) {
		t.Error("result not consistent")
	}
	if rep.Rollbacks != 1 || rep.MaxRollback != 1 {
		t.Errorf("report = %+v", rep)
	}
}

func TestRecoveryLineDominoEffect(t *testing.T) {
	// Classic domino: two processes checkpoint in anti-phase with a message
	// criss-cross, so each rollback orphanizes another receive, cascading
	// to the initial checkpoints.
	msgs := []Message{
		{ID: "m1", From: "A", To: "B", SendInterval: 0, RecvInterval: 0},
		{ID: "m2", From: "B", To: "A", SendInterval: 1, RecvInterval: 0},
		{ID: "m3", From: "A", To: "B", SendInterval: 1, RecvInterval: 1},
		{ID: "m4", From: "B", To: "A", SendInterval: 2, RecvInterval: 1},
		{ID: "m5", From: "A", To: "B", SendInterval: 2, RecvInterval: 2},
	}
	// A fails, rolling to its checkpoint 2; B starts at its latest (3).
	rep := RecoveryLine(Line{"A": 2, "B": 3}, msgs)
	// m5 (sent in A interval 2) becomes orphan at B interval 2 -> B:2;
	// m4 (B interval 2) orphan at A interval 1 -> A:1; m3 orphan -> B:1;
	// m2 orphan -> A:0; m1 orphan -> B:0. Full domino.
	if rep.Line["A"] != 0 || rep.Line["B"] != 0 {
		t.Errorf("line = %v, want full domino to 0,0", rep.Line)
	}
	if rep.MaxRollback < 2 {
		t.Errorf("MaxRollback = %d, want >= 2", rep.MaxRollback)
	}
	if !Consistent(rep.Line, msgs) {
		t.Error("domino line inconsistent")
	}
}

func TestRecoveryLineNoMessages(t *testing.T) {
	rep := RecoveryLine(Line{"A": 3, "B": 2}, nil)
	if rep.Line["A"] != 3 || rep.Line["B"] != 2 {
		t.Errorf("line = %v", rep.Line)
	}
	if rep.Rollbacks != 0 {
		t.Errorf("rollbacks = %d", rep.Rollbacks)
	}
}

func TestRecoveryLineIgnoresOutsideProcs(t *testing.T) {
	msgs := []Message{{ID: "m", From: "X", To: "A", SendInterval: 5, RecvInterval: 0}}
	rep := RecoveryLine(Line{"A": 2}, msgs)
	if rep.Line["A"] != 2 {
		t.Errorf("line = %v; messages with endpoints outside the set must be ignored", rep.Line)
	}
}

func TestConsistentDetectsOrphan(t *testing.T) {
	msgs := []Message{{ID: "m", From: "A", To: "B", SendInterval: 1, RecvInterval: 0}}
	if Consistent(Line{"A": 1, "B": 1}, msgs) {
		t.Error("orphan undetected")
	}
	if !Consistent(Line{"A": 2, "B": 1}, msgs) {
		t.Error("preserved send flagged")
	}
	if !Consistent(Line{"A": 1, "B": 0}, msgs) {
		t.Error("undone receive flagged")
	}
}

// ck builds a checkpoint of proc with the given clock.
func ck(id, proc string, clock vclock.VC) *checkpoint.Checkpoint {
	return &checkpoint.Checkpoint{ID: id, Proc: proc, Clock: clock}
}

// lineIDs renders a chosen set as proc -> checkpoint ID.
func lineIDs(set map[string]*checkpoint.Checkpoint) map[string]string {
	if set == nil {
		return nil
	}
	ids := make(map[string]string, len(set))
	for p, c := range set {
		ids[p] = c.ID
	}
	return ids
}

// consistent is the oracle: no member knows more about a process than that
// process's own member remembers.
func consistent(set map[string]*checkpoint.Checkpoint) bool {
	for p, own := range set {
		for q, other := range set {
			if p != q && other.Clock.Get(p) > own.Clock.Get(p) {
				return false
			}
		}
	}
	return true
}

// TestConsistentSetVC: what makes a one-checkpoint-per-process set
// consistent, asked of MaxConsistentSet with nothing to demote to.
func TestConsistentSetVC(t *testing.T) {
	pair := func(b *checkpoint.Checkpoint) map[string]*checkpoint.Checkpoint {
		return MaxConsistentSet(map[string][]*checkpoint.Checkpoint{
			"A": {ck("a", "A", vc("A", 1))},
			"B": {b},
		})
	}
	// B knows MORE about A (A:2) than A's own checkpoint remembers (A:1):
	// B's state reflects a rolled-back message — orphan, inconsistent.
	if pair(ck("b", "B", vc("A", 2, "B", 2))) != nil {
		t.Error("orphan-bearing set reported consistent")
	}
	// B knows exactly up to A's checkpoint: the message chain it reflects
	// is fully remembered by A — consistent, even though the clocks are
	// causally ordered.
	if pair(ck("b", "B", vc("A", 1, "B", 2))) == nil {
		t.Error("exact-knowledge set reported inconsistent")
	}
	// Concurrent: consistent.
	if pair(ck("b", "B", vc("B", 2))) == nil {
		t.Error("concurrent checkpoints reported inconsistent")
	}
	if set := MaxConsistentSet(nil); set == nil || len(set) != 0 {
		t.Errorf("no processes: got %v, want the empty (consistent) set", set)
	}
}

func TestMaxConsistentSetPicksLatestConsistent(t *testing.T) {
	// A's checkpoints: a0 {A:1}, a1 {A:5}.
	// B's checkpoints: b0 {B:1}, b1 {A:7,B:3}: b1 knows A up to 7 > 5, so
	// it reflects sends A has rolled back past — b1 must be demoted to b0.
	set := MaxConsistentSet(map[string][]*checkpoint.Checkpoint{
		"A": {ck("a0", "A", vc("A", 1)), ck("a1", "A", vc("A", 5))},
		"B": {ck("b0", "B", vc("B", 1)), ck("b1", "B", vc("A", 7, "B", 3))},
	})
	if got := lineIDs(set); got["A"] != "a1" || got["B"] != "b0" || len(got) != 2 {
		t.Errorf("set = %v, want a1/b0", got)
	}
	if !consistent(set) {
		t.Error("result inconsistent")
	}
}

func TestMaxConsistentSetKeepsExactKnowledge(t *testing.T) {
	// b1 knows exactly A:5 — no demotion needed; latest everywhere.
	set := MaxConsistentSet(map[string][]*checkpoint.Checkpoint{
		"A": {ck("a1", "A", vc("A", 5))},
		"B": {ck("b0", "B", vc("B", 1)), ck("b1", "B", vc("A", 5, "B", 3))},
	})
	if got := lineIDs(set); got["A"] != "a1" || got["B"] != "b1" {
		t.Errorf("set = %v, want a1/b1 (B demoted unnecessarily)", got)
	}
}

func TestMaxConsistentSetEmptyGroup(t *testing.T) {
	if MaxConsistentSet(map[string][]*checkpoint.Checkpoint{"A": {}}) != nil {
		t.Error("empty group should yield nil")
	}
}

func TestMaxConsistentSetNoSolution(t *testing.T) {
	// B's only checkpoint knows more about A than A's only checkpoint: no
	// demotion possible.
	lists := map[string][]*checkpoint.Checkpoint{
		"A": {ck("a0", "A", vc("A", 1))},
		"B": {ck("b0", "B", vc("A", 2, "B", 1))},
	}
	if got := MaxConsistentSet(lists); got != nil {
		t.Errorf("want nil, got %v", lineIDs(got))
	}
	// core.Respond's sentinel: an empty-clock "initial state" at the head of
	// every list is concurrent with everything, so a set always exists and
	// only the process that knows too much falls back to it.
	for p, list := range lists {
		lists[p] = append([]*checkpoint.Checkpoint{ck("", p, vclock.New())}, list...)
	}
	if got := lineIDs(MaxConsistentSet(lists)); got["A"] != "a0" || got["B"] != "" || len(got) != 2 {
		t.Errorf("with sentinels: set = %v, want A at a0 and B at its initial state", got)
	}
}

// TestMaxConsistentSetIsTheMaximum checks the selection exhaustively against
// the definition: for seeded random clocks over <= 4 processes x <= 4
// checkpoints, the chosen line is consistent and no consistent line is
// later for any process (the consistent lines form a lattice, so the
// maximum is unique); nil is returned exactly when no consistent line exists.
func TestMaxConsistentSetIsTheMaximum(t *testing.T) {
	names := []string{"A", "B", "C", "D"}
	for seed := int64(0); seed < 400; seed++ {
		r := rand.New(rand.NewSource(seed))
		procs := names[:1+r.Intn(4)]
		lists := make(map[string][]*checkpoint.Checkpoint, len(procs))
		for _, p := range procs {
			// Own components grow along a process's list; what it knows of
			// the others is arbitrary, which is what creates orphans.
			own := 0
			for i, n := 0, 1+r.Intn(4); i < n; i++ {
				own += 1 + r.Intn(3)
				clock := vc(p, own)
				for _, q := range procs {
					if q != p && r.Intn(2) == 0 {
						clock.Set(q, uint64(r.Intn(10)))
					}
				}
				lists[p] = append(lists[p], ck(p+string(rune('0'+i)), p, clock))
			}
		}
		got := MaxConsistentSet(lists)
		if got != nil && !consistent(got) {
			t.Fatalf("seed %d: chosen line %v is inconsistent", seed, lineIDs(got))
		}
		// Enumerate every line; a consistent one must be <= got everywhere.
		idx := make([]int, len(procs))
		for done := false; !done; {
			line := make(map[string]*checkpoint.Checkpoint, len(procs))
			for i, p := range procs {
				line[p] = lists[p][idx[i]]
			}
			if consistent(line) {
				if got == nil {
					t.Fatalf("seed %d: nil returned but %v is consistent", seed, lineIDs(line))
				}
				for i, p := range procs {
					if idx[i] > slices.Index(lists[p], got[p]) {
						t.Fatalf("seed %d: chose %v but consistent %v is later for %s", seed, lineIDs(got), lineIDs(line), p)
					}
				}
			}
			done = true
			for i, p := range procs {
				if idx[i]++; idx[i] < len(lists[p]) {
					done = false
					break
				}
				idx[i] = 0
			}
		}
	}
}

// TestQuickRecoveryLineProperties checks, for random executions, that the
// computed line is consistent, never exceeds the start, and is the *maximal*
// consistent line (raising any single process by one breaks consistency).
func TestQuickRecoveryLineProperties(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		procs := []string{"A", "B", "C", "D"}[:2+r.Intn(3)]
		nCkpt := map[string]int{}
		start := Line{}
		for _, p := range procs {
			nCkpt[p] = 1 + r.Intn(5)
			start[p] = nCkpt[p]
		}
		var msgs []Message
		for i := 0; i < r.Intn(20); i++ {
			from := procs[r.Intn(len(procs))]
			to := procs[r.Intn(len(procs))]
			if from == to {
				continue
			}
			msgs = append(msgs, Message{
				ID: "m", From: from, To: to,
				SendInterval: r.Intn(nCkpt[from] + 1),
				RecvInterval: r.Intn(nCkpt[to] + 1),
			})
		}
		rep := RecoveryLine(start, msgs)
		if !Consistent(rep.Line, msgs) {
			return false
		}
		for p, v := range rep.Line {
			if v > start[p] || v < 0 {
				return false
			}
		}
		// Maximality: bumping any rolled-back process by 1 must be
		// inconsistent or exceed start.
		for p, v := range rep.Line {
			if v < start[p] {
				bumped := rep.Line.Clone()
				bumped[p] = v + 1
				if Consistent(bumped, msgs) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestLineCloneString(t *testing.T) {
	l := Line{"B": 2, "A": 1}
	c := l.Clone()
	c["A"] = 9
	if l["A"] != 1 {
		t.Error("Clone aliased")
	}
	if got, want := l.String(), "line{A:1 B:2}"; got != want {
		t.Errorf("String = %q, want %q", got, want)
	}
}
