package recovery

import (
	"math/rand"
	"testing"
	"testing/quick"

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

func TestInTransit(t *testing.T) {
	msgs := []Message{
		{ID: "kept", From: "A", To: "B", SendInterval: 0, RecvInterval: 1},
		{ID: "undone", From: "A", To: "B", SendInterval: 2, RecvInterval: 2},
	}
	line := Line{"A": 1, "B": 1}
	// "kept": send interval 0 < line 1 (preserved), recv interval 1 >= line 1 (undone) -> in transit.
	got := InTransit(line, msgs)
	if len(got) != 1 || got[0].ID != "kept" {
		t.Errorf("InTransit = %v", got)
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

func TestConsistentSetVC(t *testing.T) {
	// B knows MORE about A (A:2) than A's own checkpoint remembers (A:1):
	// B's state reflects a rolled-back message — orphan, inconsistent.
	a := CkptMeta{Proc: "A", Clock: vc("A", 1)}
	bTooNew := CkptMeta{Proc: "B", Clock: vc("A", 2, "B", 2)}
	if ConsistentSet([]CkptMeta{a, bTooNew}) {
		t.Error("orphan-bearing set reported consistent")
	}
	// B knows exactly up to A's checkpoint: the message chain it reflects
	// is fully remembered by A — consistent, even though the clocks are
	// causally ordered.
	bExact := CkptMeta{Proc: "B", Clock: vc("A", 1, "B", 2)}
	if !ConsistentSet([]CkptMeta{a, bExact}) {
		t.Error("exact-knowledge set reported inconsistent")
	}
	// Concurrent: consistent.
	c := CkptMeta{Proc: "B", Clock: vc("B", 2)}
	if !ConsistentSet([]CkptMeta{a, c}) {
		t.Error("concurrent checkpoints reported inconsistent")
	}
	if !ConsistentSet(nil) {
		t.Error("empty set should be consistent")
	}
}

func TestMaxConsistentSetPicksLatestConsistent(t *testing.T) {
	// A's checkpoints: a0 {A:1}, a1 {A:5}.
	// B's checkpoints: b0 {B:1}, b1 {A:7,B:3}: b1 knows A up to 7 > 5, so
	// it reflects sends A has rolled back past — b1 must be demoted to b0.
	ckpts := map[string][]CkptMeta{
		"A": {{ID: "a0", Proc: "A", Index: 0, Clock: vc("A", 1)},
			{ID: "a1", Proc: "A", Index: 1, Clock: vc("A", 5)}},
		"B": {{ID: "b0", Proc: "B", Index: 0, Clock: vc("B", 1)},
			{ID: "b1", Proc: "B", Index: 1, Clock: vc("A", 7, "B", 3)}},
	}
	set := MaxConsistentSet(ckpts)
	if set == nil {
		t.Fatal("no set found")
	}
	got := map[string]string{}
	for _, c := range set {
		got[c.Proc] = c.ID
	}
	if got["A"] != "a1" || got["B"] != "b0" {
		t.Errorf("set = %v, want a1/b0", got)
	}
	if !ConsistentSet(set) {
		t.Error("result inconsistent")
	}
}

func TestMaxConsistentSetKeepsExactKnowledge(t *testing.T) {
	// b1 knows exactly A:5 — no demotion needed; latest everywhere.
	ckpts := map[string][]CkptMeta{
		"A": {{ID: "a1", Proc: "A", Clock: vc("A", 5)}},
		"B": {{ID: "b0", Proc: "B", Clock: vc("B", 1)},
			{ID: "b1", Proc: "B", Clock: vc("A", 5, "B", 3)}},
	}
	set := MaxConsistentSet(ckpts)
	if set == nil {
		t.Fatal("no set found")
	}
	for _, c := range set {
		if c.Proc == "B" && c.ID != "b1" {
			t.Errorf("B demoted to %s unnecessarily", c.ID)
		}
	}
}

func TestMaxConsistentSetEmptyGroup(t *testing.T) {
	if MaxConsistentSet(map[string][]CkptMeta{"A": {}}) != nil {
		t.Error("empty group should yield nil")
	}
}

func TestMaxConsistentSetNoSolution(t *testing.T) {
	// B's only checkpoint knows more about A than A's only checkpoint: no
	// demotion possible.
	ckpts := map[string][]CkptMeta{
		"A": {{ID: "a0", Proc: "A", Clock: vc("A", 1)}},
		"B": {{ID: "b0", Proc: "B", Clock: vc("A", 2, "B", 1)}},
	}
	if got := MaxConsistentSet(ckpts); got != nil {
		t.Errorf("want nil, got %v", got)
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
