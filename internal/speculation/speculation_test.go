package speculation

import (
	"errors"
	"fmt"
	"maps"
	"slices"
	"testing"
)

// memberIDs is the speculation's participants, initiator first.
func memberIDs(s *Speculation) []string {
	out := make([]string, len(s.members))
	for i, m := range s.members {
		out[i] = m.proc
	}
	return out
}

// system drives a Manager as the simulator does. Each process has a scroll
// position that every step it takes advances; the checkpoints it takes are
// named ck<N>-<proc>, N counting across processes, and sit at the position
// they were taken at.
type system struct {
	m    *Manager
	n    int
	pos  map[string]uint64
	took []string // "proc@ckpt", in the order taken
}

func newSystem() *system { return &system{m: NewManager(), pos: map[string]uint64{}} }

func (s *system) checkpoint(proc string) (string, uint64) {
	s.n++
	id, at := fmt.Sprintf("ck%d-%s", s.n, proc), s.pos[proc]
	s.pos[proc]++
	s.took = append(s.took, proc+"@"+id)
	return id, at
}

func (s *system) begin(proc, assumption string) string {
	ck, at := s.checkpoint(proc)
	return s.m.Begin(proc, assumption, ck, at)
}

// send returns the sender's position at the send.
func (s *system) send(from string) uint64 {
	at := s.pos[from]
	s.pos[from]++
	return at
}

// deliver hands to a message from sent at its position sent: the receiver
// checkpoints first when the message absorbs it, and deliver reports whether
// it did.
func (s *system) deliver(to, from string, sent uint64) (absorbed bool) {
	s.m.Absorb(to, from, sent, func() (string, uint64) {
		if absorbed {
			panic("Absorb took two checkpoints for one delivery")
		}
		absorbed = true
		return s.checkpoint(to)
	})
	s.pos[to]++
	return absorbed
}

// abort aborts spec id and returns the line Abort handed its check.
func (s *system) abort(id, reason string) (map[string]string, error) {
	var line map[string]string
	err := s.m.Abort(id, reason, func(l map[string]string) error {
		line = l
		return nil
	})
	if err != nil {
		return nil, err
	}
	return line, nil
}

// message sends from from to to and delivers it at once.
func (s *system) message(from, to string) { s.deliver(to, from, s.send(from)) }

// active is the IDs of the active speculations proc belongs to.
func (s *system) active(proc string) []string { return s.m.active[proc] }

func TestStatusString(t *testing.T) {
	for s, want := range map[Status]string{Active: "active", Committed: "committed", Aborted: "aborted", Status(7): "Status(7)"} {
		if got := s.String(); got != want {
			t.Errorf("Status(%d) = %q, want %q", int(s), got, want)
		}
	}
}

func TestBeginTakesCheckpoint(t *testing.T) {
	s := newSystem()
	if s.m.Speculating() {
		t.Error("a new manager is speculating")
	}
	id := s.begin("p1", "lock is free")
	sp := s.m.Get(id)
	if sp == nil || sp.Initiator != "p1" || sp.Assumption != "lock is free" {
		t.Fatalf("spec = %+v", sp)
	}
	if sp.status != Active || !s.m.Speculating() {
		t.Errorf("status = %v, speculating = %v", sp.status, s.m.Speculating())
	}
	if got := s.active("p1"); len(got) != 1 || got[0] != id {
		t.Errorf("active = %v", got)
	}
	// The initiator rolls back to the checkpoint it began from.
	line, err := s.abort(id, "no")
	if err != nil || !maps.Equal(line, map[string]string{"p1": "ck1-p1"}) {
		t.Errorf("line = %v, %v", line, err)
	}
	if s.m.Speculating() {
		t.Error("still speculating after the only speculation aborted")
	}
}

func TestAbsorption(t *testing.T) {
	s := newSystem()
	id := s.begin("p1", "a")
	sent := s.send("p1")
	s.deliver("p2", "p1", sent)
	members := memberIDs(s.m.Get(id))
	if len(members) != 2 || members[0] != "p1" || members[1] != "p2" {
		t.Errorf("members = %v", members)
	}
	// Absorption checkpoints p2 before it consumes the message.
	if !slices.Equal(s.took, []string{"p1@ck1-p1", "p2@ck2-p2"}) {
		t.Errorf("checkpoints = %v", s.took)
	}
	// Re-delivery does not double-absorb.
	if s.deliver("p2", "p1", sent) {
		t.Error("a member is absorbed again")
	}
	if got := s.m.Stats().Absorptions; got != 1 {
		t.Errorf("absorptions = %d", got)
	}
}

// TestAbsorptionOnlyAfterJoin: a message sent before its sender joined a
// speculation carries none of it.
func TestAbsorptionOnlyAfterJoin(t *testing.T) {
	s := newSystem()
	early := s.send("p1")
	s.begin("p1", "a")
	if s.deliver("p2", "p1", early) {
		t.Error("a message sent before the speculation began absorbs its receiver")
	}
	if !s.deliver("p2", "p1", s.send("p1")) {
		t.Error("a message sent after the speculation began does not absorb its receiver")
	}
	if s.deliver("p1", "p9", 0) {
		t.Error("a message from a process in no speculation absorbs its receiver")
	}
}

func TestAbsorptionTransitive(t *testing.T) {
	s := newSystem()
	id := s.begin("p1", "a")
	s.message("p1", "p2")
	// p2 now sends to p3; p3 must be absorbed into the same speculation.
	s.message("p2", "p3")
	members := memberIDs(s.m.Get(id))
	slices.Sort(members)
	if fmt.Sprint(members) != "[p1 p2 p3]" {
		t.Errorf("members = %v", members)
	}
}

func TestCommitReleasesMembers(t *testing.T) {
	s := newSystem()
	id := s.begin("p1", "a")
	s.message("p1", "p2")
	if err := s.m.Commit(id); err != nil {
		t.Fatal(err)
	}
	if s.m.Get(id).status != Committed {
		t.Error("not committed")
	}
	if len(s.active("p1")) > 0 || len(s.active("p2")) > 0 || s.m.Speculating() {
		t.Error("members not released")
	}
	// Commit twice fails.
	if err := s.m.Commit(id); !errors.Is(err, ErrNotActive) {
		t.Errorf("second commit err = %v", err)
	}
	if err := s.m.Commit("nope"); !errors.Is(err, ErrUnknownSpec) {
		t.Errorf("unknown commit err = %v", err)
	}
}

func TestAbortRollsBackAllMembers(t *testing.T) {
	s := newSystem()
	id := s.begin("p1", "remote will ack")
	s.message("p1", "p2")
	s.message("p1", "p3")
	line, err := s.abort(id, "ack timed out")
	if err != nil {
		t.Fatal(err)
	}
	sp := s.m.Get(id)
	if sp.status != Aborted || sp.Reason != "ack timed out" {
		t.Errorf("spec = %+v", sp)
	}
	// p1 took ck1, p2 ck2, p3 ck3.
	if want := map[string]string{"p1": "ck1-p1", "p2": "ck2-p2", "p3": "ck3-p3"}; !maps.Equal(line, want) {
		t.Errorf("line = %v, want %v", line, want)
	}
	if len(s.active("p1")) > 0 || len(s.active("p2")) > 0 || len(s.active("p3")) > 0 {
		t.Error("members still active after abort")
	}
}

func TestAbortCascadesToDependentSpecs(t *testing.T) {
	s := newSystem()
	s1 := s.begin("p1", "a1") // p1 ck1
	s.message("p1", "p2")     // p2 ck2 joins s1
	s2 := s.begin("p2", "a2") // p2 ck3 starts s2 *after* joining s1
	s.message("p2", "p3")     // p3 ck4 joins s2
	line, err := s.abort(s1, "bad")
	if err != nil {
		t.Fatal(err)
	}
	// s2 depends on p2's post-join state, so it must cascade-abort.
	if got := s.m.Get(s2); got.status != Aborted || got.Reason != "cascaded abort of "+s1 {
		t.Errorf("s2 = %v (%q), want aborted by the cascade", got.status, got.Reason)
	}
	// Each process is on the line once; p2 at its s1 join checkpoint (ck2),
	// NOT the later ck3.
	if want := map[string]string{"p1": "ck1-p1", "p2": "ck2-p2", "p3": "ck4-p3"}; !maps.Equal(line, want) {
		t.Errorf("line = %v, want %v", line, want)
	}
	if got := s.m.Stats(); got.Aborts != 2 || got.Rollbacks != 3 {
		t.Errorf("aborts = %d, rollbacks = %d, want 2 (incl. cascade) and 3", got.Aborts, got.Rollbacks)
	}
}

func TestAbortIndependentSpecUnaffected(t *testing.T) {
	s := newSystem()
	s1 := s.begin("p1", "a1")
	s2 := s.begin("p9", "unrelated")
	if _, err := s.abort(s1, "bad"); err != nil {
		t.Fatal(err)
	}
	if got := s.m.Get(s2).status; got != Active {
		t.Errorf("independent spec status = %v, want active", got)
	}
	if len(s.active("p1")) > 0 {
		t.Error("p1 still speculating")
	}
	if len(s.active("p9")) == 0 || !s.m.Speculating() {
		t.Error("p9 should still be speculating")
	}
}

func TestAbortEarlierSpecNotCascaded(t *testing.T) {
	// p1 joins s1 then starts s2. Aborting s2 must NOT abort s1 (s1's state
	// precedes s2's checkpoint).
	s := newSystem()
	s1 := s.begin("p1", "outer")
	s2 := s.begin("p1", "inner")
	line, err := s.abort(s2, "inner failed")
	if err != nil {
		t.Fatal(err)
	}
	if got := s.m.Get(s1).status; got != Active {
		t.Errorf("outer spec = %v, want active", got)
	}
	// p1 rolls back to the inner checkpoint (ck2).
	if want := map[string]string{"p1": "ck2-p1"}; !maps.Equal(line, want) {
		t.Errorf("line = %v, want %v", line, want)
	}
}

func TestOnDeliverResolvedSpecIgnored(t *testing.T) {
	s := newSystem()
	id := s.begin("p1", "a")
	sent := s.send("p1")
	s.m.Commit(id)
	if s.deliver("p2", "p1", sent) {
		t.Error("p2 is absorbed into a committed spec")
	}
	if len(s.active("p2")) > 0 || len(memberIDs(s.m.Get(id))) != 1 {
		t.Error("p2 absorbed into committed spec")
	}
}

func TestAbortErrors(t *testing.T) {
	s := newSystem()
	if _, err := s.abort("nope", "r"); !errors.Is(err, ErrUnknownSpec) {
		t.Errorf("unknown abort err = %v", err)
	}
	id := s.begin("p1", "a")
	s.abort(id, "once")
	if line, err := s.abort(id, "twice"); !errors.Is(err, ErrNotActive) || line != nil {
		t.Errorf("double abort = %v, %v", line, err)
	}
}

// TestAbortRejectedLineChangesNothing: when the caller cannot roll back the
// line, the abort leaves every speculation as it was.
func TestAbortRejectedLineChangesNothing(t *testing.T) {
	s := newSystem()
	s1 := s.begin("p1", "a1")
	s.message("p1", "p2")
	s2 := s.begin("p2", "a2")
	s.message("p2", "p3")
	before := s.m.Stats()
	refused := errors.New("line not resolvable")
	if err := s.m.Abort(s1, "bad", func(map[string]string) error { return refused }); err != refused {
		t.Fatalf("abort err = %v, want the check's", err)
	}
	for _, id := range []string{s1, s2} {
		if sp := s.m.Get(id); sp.status != Active || sp.Reason != "" {
			t.Errorf("%s = %v (%q) after a refused abort", id, sp.status, sp.Reason)
		}
	}
	if got := s.m.Stats(); got != before || !s.m.Speculating() {
		t.Errorf("stats = %+v, want %+v", got, before)
	}
	if want := []string{s1, s2}; !slices.Equal(s.active("p2"), want) {
		t.Errorf("p2 active = %v, want %v", s.active("p2"), want)
	}
	// The speculation can still be aborted, cascade and all.
	if line, err := s.abort(s1, "bad"); err != nil || len(line) != 3 {
		t.Errorf("abort after the refusal = %v, %v", line, err)
	}
}

// TestRewindLeavesLaterJoins: a process rolled back past the checkpoint it
// joined a speculation at leaves it, so that speculation's abort no longer
// names the abandoned checkpoint; a rollback to the join position keeps it.
func TestRewindLeavesLaterJoins(t *testing.T) {
	s := newSystem()
	s.send("p2")             // p2 is at 1 when it joins
	id := s.begin("p1", "a") // p1 ck1 at 0
	s.message("p1", "p2")    // p2 ck2 at 1
	s.m.Rewind("p1", 0)      // p1 back to its join position: still a member
	s.m.Rewind("p2", 0)      // p2 back past its join: leaves
	if got := memberIDs(s.m.Get(id)); !slices.Equal(got, []string{"p1"}) {
		t.Errorf("members = %v, want [p1]", got)
	}
	if len(s.active("p2")) > 0 {
		t.Errorf("p2 active = %v", s.active("p2"))
	}
	// A re-delivered message absorbs p2 anew.
	s.pos["p2"] = 0
	if !s.deliver("p2", "p1", 1) {
		t.Error("the re-delivered message does not absorb p2")
	}
	if line, err := s.abort(id, "no"); err != nil || !maps.Equal(line, map[string]string{"p1": "ck1-p1", "p2": "ck3-p2"}) {
		t.Errorf("line = %v, %v", line, err)
	}
}

func TestStatsCounters(t *testing.T) {
	s := newSystem()
	s1 := s.begin("p1", "a")
	s2 := s.begin("p2", "b")
	s.message("p1", "p3")
	s.m.Commit(s1)
	s.abort(s2, "r")
	st := s.m.Stats()
	if st.Begun != 2 || st.Commits != 1 || st.Aborts != 1 || st.Absorptions != 1 || st.Rollbacks != 1 {
		t.Errorf("stats = %+v", st)
	}
	s.m.Reset()
	if s.m.Stats() != (Stats{}) || s.m.Speculating() || s.m.Get(s1) != nil {
		t.Error("Reset left speculations behind")
	}
}
