package checkpoint

import (
	"fmt"
	"reflect"
	"strconv"
	"testing"

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

func mkCkpt(proc string, clock vclock.VC) *Checkpoint {
	h := NewHeapPages(32, 16)
	return &Checkpoint{Proc: proc, Clock: clock, Snap: h.Snapshot()}
}

func TestStorePutGet(t *testing.T) {
	s := NewStore()
	c := mkCkpt("a", vc("a", 1))
	id := s.Put(c)
	if id == "" {
		t.Fatal("empty ID assigned")
	}
	if got := s.Get(id); got != c {
		t.Error("Get returned different checkpoint")
	}
	if s.Get("nope") != nil {
		t.Error("Get of missing ID should be nil")
	}
	// Explicit ID preserved.
	c2 := &Checkpoint{ID: "my-id", Proc: "a"}
	if got := s.Put(c2); got != "my-id" {
		t.Errorf("Put with explicit ID = %q", got)
	}
}

func TestStoreLatestAndList(t *testing.T) {
	s := NewStore()
	c1 := mkCkpt("a", vc("a", 1))
	c2 := mkCkpt("a", vc("a", 2))
	s.Put(c1)
	s.Put(c2)
	if got := s.Latest("a"); got != c2 {
		t.Error("Latest should be last put")
	}
	if s.Latest("missing") != nil {
		t.Error("Latest of unknown proc should be nil")
	}
	list := s.List("a")
	if len(list) != 2 || list[0] != c1 || list[1] != c2 {
		t.Error("List order wrong")
	}
}

func TestStoreProcsSorted(t *testing.T) {
	s := NewStore()
	s.Put(mkCkpt("zeta", vclock.VC{}))
	s.Put(mkCkpt("alpha", vclock.VC{}))
	got := s.Procs()
	if len(got) != 2 || got[0] != "alpha" || got[1] != "zeta" {
		t.Errorf("Procs = %v", got)
	}
}

func TestStoreRemove(t *testing.T) {
	s := NewStore()
	c := mkCkpt("a", vc("a", 1))
	id := s.Put(c)
	if !s.Remove(id) {
		t.Fatal("Remove existing returned false")
	}
	if s.Remove(id) {
		t.Error("double Remove returned true")
	}
	if s.Latest("a") != nil {
		t.Error("removed checkpoint still Latest")
	}
	if s.Len() != 0 {
		t.Errorf("Len = %d", s.Len())
	}
}

// TestStorePruneAfter: only the named process's checkpoints strictly past
// the scroll position go — the restored checkpoint itself, and any taken at
// the same position, stay.
func TestStorePruneAfter(t *testing.T) {
	s := NewStore()
	var ids []string
	for _, seq := range []uint64{0, 4, 4, 9, 12} {
		c := mkCkpt("a", vclock.VC{})
		c.ScrollSeq = seq
		ids = append(ids, s.Put(c))
	}
	other := mkCkpt("b", vclock.VC{})
	other.ScrollSeq = 50
	s.Put(other)
	s.PruneAfter("a", 4)
	var left []string
	for _, c := range s.List("a") {
		left = append(left, c.ID)
	}
	if !reflect.DeepEqual(left, ids[:3]) {
		t.Errorf("a keeps %v, want %v", left, ids[:3])
	}
	if s.Get(ids[3]) != nil || s.Get(ids[4]) != nil || s.Latest("a").ID != ids[2] {
		t.Errorf("pruned checkpoints still reachable: Latest = %s", s.Latest("a").ID)
	}
	if s.Latest("b") != other || s.Len() != 4 {
		t.Errorf("b touched: Latest = %v, Len = %d", s.Latest("b"), s.Len())
	}
	s.PruneAfter("nobody", 0) // unknown process: nothing to do
	// The freed slots are reusable: a later Put lands after the survivors.
	next := mkCkpt("a", vclock.VC{})
	next.ScrollSeq = 5
	if s.Put(next); s.Latest("a") != next || len(s.List("a")) != 4 {
		t.Errorf("Put after prune: list %v", s.List("a"))
	}
}

// TestStoreResolveLine: a line resolves to its checkpoints in sorted process
// order, or to the first bad entry's error with nothing returned.
func TestStoreResolveLine(t *testing.T) {
	s := NewStore()
	a, b := mkCkpt("a", vclock.VC{}), mkCkpt("b", vclock.VC{})
	s.Put(b)
	s.Put(a)
	got, err := s.ResolveLine(map[string]string{"b": b.ID, "a": a.ID})
	if err != nil || len(got) != 2 || got[0] != a || got[1] != b {
		t.Fatalf("ResolveLine = %v, %v; want [a b]", got, err)
	}
	if got, err := s.ResolveLine(nil); err != nil || len(got) != 0 {
		t.Errorf("empty line = %v, %v", got, err)
	}
	for name, line := range map[string]map[string]string{
		"unknown checkpoint":      {"a": a.ID, "b": "ckpt-b-99"},
		"another process's":       {"a": b.ID},
		"process it never stored": {"a": a.ID, "ghost": ""},
	} {
		if got, err := s.ResolveLine(line); err == nil || got != nil {
			t.Errorf("%s: ResolveLine = %v, %v; want an error", name, got, err)
		}
	}
}

// TestAssignedIDAllocatesOnlyTheID: inside the intern table an assigned ID
// is free once rendered; past it, IDs are carved from blocks of text — a
// thousand of them cost a handful of blocks, not an allocation each.
func TestAssignedIDAllocatesOnlyTheID(t *testing.T) {
	s := NewStore()
	if got := s.assignedID("kvprimary", maxInternedIDs+7); got != "ckpt-kvprimary-263" {
		t.Fatalf("assignedID = %q", got)
	}
	s.assignedID("kvprimary", 9)
	if n := testing.AllocsPerRun(100, func() { s.assignedID("kvprimary", 9) }); n != 0 {
		t.Errorf("interned ID: %v allocations, want 0", n)
	}
	const ids = 1000
	n := uint64(maxInternedIDs)
	got := testing.AllocsPerRun(1, func() {
		for range ids {
			n++
			s.assignedID("kvprimary", n)
		}
	})
	if got > ids/64 {
		t.Errorf("%d IDs past the intern table: %v allocations, want at most %d", ids, got, ids/64)
	}
}

// TestAssignedIDsOutliveReset: IDs leave the run that assigned them (inside
// artifacts and reports), so neither later checkpoints nor Reset may touch
// one — interned or carved past the table.
func TestAssignedIDsOutliveReset(t *testing.T) {
	s := NewStore()
	var got []string
	for i := 0; i < maxInternedIDs+200; i++ {
		got = append(got, s.Put(&Checkpoint{Proc: "p" + strconv.Itoa(i%3)}))
	}
	s.Reset()
	for i := 0; i < 10_000; i++ {
		s.Put(&Checkpoint{Proc: "q"})
	}
	s.Reset()
	for i, id := range got {
		if want := fmt.Sprintf("ckpt-p%d-%d", i%3, i+1); id != want {
			t.Fatalf("ID %d reads %q after 10k more and two Resets, want %q", i, id, want)
		}
	}
	if id := s.Put(&Checkpoint{Proc: "p0"}); id != got[0] {
		t.Errorf("first ID after Reset = %q, want %q again", id, got[0])
	}
}
