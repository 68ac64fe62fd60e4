package checkpoint

import (
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

func TestStorePruneBefore(t *testing.T) {
	s := NewStore()
	for i := 1; i <= 5; i++ {
		s.Put(mkCkpt("a", vc("a", i)))
	}
	s.Put(mkCkpt("b", vc("b", 1)))
	removed := s.PruneBefore(2)
	if removed != 3 {
		t.Errorf("removed = %d, want 3", removed)
	}
	if len(s.List("a")) != 2 {
		t.Errorf("a list = %d, want 2", len(s.List("a")))
	}
	if len(s.List("b")) != 1 {
		t.Errorf("b list = %d, want 1 (below keep)", len(s.List("b")))
	}
	if got := s.Latest("a").Clock.Get("a"); got != 5 {
		t.Errorf("latest a clock = %d, want 5", got)
	}
}

func TestLatestNotAfter(t *testing.T) {
	s := NewStore()
	c1 := mkCkpt("a", vc("a", 1))
	c2 := mkCkpt("a", vc("a", 5))
	c3 := mkCkpt("a", vc("a", 9))
	s.Put(c1)
	s.Put(c2)
	s.Put(c3)
	// Fault observed at {a:6}: c3 (a:9) is causally after, c2 (a:5) is not.
	got := s.LatestNotAfter("a", vc("a", 6))
	if got != c2 {
		t.Errorf("LatestNotAfter = %+v, want c2", got)
	}
	// Limit before everything: only nothing qualifies except... c1 has a:1 > a:0,
	// which is After, so nil.
	if got := s.LatestNotAfter("a", vclock.VC{}); got != nil {
		t.Errorf("LatestNotAfter(empty) = %+v, want nil", got)
	}
	if got := s.LatestNotAfter("zz", vc("a", 1)); got != nil {
		t.Error("unknown proc should be nil")
	}
}

// TestAssignedIDAllocatesOnlyTheID: inside the intern table an assigned ID
// is free once rendered; past it, the string is the one allocation.
func TestAssignedIDAllocatesOnlyTheID(t *testing.T) {
	s := NewStore()
	if got := s.assignedID("kvprimary", maxInternedIDs+7); got != "ckpt-kvprimary-263" {
		t.Fatalf("assignedID = %q", got)
	}
	s.assignedID("kvprimary", 9)
	if n := testing.AllocsPerRun(100, func() { s.assignedID("kvprimary", 9) }); n != 0 {
		t.Errorf("interned ID: %v allocations, want 0", n)
	}
	n := uint64(maxInternedIDs)
	if got := testing.AllocsPerRun(100, func() { n++; s.assignedID("kvprimary", n) }); got != 1 {
		t.Errorf("ID past the intern table: %v allocations, want 1", got)
	}
}
