package speculation

import (
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

// TestQuickSpeculationInvariants drives the manager with random operation
// sequences and checks structural invariants after every step:
//
//  1. a process lists a spec as active iff it is a member of it;
//  2. resolved (committed/aborted) specs never appear in any active list,
//     and Speculating reports whether any spec is active;
//  3. members of an active spec were checkpointed when they joined;
//  4. the line an abort returns names every member of every spec it
//     aborted, each at a checkpoint that process took.
func TestQuickSpeculationInvariants(t *testing.T) {
	procs := []string{"p0", "p1", "p2", "p3"}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		s := newSystem()
		var ids []string
		for step := 0; step < 40; step++ {
			switch r.Intn(5) {
			case 0: // begin
				ids = append(ids, s.begin(procs[r.Intn(len(procs))], "a"))
			case 1: // deliver a message, speculative or not
				from := procs[r.Intn(len(procs))]
				to := procs[r.Intn(len(procs))]
				if from == to {
					continue
				}
				s.message(from, to)
			case 2: // commit a random spec (may fail if resolved: fine)
				if len(ids) == 0 {
					continue
				}
				s.m.Commit(ids[r.Intn(len(ids))])
			case 3: // roll a random process back to an earlier position
				p := procs[r.Intn(len(procs))]
				if s.pos[p] == 0 {
					continue
				}
				s.pos[p] = uint64(r.Int63n(int64(s.pos[p])))
				s.m.Rewind(p, s.pos[p])
			default: // abort a random spec
				if len(ids) == 0 {
					continue
				}
				was := map[string]Status{}
				for _, id := range ids {
					was[id] = s.m.Get(id).status
				}
				line, err := s.abort(ids[r.Intn(len(ids))], "r")
				if err != nil {
					continue
				}
				// Invariant 4.
				for _, id := range ids {
					sp := s.m.Get(id)
					if was[id] != Active || sp.status != Aborted {
						continue
					}
					for _, p := range memberIDs(sp) {
						if !slices.Contains(s.took, p+"@"+line[p]) {
							return false
						}
					}
				}
			}
			live := 0
			// Invariant 1: every member of an active spec lists it.
			for _, id := range ids {
				if sp := s.m.Get(id); sp.status == Active {
					live++
					for _, mb := range sp.members {
						if !slices.Contains(s.active(mb.proc), id) {
							return false
						}
					}
				}
			}
			if s.m.Speculating() != (live > 0) {
				return false
			}
			// Invariant 2: active lists only reference active specs.
			for _, p := range procs {
				for _, id := range s.active(p) {
					sp := s.m.Get(id)
					if sp == nil || sp.status != Active {
						return false
					}
					// Invariant 3: membership implies its checkpoint was taken.
					mb, ok := sp.memberOf(p)
					if !ok || !slices.Contains(s.took, p+"@"+mb.ckptID) {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestQuickAbortClearsActiveLists: after aborting every spec, no process
// remains speculating, regardless of the absorption pattern, and every line
// names only checkpoints of its own processes.
func TestQuickAbortClearsActiveLists(t *testing.T) {
	procs := []string{"a", "b", "c"}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		s := newSystem()
		var ids []string
		for i := 0; i < 10; i++ {
			p := procs[r.Intn(len(procs))]
			ids = append(ids, s.begin(p, "x"))
			for j := 0; j < r.Intn(3); j++ {
				if to := procs[r.Intn(len(procs))]; to != p {
					s.message(p, to)
				}
			}
		}
		for _, id := range ids {
			line, _ := s.abort(id, "sweep") // cascades may have resolved some already
			for p, ck := range line {
				if !strings.HasSuffix(ck, "-"+p) {
					return false
				}
			}
		}
		for _, p := range procs {
			if len(s.active(p)) > 0 {
				return false
			}
		}
		return !s.m.Speculating()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
