package checkpoint

import (
	"encoding/json"
	"fmt"
	"sort"
	"strconv"
	"sync"

	"repro/internal/slab"
	"repro/internal/vclock"
)

// Checkpoint is a recorded local state of one process: the heap snapshot
// plus the metadata needed to place it in the global execution (vector
// clock, scroll position, virtual time). The Time Machine assembles sets of
// these into globally consistent recovery lines (paper §3.2).
type Checkpoint struct {
	ID        string    // unique within a store
	Proc      string    // owning process
	Clock     vclock.VC // vector time when taken
	ScrollSeq uint64    // scroll position when taken (for log truncation/replay)
	Time      uint64    // virtual time when taken
	Snap      *Snapshot // heap contents
	// Extra is the serialized non-heap (machine) state, opaque to the store:
	// Codec's binary encoding when Codec is set, JSON otherwise. Read it
	// through StateJSON.
	Extra  []byte
	Codec  *StateCodec // what encoded Extra; nil when Extra already is JSON
	SpecID string      // speculation that induced this checkpoint, if any
	Timers []string    // names of timers pending when the checkpoint was taken
}

// StateJSON returns the checkpointed machine state as the JSON
// json.Marshal produced (or would have produced) from the machine's
// State() when the checkpoint was taken. This is the one place a
// binary-encoded state becomes JSON: the encoding is decoded into a fresh
// value of the state's type and that value is marshaled. The result must
// not be modified.
func (c *Checkpoint) StateJSON() ([]byte, error) {
	if c.Codec == nil {
		return c.Extra, nil
	}
	state, err := c.Codec.Decode(c.Extra)
	if err != nil {
		return nil, err
	}
	return json.Marshal(state)
}

// RestoreState is the Time Machine's restore decision: the one place
// checkpointed state bytes (JSON — what StateJSON returns, or a Healer
// mapper's output) become machine state. dst is the Machine's State()
// pointer. Every restore path of both backends, the Investigator's sandbox
// and the Healer's type-safety probe load through it.
//
// The bytes are unmarshaled INTO the live value, and encoding/json keeps the
// entries of a non-nil map it decodes into: a restored process keeps map
// keys it wrote after the checkpoint (scalars and slices restore exactly).
// Every committed digest depends on that overlay, so it is preserved
// exactly, pinned by dsim's TestRestoreOverlaysLiveMaps; making the restore
// exact (ROADMAP item 1) is a change to this function plus regenerated
// fixtures.
func RestoreState(state []byte, dst any) error {
	return json.Unmarshal(state, dst)
}

// Store keeps the checkpoints of one or more processes. It is safe for
// concurrent use.
type Store struct {
	mu     sync.Mutex
	byID   map[string]*Checkpoint
	byProc map[string][]*Checkpoint // in Put order, oldest first
	nextID uint64
	// ids interns the IDs Put assigns, by process and number: a recycled
	// simulation assigns the same "ckpt-<proc>-<n>" run after run. It
	// survives Reset. The number is the store's one counter, not a count per
	// process, so the table covers the first maxInternedIDs checkpoints of a
	// run, whoever takes them: each process's slice is indexed by that number
	// and holds an ID only where the process took the checkpoint (at most
	// maxInternedIDs slots a process, mostly empty when there are many).
	ids map[string][]string
	// text is what assigned IDs are carved from, interned or not.
	text slab.Text
}

// maxInternedIDs is how many checkpoints of a run, counted across all
// processes, get their assigned ID remembered; those numbered beyond it get
// a freshly rendered one.
const maxInternedIDs = 256

// NewStore returns an empty checkpoint store.
func NewStore() *Store {
	return &Store{
		byID:   make(map[string]*Checkpoint),
		byProc: make(map[string][]*Checkpoint),
		ids:    make(map[string][]string),
	}
}

// Put stores a checkpoint. If c.ID is empty an ID is assigned. It returns
// the stored checkpoint's ID.
func (s *Store) Put(c *Checkpoint) string {
	s.mu.Lock()
	defer s.mu.Unlock()
	if c.ID == "" {
		s.nextID++
		c.ID = s.assignedID(c.Proc, s.nextID)
	}
	s.byID[c.ID] = c
	s.byProc[c.Proc] = append(s.byProc[c.Proc], c)
	return c.ID
}

// assignedID returns "ckpt-<proc>-<n>", from the intern table when n is
// small enough to be remembered. Past the table it is rendered in a stack
// array (a process name too long for it spills) and carved from a block of
// ID text: an allocation per block, not per checkpoint. Caller holds mu.
func (s *Store) assignedID(proc string, n uint64) string {
	ids := s.ids[proc]
	if n < uint64(len(ids)) && ids[n] != "" {
		return ids[n]
	}
	var arr [64]byte
	buf := append(arr[:0], "ckpt-"...)
	buf = append(buf, proc...)
	buf = append(buf, '-')
	id := s.text.Carve(strconv.AppendUint(buf, n, 10))
	if n < maxInternedIDs {
		if n >= uint64(len(ids)) {
			ids = append(ids, make([]string, n+1-uint64(len(ids)))...)
			s.ids[proc] = ids
		}
		ids[n] = id
	}
	return id
}

// Reset empties the store and rewinds ID assignment, so a recycled
// simulation assigns the same checkpoint IDs as a fresh one — checkpoint
// IDs appear in scroll records, so replay digests depend on them. The
// per-process lists keep their capacity and the rendered IDs stay interned.
func (s *Store) Reset() {
	s.mu.Lock()
	defer s.mu.Unlock()
	clear(s.byID)
	for proc, list := range s.byProc {
		clear(list)
		s.byProc[proc] = list[:0]
	}
	s.nextID = 0
}

// Get returns the checkpoint with the given ID, or nil.
func (s *Store) Get(id string) *Checkpoint {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.byID[id]
}

// Latest returns the most recently stored checkpoint for proc, or nil.
func (s *Store) Latest(proc string) *Checkpoint {
	s.mu.Lock()
	defer s.mu.Unlock()
	list := s.byProc[proc]
	if len(list) == 0 {
		return nil
	}
	return list[len(list)-1]
}

// List returns proc's checkpoints oldest-first.
func (s *Store) List(proc string) []*Checkpoint {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*Checkpoint, len(s.byProc[proc]))
	copy(out, s.byProc[proc])
	return out
}

// Procs returns the sorted list of processes with at least one checkpoint.
func (s *Store) Procs() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	procs := make([]string, 0, len(s.byProc))
	for p, list := range s.byProc {
		if len(list) > 0 {
			procs = append(procs, p)
		}
	}
	sort.Strings(procs)
	return procs
}

// Len returns the total number of stored checkpoints.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.byID)
}

// Remove deletes the checkpoint with the given ID. It reports whether the
// checkpoint existed.
func (s *Store) Remove(id string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	c, ok := s.byID[id]
	if !ok {
		return false
	}
	delete(s.byID, id)
	list := s.byProc[c.Proc]
	for i, x := range list {
		if x.ID == id {
			s.byProc[c.Proc] = append(list[:i], list[i+1:]...)
			break
		}
	}
	return true
}

// PruneAfter removes proc's checkpoints taken strictly after scrollSeq —
// the prune half of timeline fencing. A deliberate rollback to a checkpoint
// at scrollSeq abandons everything the process did past it; the later
// checkpoints snapshot that abandoned timeline, and Latest must not hand
// them to a subsequent crash-restart. Stable-storage cells are fenced at
// the same coordinate (Cells.Fence).
func (s *Store) PruneAfter(proc string, scrollSeq uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	list := s.byProc[proc]
	kept := list[:0]
	for _, c := range list {
		if c.ScrollSeq > scrollSeq {
			delete(s.byID, c.ID)
			continue
		}
		kept = append(kept, c)
	}
	clear(list[len(kept):])
	s.byProc[proc] = kept
}

// ResolveLine is the Time Machine's resolution decision: it turns a
// caller's recovery line (process -> checkpoint ID) into the checkpoints
// themselves, in sorted process order, or reports the first entry that
// names no stored checkpoint or another process's. Both backends' RollbackTo
// and the Healer resolve through it before anything is touched.
func (s *Store) ResolveLine(line map[string]string) ([]*Checkpoint, error) {
	procs := make([]string, 0, len(line))
	for proc := range line {
		procs = append(procs, proc)
	}
	sort.Strings(procs)
	s.mu.Lock()
	defer s.mu.Unlock()
	cks := make([]*Checkpoint, len(procs))
	for i, proc := range procs {
		ck := s.byID[line[proc]]
		if ck == nil {
			return nil, fmt.Errorf("checkpoint: unknown checkpoint %q for %s", line[proc], proc)
		}
		if ck.Proc != proc {
			return nil, fmt.Errorf("checkpoint: checkpoint %q belongs to %s, not %s", line[proc], ck.Proc, proc)
		}
		cks[i] = ck
	}
	return cks, nil
}
