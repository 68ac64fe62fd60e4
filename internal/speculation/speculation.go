// Package speculation implements distributed speculations (paper §4.2),
// the mechanism FixD's Time Machine uses for lightweight, communication-
// induced checkpointing and coordinated rollback.
//
// A speculation is a computation based on an assumption whose verification
// proceeds in parallel. Entering a speculation saves a lightweight (COW)
// checkpoint. While speculating, a process may communicate; receivers of
// speculative data are *absorbed* into the speculation — they checkpoint
// before consuming the data and must roll back with the initiator if the
// assumption is invalidated. Commit releases everyone; abort rolls every
// member back to the checkpoint it took when it joined, after which each
// process may continue on an alternate execution path (the property that
// lets the Healer bypass the error, paper §4.2 difference (2)).
//
// The Manager here is only the bookkeeping. The simulator (dsim) takes the
// checkpoints, asks on delivery whom a message absorbs, and rolls back the
// line an abort computes through its one deliberate-rollback path.
package speculation

import (
	"errors"
	"fmt"
	"slices"
)

// Status is the lifecycle state of a speculation.
type Status int

// Speculation lifecycle states.
const (
	Active Status = iota
	Committed
	Aborted
)

// String returns the status name.
func (s Status) String() string {
	switch s {
	case Active:
		return "active"
	case Committed:
		return "committed"
	case Aborted:
		return "aborted"
	default:
		return fmt.Sprintf("Status(%d)", int(s))
	}
}

// member records one process's participation in a speculation.
type member struct {
	proc    string
	ckptID  string // checkpoint taken when joining
	at      uint64 // that checkpoint's scroll position
	joinSeq uint64 // global join order, used for cascade analysis
}

// Speculation is one speculative computation and its absorbed members.
type Speculation struct {
	ID         string
	Initiator  string
	Assumption string // human-readable description of the assumption
	Reason     string // set on abort: why the assumption was invalidated
	status     Status
	members    []member // initiator first, then absorption order
}

func (s *Speculation) memberOf(proc string) (member, bool) {
	for _, m := range s.members {
		if m.proc == proc {
			return m, true
		}
	}
	return member{}, false
}

// Stats are cumulative counters for experiments.
type Stats struct {
	Begun       uint64 // speculations started
	Commits     uint64
	Aborts      uint64 // includes cascaded aborts
	Absorptions uint64 // processes absorbed into foreign speculations
	Rollbacks   uint64 // individual process rollbacks performed
}

// Manager is the bookkeeping of the speculations of one simulated system:
// who joined what, at which checkpoint. It acts on no process — the caller
// takes the checkpoints it is handed, rolls back the lines Abort computes
// and reports every other rollback to Rewind — and it is not safe for
// concurrent use.
type Manager struct {
	specs   map[string]*Speculation
	active  map[string][]string // proc -> IDs of active specs it belongs to, join order
	live    int                 // active speculations
	joinSeq uint64
	nextID  uint64
	stats   Stats
}

// Errors returned by Manager operations.
var (
	ErrUnknownSpec = errors.New("speculation: unknown speculation")
	ErrNotActive   = errors.New("speculation: not active")
)

// NewManager returns a manager with no speculation.
func NewManager() *Manager {
	return &Manager{specs: make(map[string]*Speculation), active: make(map[string][]string)}
}

// Reset returns the manager to the state NewManager left it in, keeping its
// maps: a recycled simulation reuses its manager. Speculations handed out
// before Reset are no longer the manager's.
func (m *Manager) Reset() {
	clear(m.specs)
	clear(m.active)
	m.live, m.joinSeq, m.nextID, m.stats = 0, 0, 0, Stats{}
}

// Stats returns a copy of the cumulative counters.
func (m *Manager) Stats() Stats { return m.stats }

// Speculating reports whether any speculation is active: while none is, no
// delivery absorbs anyone.
func (m *Manager) Speculating() bool { return m.live > 0 }

// join makes proc a member of sp as of its checkpoint ckpt, taken at scroll
// position at.
func (m *Manager) join(sp *Speculation, proc, ckpt string, at uint64) {
	m.joinSeq++
	sp.members = append(sp.members, member{proc: proc, ckptID: ckpt, at: at, joinSeq: m.joinSeq})
	m.active[proc] = append(m.active[proc], sp.ID)
}

// Begin starts a speculation for proc based on the given assumption, from
// ckpt, the lightweight checkpoint the caller just took of proc at scroll
// position at. It returns the new speculation's ID.
func (m *Manager) Begin(proc, assumption, ckpt string, at uint64) string {
	m.nextID++
	sp := &Speculation{ID: fmt.Sprintf("spec-%d", m.nextID), Initiator: proc, Assumption: assumption, status: Active}
	m.join(sp, proc, ckpt, at)
	m.specs[sp.ID] = sp
	m.live++
	m.stats.Begun++
	return sp.ID
}

// Get returns the speculation with the given ID, or nil.
func (m *Manager) Get(id string) *Speculation { return m.specs[id] }

// Absorb makes to a member of every speculation that a message from sender,
// sent at its scroll position sent, absorbs it into: the active ones sender
// had joined by then and to has not. A speculation that committed since
// absorbs no one; one that aborted rolled sender back to its join position
// or before, which recalled the message. When there is one, take
// checkpoints to before it consumes the message (the communication-induced
// checkpoint of Fig. 6: "Each process saves a checkpoint before receiving a
// new message") and returns that checkpoint and its scroll position; it is
// called at most once.
func (m *Manager) Absorb(to, sender string, sent uint64, take func() (ckpt string, at uint64)) {
	var ckpt string
	var at uint64
	taken := false
	for _, id := range m.active[sender] {
		sp := m.specs[id]
		if mem, _ := sp.memberOf(sender); mem.at > sent {
			continue
		}
		if _, already := sp.memberOf(to); already {
			continue
		}
		if !taken {
			ckpt, at = take()
			taken = true
		}
		m.join(sp, to, ckpt, at)
		m.stats.Absorptions++
	}
}

// Rewind tells the manager that proc was rolled back to its scroll position
// at: it leaves every active speculation it joined past at, whose join
// checkpoint the rollback abandoned along with what it received there. A
// message re-delivered to it absorbs it anew.
func (m *Manager) Rewind(proc string, at uint64) {
	list := m.active[proc]
	kept := list[:0]
	for _, id := range list {
		sp := m.specs[id]
		if mem, _ := sp.memberOf(proc); mem.at <= at {
			kept = append(kept, id)
			continue
		}
		sp.members = slices.DeleteFunc(sp.members, func(x member) bool { return x.proc == proc })
	}
	clear(list[len(kept):])
	m.active[proc] = kept
}

// Commit validates the assumption of the speculation: all members are
// released and their checkpoints may be reclaimed by the caller.
func (m *Manager) Commit(id string) error {
	sp, err := m.lookup(id)
	if err != nil {
		return err
	}
	sp.status = Committed
	m.live--
	for _, mem := range sp.members {
		m.detach(mem.proc, id)
	}
	m.stats.Commits++
	return nil
}

// Abort invalidates the assumption. It computes the recovery line that
// undoes it, process -> checkpoint ID: every member of the speculation — and,
// transitively, every member of any speculation that depends on state later
// than the rollback point — at the checkpoint it took when it joined; a
// process on several doomed speculations, at the earliest of them. It hands
// the line to check, and only if check accepts it marks the doomed
// speculations aborted; the caller then rolls the line back. reason
// describes how the assumption was invalidated, for the processes to take an
// alternate execution path.
func (m *Manager) Abort(id, reason string, check func(line map[string]string) error) error {
	sp, err := m.lookup(id)
	if err != nil {
		return err
	}

	// Compute the closure of speculations invalidated by this abort: rolling
	// a process back below the point where it joined a later speculation
	// invalidates that speculation too.
	doomed := []*Speculation{sp}
	for i := 0; i < len(doomed); i++ {
		for _, mem := range doomed[i].members {
			for _, otherID := range m.active[mem.proc] {
				other := m.specs[otherID]
				if om, _ := other.memberOf(mem.proc); om.joinSeq > mem.joinSeq && !slices.Contains(doomed, other) {
					doomed = append(doomed, other)
				}
			}
		}
	}

	// Earliest rollback checkpoint per process across all doomed specs.
	rollTo := make(map[string]member)
	for _, d := range doomed {
		for _, mem := range d.members {
			if cur, ok := rollTo[mem.proc]; !ok || mem.joinSeq < cur.joinSeq {
				rollTo[mem.proc] = mem
			}
		}
	}
	line := make(map[string]string, len(rollTo))
	for proc, mem := range rollTo {
		line[proc] = mem.ckptID
	}
	if err := check(line); err != nil {
		return err
	}

	for _, d := range doomed {
		d.status, d.Reason = Aborted, fmt.Sprintf("cascaded abort of %s", id)
		for _, mem := range d.members {
			m.detach(mem.proc, d.ID)
		}
		m.live--
		m.stats.Aborts++
	}
	sp.Reason = reason
	m.stats.Rollbacks += uint64(len(line))
	return nil
}

// lookup returns the active speculation id.
func (m *Manager) lookup(id string) (*Speculation, error) {
	sp, ok := m.specs[id]
	switch {
	case !ok:
		return nil, fmt.Errorf("%w: %s", ErrUnknownSpec, id)
	case sp.status != Active:
		return nil, fmt.Errorf("%w: %s is %v", ErrNotActive, id, sp.status)
	}
	return sp, nil
}

// detach removes spec id from proc's active list.
func (m *Manager) detach(proc, id string) {
	list := m.active[proc]
	for i, x := range list {
		if x == id {
			m.active[proc] = append(list[:i], list[i+1:]...)
			return
		}
	}
}
