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
package speculation

import (
	"errors"
	"fmt"
	"sort"
	"sync"
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

// ProcessControl is the interface the speculation manager uses to act on
// processes. The simulator (and the live runtime) implement it; tests use
// fakes. TakeCheckpoint must capture the process's current state and return
// a checkpoint handle; Rollback must restore the process to that handle and
// give it the aborted speculation so it can choose an alternate path.
type ProcessControl interface {
	TakeCheckpoint(proc, specID string) (ckptID string, err error)
	Rollback(proc, ckptID string, aborted *Speculation) error
}

// member records one process's participation in a speculation.
type member struct {
	proc    string
	ckptID  string // checkpoint taken when joining
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

// Status returns the speculation's lifecycle state.
func (s *Speculation) Status() Status { return s.status }

// Members returns the IDs of all participating processes, initiator first.
func (s *Speculation) Members() []string {
	out := make([]string, len(s.members))
	for i, m := range s.members {
		out[i] = m.proc
	}
	return out
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

// Manager tracks all speculations in a (simulated or live) distributed
// system. It is safe for concurrent use.
type Manager struct {
	mu      sync.Mutex
	ctl     ProcessControl
	specs   map[string]*Speculation
	active  map[string][]string // proc -> IDs of active specs it belongs to, join order
	joinSeq uint64
	nextID  uint64
	stats   Stats
}

// Errors returned by Manager operations.
var (
	ErrUnknownSpec = errors.New("speculation: unknown speculation")
	ErrNotActive   = errors.New("speculation: not active")
)

// NewManager returns a manager that drives processes through ctl.
func NewManager(ctl ProcessControl) *Manager {
	return &Manager{ctl: ctl, specs: make(map[string]*Speculation), active: make(map[string][]string)}
}

// Reset returns the manager to the state NewManager left it in, keeping its
// maps: a recycled simulation reuses its manager. Speculations handed out
// before Reset are no longer the manager's.
func (m *Manager) Reset() {
	m.mu.Lock()
	defer m.mu.Unlock()
	clear(m.specs)
	clear(m.active)
	m.joinSeq, m.nextID, m.stats = 0, 0, Stats{}
}

// Stats returns a copy of the cumulative counters.
func (m *Manager) Stats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.stats
}

// Begin starts a speculation for proc based on the given assumption. The
// process is checkpointed immediately (the lightweight checkpoint enabling
// rollback). It returns the new speculation's ID.
func (m *Manager) Begin(proc, assumption string) (string, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.nextID++
	id := fmt.Sprintf("spec-%d", m.nextID)
	ckpt, err := m.ctl.TakeCheckpoint(proc, id)
	if err != nil {
		return "", fmt.Errorf("speculation: begin %s: %w", id, err)
	}
	m.joinSeq++
	sp := &Speculation{
		ID: id, Initiator: proc, Assumption: assumption, status: Active,
		members: []member{{proc: proc, ckptID: ckpt, joinSeq: m.joinSeq}},
	}
	m.specs[id] = sp
	m.active[proc] = append(m.active[proc], id)
	m.stats.Begun++
	return id, nil
}

// Get returns the speculation with the given ID, or nil.
func (m *Manager) Get(id string) *Speculation {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.specs[id]
}

// ActiveSpecs returns the IDs of active speculations proc belongs to, in
// join order. Outgoing messages from proc must be tagged with these IDs so
// receivers can be absorbed (speculative data propagation).
func (m *Manager) ActiveSpecs(proc string) []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]string(nil), m.active[proc]...)
}

// OnDeliver absorbs proc into every listed active speculation it is not
// already a member of. It must be called *before* the process consumes the
// message, because absorption checkpoints the pre-consumption state (the
// communication-induced checkpoint of Fig. 6: "Each process saves a
// checkpoint before receiving a new message").
func (m *Manager) OnDeliver(proc string, specIDs []string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, id := range specIDs {
		sp, ok := m.specs[id]
		if !ok {
			return fmt.Errorf("%w: %s", ErrUnknownSpec, id)
		}
		if sp.status != Active {
			// Message from a speculation that already resolved: if committed
			// the data is final and no absorption is needed; if aborted, the
			// simulator drops such messages before delivery.
			continue
		}
		if _, already := sp.memberOf(proc); already {
			continue
		}
		ckpt, err := m.ctl.TakeCheckpoint(proc, id)
		if err != nil {
			return fmt.Errorf("speculation: absorb %s into %s: %w", proc, id, err)
		}
		m.joinSeq++
		sp.members = append(sp.members, member{proc: proc, ckptID: ckpt, joinSeq: m.joinSeq})
		m.active[proc] = append(m.active[proc], id)
		m.stats.Absorptions++
	}
	return nil
}

// Commit validates the assumption of the speculation: all members are
// released and their checkpoints may be reclaimed by the caller.
func (m *Manager) Commit(id string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	sp, ok := m.specs[id]
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownSpec, id)
	}
	if sp.status != Active {
		return fmt.Errorf("%w: %s is %v", ErrNotActive, id, sp.status)
	}
	sp.status = Committed
	for _, mem := range sp.members {
		m.detach(mem.proc, id)
	}
	m.stats.Commits++
	return nil
}

// Abort invalidates the assumption. Every member of the speculation — and,
// transitively, every member of any speculation that depends on state later
// than the rollback point — is rolled back to the checkpoint it took when it
// joined. Each process is rolled back exactly once, to the earliest relevant
// checkpoint. reason describes how the assumption was invalidated and is
// passed to the processes so they can take an alternate execution path.
func (m *Manager) Abort(id, reason string) error {
	m.mu.Lock()
	sp, ok := m.specs[id]
	if !ok {
		m.mu.Unlock()
		return fmt.Errorf("%w: %s", ErrUnknownSpec, id)
	}
	if sp.status != Active {
		m.mu.Unlock()
		return fmt.Errorf("%w: %s is %v", ErrNotActive, id, sp.status)
	}
	sp.Reason = reason

	// Compute the closure of speculations invalidated by this abort: rolling
	// a process back below the point where it joined a later speculation
	// invalidates that speculation too.
	doomed := map[string]*Speculation{id: sp}
	queue := []*Speculation{sp}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, mem := range cur.members {
			for _, otherID := range m.active[mem.proc] {
				if _, seen := doomed[otherID]; seen {
					continue
				}
				other := m.specs[otherID]
				om, _ := other.memberOf(mem.proc)
				if om.joinSeq > mem.joinSeq {
					doomed[otherID] = other
					queue = append(queue, other)
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

	for _, d := range doomed {
		d.status = Aborted
		if d.Reason == "" {
			d.Reason = fmt.Sprintf("cascaded abort of %s", id)
		}
		for _, mem := range d.members {
			m.detach(mem.proc, d.ID)
		}
		m.stats.Aborts++
	}

	// Perform rollbacks in deterministic order, outside spec bookkeeping but
	// inside the lock so no new absorption interleaves.
	procs := make([]string, 0, len(rollTo))
	for p := range rollTo {
		procs = append(procs, p)
	}
	sort.Strings(procs)
	ctl := m.ctl
	m.stats.Rollbacks += uint64(len(procs))
	m.mu.Unlock()

	var firstErr error
	for _, p := range procs {
		if err := ctl.Rollback(p, rollTo[p].ckptID, sp); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("speculation: rollback %s: %w", p, err)
		}
	}
	return firstErr
}

// detach removes spec id from proc's active list. Caller holds mu.
func (m *Manager) detach(proc, id string) {
	list := m.active[proc]
	for i, x := range list {
		if x == id {
			m.active[proc] = append(list[:i], list[i+1:]...)
			return
		}
	}
}

// InSpeculation reports whether proc currently belongs to any active
// speculation.
func (m *Manager) InSpeculation(proc string) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.active[proc]) > 0
}
