// Package vclock implements logical clocks for distributed executions:
// Lamport scalar clocks and vector clocks.
//
// FixD uses vector clocks to timestamp checkpoints and messages so that the
// Time Machine (paper §3.2) and the recovery-line algorithms (paper §4.2,
// Fig. 6) can decide whether two local states are causally consistent.
//
// # Representation
//
// A vector clock is dense: a Table — the sorted, immutable set of process
// IDs of one system — plus a []uint64 of counts aligned to it. Every clock
// of a simulation or a live substrate shares that system's one Table, so
// Tick is an indexed increment and Merge and Compare are index-aligned
// loops; two clocks on different tables (one of them decoded from a WAL or
// off the wire, say) meet in a sorted-merge slow path instead. A zero count
// and an absent ID are the same thing everywhere: in Compare, in String, in
// JSON and in the scroll encoding. That is what lets a table be a superset
// of the processes that ever tick.
//
// # Sharing and immutability
//
// VC is a pointer-sized handle, like the map it replaced: copying a VC
// value aliases the clock, Copy makes an independent one. A Table is never
// modified after NewTable returns, so any number of clocks and goroutines
// may share it; a clock that meets an ID outside its table re-homes itself
// on a new, larger table. The mutators (Tick, TickAt, Set, Merge, Reset)
// need a clock from New, Table.New or Copy and are not safe for concurrent
// use on one clock; the zero VC is a read-only empty clock.
//
// Clocks attached to scroll records, queued messages, checkpoints and
// fault records are snapshots: immutable by convention, shared freely, and
// — on the simulator — carved out of a run-scoped Arena so that taking one
// allocates nothing. Like everything run-scoped, an Arena's snapshots are
// invalid once the run is over and the arena rewound.
package vclock

import (
	"encoding/json"
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"

	"repro/internal/slab"
)

// Table is a sorted, duplicate-free, immutable set of process IDs: the
// index space shared by every clock of one system.
type Table struct {
	ids []string
}

// NewTable returns the table of the given IDs (copied, sorted, deduplicated).
func NewTable(ids ...string) *Table {
	ids = slices.Clone(ids)
	sort.Strings(ids)
	return &Table{ids: slices.Compact(ids)}
}

var emptyTable = &Table{}

// Index returns the position of id in the table, or -1 if it is absent.
func (t *Table) Index(id string) int {
	if i, ok := slices.BinarySearch(t.ids, id); ok {
		return i
	}
	return -1
}

// New returns a zero clock on the table.
func (t *Table) New() VC {
	return VC{&clock{tab: t, n: make([]uint64, len(t.ids))}}
}

// clock is what a VC handle points at: n[i] is the count of tab.ids[i].
type clock struct {
	tab *Table
	n   []uint64
}

// VC is a vector clock: for each process ID, the count of events that
// process has performed, as known to the clock's owner. See the package
// documentation for the representation and the sharing rules.
type VC struct {
	c *clock
}

// New returns an empty clock on an empty table; it grows a private table
// as IDs are ticked, set or merged into it.
func New() VC { return emptyTable.New() }

// FromSorted builds a clock from parallel slices in canonical form — ids
// strictly ascending, every count non-zero — and takes ownership of both.
// Anything else is an error: it is how decoders reject clock bytes no
// encoder produces.
func FromSorted(ids []string, counts []uint64) (VC, error) {
	if len(ids) != len(counts) {
		return VC{}, errors.New("vclock: ids and counts differ in length")
	}
	for i, id := range ids {
		if i > 0 && ids[i-1] >= id {
			return VC{}, fmt.Errorf("vclock: id %q out of order or duplicated", id)
		}
		if counts[i] == 0 {
			return VC{}, fmt.Errorf("vclock: zero count for %q", id)
		}
	}
	return VC{&clock{tab: &Table{ids: ids}, n: counts}}, nil
}

// Table returns the clock's ID table (nil for the zero VC).
func (v VC) Table() *Table {
	if v.c == nil {
		return nil
	}
	return v.c.tab
}

// Entries returns the clock's IDs, sorted, and the counts aligned to them.
// Both slices are shared with the clock (and the IDs with every clock on
// its table): read-only. Zero counts are absent entries.
func (v VC) Entries() (ids []string, counts []uint64) {
	if v.c == nil {
		return nil, nil
	}
	return v.c.tab.ids, v.c.n
}

// IsZero reports whether no component is set — true of the zero VC and of
// a fresh or Reset clock. It is what `json:",omitzero"` consults.
func (v VC) IsZero() bool {
	if v.c != nil {
		for _, n := range v.c.n {
			if n != 0 {
				return false
			}
		}
	}
	return true
}

// TickAt increments the component at table index i and returns the clock:
// Tick for callers that resolved their own index once (Table.Index).
func (v VC) TickAt(i int) VC {
	v.c.n[i]++
	return v
}

// Tick increments the component for process id and returns the clock.
func (v VC) Tick(id string) VC {
	v.c.n[v.slot(id)]++
	return v
}

// Get returns the component for process id (zero if absent).
func (v VC) Get(id string) uint64 {
	if v.c != nil {
		if i := v.c.tab.Index(id); i >= 0 {
			return v.c.n[i]
		}
	}
	return 0
}

// Set assigns the component for process id.
func (v VC) Set(id string, n uint64) {
	if n == 0 && v.c.tab.Index(id) < 0 {
		return // zero equals absent: nothing to grow the table for
	}
	v.c.n[v.slot(id)] = n
}

// slot returns the index of id, first re-homing the clock on a table
// widened by id if its own lacks it.
func (v VC) slot(id string) int {
	i, ok := slices.BinarySearch(v.c.tab.ids, id)
	if !ok {
		v.c.tab = &Table{ids: slices.Insert(slices.Clone(v.c.tab.ids), i, id)}
		v.c.n = slices.Insert(v.c.n, i, 0)
	}
	return i
}

// Reset zeroes every component in place, keeping the table.
func (v VC) Reset() { clear(v.c.n) }

// Copy returns an independent copy of the clock, on the same table.
func (v VC) Copy() VC {
	if v.c == nil {
		return New()
	}
	return VC{&clock{tab: v.c.tab, n: slices.Clone(v.c.n)}}
}

// Merge sets v to the component-wise maximum of v and o and returns v.
// Merge implements the "receive" rule of vector clocks.
func (v VC) Merge(o VC) VC {
	if o.c == nil {
		return v
	}
	if v.c.tab == o.c.tab {
		for i, n := range o.c.n {
			if n > v.c.n[i] {
				v.c.n[i] = n
			}
		}
		return v
	}
	// Different tables: walk both sorted ID lists in step. The first pass
	// folds in every component v's table already has a slot for; only if o
	// knows a process v's table lacks does the second re-home v on the union.
	vt, ot := v.c.tab.ids, o.c.tab.ids
	missing, i := 0, 0
	for j, n := range o.c.n {
		if n == 0 {
			continue
		}
		for i < len(vt) && vt[i] < ot[j] {
			i++
		}
		if i == len(vt) || vt[i] != ot[j] {
			missing++
		} else if n > v.c.n[i] {
			v.c.n[i] = n
		}
	}
	if missing == 0 {
		return v
	}
	ids := make([]string, 0, len(vt)+missing)
	cnt := make([]uint64, 0, len(vt)+missing)
	i = 0
	for j, n := range o.c.n {
		if n == 0 {
			continue
		}
		for i < len(vt) && vt[i] < ot[j] {
			ids, cnt = append(ids, vt[i]), append(cnt, v.c.n[i])
			i++
		}
		if i == len(vt) || vt[i] != ot[j] {
			ids, cnt = append(ids, ot[j]), append(cnt, n)
		}
	}
	ids, cnt = append(ids, vt[i:]...), append(cnt, v.c.n[i:]...)
	v.c.tab, v.c.n = &Table{ids: ids}, cnt
	return v
}

// Ordering is the causal relationship between two vector clocks.
type Ordering int

// Possible causal relationships.
const (
	Equal      Ordering = iota // identical clocks
	Before                     // strictly happens-before
	After                      // strictly happens-after
	Concurrent                 // causally unrelated
)

// String returns a human-readable name for the ordering.
func (o Ordering) String() string {
	switch o {
	case Equal:
		return "equal"
	case Before:
		return "before"
	case After:
		return "after"
	case Concurrent:
		return "concurrent"
	default:
		return fmt.Sprintf("Ordering(%d)", int(o))
	}
}

// Compare returns the causal ordering of v relative to o.
func (v VC) Compare(o VC) Ordering {
	var vLess, oLess bool // v has a strictly smaller / larger component
	vt, vn := v.Entries()
	ot, on := o.Entries()
	if v.Table() == o.Table() {
		for i, n := range vn {
			vLess = vLess || n < on[i]
			oLess = oLess || n > on[i]
		}
	} else {
		for i, j := 0, 0; i < len(vt) || j < len(ot); {
			var a, b uint64
			switch {
			case j == len(ot) || (i < len(vt) && vt[i] < ot[j]):
				a = vn[i]
				i++
			case i == len(vt) || ot[j] < vt[i]:
				b = on[j]
				j++
			default:
				a, b = vn[i], on[j]
				i++
				j++
			}
			vLess = vLess || a < b
			oLess = oLess || a > b
		}
	}
	switch {
	case vLess && oLess:
		return Concurrent
	case vLess:
		return Before
	case oLess:
		return After
	default:
		return Equal
	}
}

// HappensBefore reports whether v strictly precedes o causally.
func (v VC) HappensBefore(o VC) bool { return v.Compare(o) == Before }

// DominatesOrEqual reports whether v >= o component-wise (v "knows about"
// everything o knows about). This is the consistency test used when picking
// recovery lines: a cut is consistent iff each member's clock is not exceeded
// by what any peer believes about it.
func (v VC) DominatesOrEqual(o VC) bool {
	c := v.Compare(o)
	return c == Equal || c == After
}

// String renders the non-zero components deterministically, e.g. "{a:1 b:3}".
func (v VC) String() string {
	ids, counts := v.Entries()
	var b strings.Builder
	b.WriteByte('{')
	for i, n := range counts {
		if n == 0 {
			continue
		}
		if b.Len() > 1 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%s:%d", ids[i], n)
	}
	b.WriteByte('}')
	return b.String()
}

// MarshalJSON renders the clock as the JSON object a map[string]uint64 of
// its non-zero components marshals to (sorted keys), and the zero VC as null.
func (v VC) MarshalJSON() ([]byte, error) {
	if v.c == nil {
		return []byte("null"), nil
	}
	m := make(map[string]uint64, len(v.c.n))
	for i, n := range v.c.n {
		if n != 0 {
			m[v.c.tab.ids[i]] = n
		}
	}
	return json.Marshal(m)
}

// UnmarshalJSON is MarshalJSON's inverse: null gives the zero VC, an object
// a clock on a table of its own (duplicate keys: last wins, as for a map).
func (v *VC) UnmarshalJSON(b []byte) error {
	var m map[string]uint64
	if err := json.Unmarshal(b, &m); err != nil {
		return err
	}
	if m == nil {
		*v = VC{}
		return nil
	}
	ids := make([]string, 0, len(m))
	for id, n := range m {
		if n != 0 {
			ids = append(ids, id)
		}
	}
	sort.Strings(ids)
	counts := make([]uint64, len(ids))
	for i, id := range ids {
		counts[i] = m[id]
	}
	*v = VC{&clock{tab: &Table{ids: ids}, n: counts}}
	return nil
}

// Arena is the run-scoped allocator of clock snapshots: headers are carved
// from one slab, counts from another, so a snapshot costs no allocation of
// its own and a warm arena none at all. Snapshots are immutable and valid
// until Rewind, which invalidates every snapshot taken so far and hands
// their memory to the ones taken next. The zero Arena is ready to use.
type Arena struct {
	hdrs   slab.Slab[clock]
	counts slab.Slab[uint64]
}

// Snapshot returns an immutable copy of v carved from the arena.
func (a *Arena) Snapshot(v VC) VC {
	return VC{a.hdrs.Put(clock{tab: v.c.tab, n: a.counts.Copy(v.c.n)})}
}

// Rewind invalidates every snapshot taken so far; the next ones reuse
// their memory.
func (a *Arena) Rewind() {
	a.hdrs.Rewind()
	a.counts.Rewind()
}

// Lamport is a scalar logical clock (Lamport 1978). It provides a total
// order extension of happens-before, used by the Scroll to impose a global
// order on merged log records (paper §2.2).
type Lamport struct {
	t uint64
}

// Now returns the current clock value without advancing it.
func (l *Lamport) Now() uint64 { return l.t }

// Tick advances the clock for a local event and returns the new value.
func (l *Lamport) Tick() uint64 {
	l.t++
	return l.t
}

// Witness merges an observed remote timestamp and advances the clock,
// implementing the Lamport receive rule; it returns the new value.
func (l *Lamport) Witness(remote uint64) uint64 {
	if remote > l.t {
		l.t = remote
	}
	l.t++
	return l.t
}
