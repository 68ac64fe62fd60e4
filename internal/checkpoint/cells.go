package checkpoint

import (
	"math"
	"sort"
)

// Cells is one process's stable storage (Context.Durable…; the model is
// described in internal/dsim/durable.go): the in-memory cell map a
// dsim.Kernel holds on every backend, which the live backend also writes
// ahead to a log (substrate's durableStore). A restore never rewinds it —
// a disk outlives a crash — so each cell carries a stamp derived from the
// writer's scroll position, the coordinate checkpoints pin
// (Checkpoint.ScrollSeq; the kernel says how), and a deliberate rollback
// fences the abandoned timeline's writes by stamp (Fence), with no clock
// involved. The zero value is an empty store; clear empties it.
// Synchronization is the caller's.
type Cells map[string]cell

type cell struct {
	value []byte
	stamp uint64
}

// Put installs value under key with the given stamp.
// The store keeps value itself, not a copy: the caller hands over a copy it
// made — and may record the write with the same bytes — and nobody may
// modify it afterwards.
func (c *Cells) Put(key string, value []byte, stamp uint64) {
	if *c == nil {
		*c = make(Cells)
	}
	(*c)[key] = cell{value: value, stamp: stamp}
}

// Get returns the stored value (not a copy) and whether the key is present.
func (c Cells) Get(key string) ([]byte, bool) {
	cl, ok := c[key]
	return cl.value, ok
}

// Keys returns the sorted keys.
func (c Cells) Keys() []string {
	keys := make([]string, 0, len(c))
	for k := range c {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Snapshot deep-copies every cell (nil when there is none).
func (c Cells) Snapshot() map[string][]byte { return c.SnapshotAt(math.MaxUint64) }

// SnapshotAt deep-copies the cells stamped strictly before stamp (nil when
// there is none) — the boundary Fence cuts at, so "as of this checkpoint"
// means the same thing to a rollback and to an investigation seeded from
// one.
func (c Cells) SnapshotAt(stamp uint64) map[string][]byte {
	var out map[string][]byte
	for k, cl := range c {
		if cl.stamp >= stamp {
			continue
		}
		if out == nil {
			out = make(map[string][]byte, len(c))
		}
		out[k] = append([]byte(nil), cl.value...)
	}
	return out
}

// Fence is the cell half of timeline fencing: it deletes every cell stamped
// at or after stamp — the writes of the timeline a deliberate rollback
// abandons, which a later crash-restart must not find — and returns their
// keys, sorted. A put on the new timeline revives a key. Crash-restart
// recovery never fences: there the disk is the authoritative recovery
// source and nothing is abandoned.
func (c Cells) Fence(stamp uint64) []string {
	var fenced []string
	for k, cl := range c {
		if cl.stamp >= stamp {
			fenced = append(fenced, k)
		}
	}
	sort.Strings(fenced)
	for _, k := range fenced {
		delete(c, k)
	}
	return fenced
}
