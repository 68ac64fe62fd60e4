package dsim

import (
	"encoding/binary"
	"fmt"
	"iter"

	"repro/internal/checkpoint"
)

// Stable storage (Context.DurablePut/DurableGet/DurableKeys) models the
// one resource a crash cannot take away from a process: its disk. Each
// process's kernel owns the puts it made, in order (Kernel.cells), written
// through the context and deliberately NOT rewound by a restore — which is
// what makes classically unrecoverable processes (a 2PC coordinator whose
// broadcast decision would otherwise be forgotten, a KV primary whose
// version assignments replicas already applied) genuinely
// crash-restartable (paper §3.1: liblog/Flashback-style durable logging).
// A checkpoint records how many puts there were (Checkpoint.Disk): the one
// coordinate for the disk as of it (Cells.At), whatever a crash-restart
// rewound in between. A deliberate rollback (Time Machine, heal, injected,
// speculation abort) abandons the timeline it rewinds, so Kernel.Abandon
// cuts the puts made after the restored checkpoint (Cells.Fence) — a
// crash-restart that fires later recovers the restored timeline's cells,
// never the abandoned one's. The simulator keeps the cells only in memory,
// and Sim.Reset clears them along with the rest of the arena, so a pooled
// simulation starts every run exactly like a fresh one; the live substrate
// also writes them ahead to a log on disk.
//
// Every durable operation is recorded in the process's scroll as a
// KindEnv record under the MsgIDs below, with the same payload encodings
// on every backend, so per-process replay (Replay) feeds the recorded
// outcomes back without the store being present.

// Scroll MsgIDs for stable-storage records. The live substrate records
// the identical identities, so replay treats both backends' scrolls
// uniformly.
const (
	DurablePutMsgID  = "durable:put"
	DurableGetMsgID  = "durable:get"
	DurableKeysMsgID = "durable:keys"
)

// EncodeDurableGet renders a DurableGet outcome as a scroll payload: 0
// alone for a miss, 1 followed by the value for a hit.
func EncodeDurableGet(v []byte, ok bool) []byte {
	if !ok {
		return []byte{0}
	}
	out := make([]byte, 1+len(v))
	out[0] = 1
	copy(out[1:], v)
	return out
}

// DecodeDurableGet parses an EncodeDurableGet payload, and nothing else: a
// record damaged on disk is refused, not misread.
func DecodeDurableGet(b []byte) ([]byte, bool, error) {
	switch {
	case len(b) == 1 && b[0] == 0:
		return nil, false, nil
	case len(b) > 0 && b[0] == 1:
		return append([]byte(nil), b[1:]...), true, nil
	}
	return nil, false, fmt.Errorf("dsim: malformed durable-get record % x", b[:min(len(b), 8)])
}

// EncodeDurableKeys renders a DurableKeys outcome as a scroll payload:
// uvarint-length-prefixed keys, concatenated.
func EncodeDurableKeys(keys []string) []byte {
	var out []byte
	for _, k := range keys {
		out = binary.AppendUvarint(out, uint64(len(k)))
		out = append(out, k...)
	}
	return out
}

// DecodeDurableKeys parses an EncodeDurableKeys payload.
func DecodeDurableKeys(b []byte) ([]string, error) {
	var keys []string
	for len(b) > 0 {
		n, w := binary.Uvarint(b)
		if w <= 0 || uint64(len(b)-w) < n {
			return nil, fmt.Errorf("dsim: malformed durable-keys record")
		}
		keys = append(keys, string(b[w:w+int(n)]))
		b = b[w+int(n):]
	}
	return keys, nil
}

// DurablePut writes key = value to the process's cells and records it
// (RecordDurablePut). Writes survive crash-restart; a deliberate rollback
// fences writes made after the restored checkpoint (a put on the new
// timeline revives the key). On the simulator the value is carved from the
// run's payload slab: Reset empties the cells before it rewinds the slab.
func (k *Kernel) DurablePut(key string, value []byte) { k.RecordDurablePut(key, value) }

// DurableGet reads a cell, recording the outcome so replays observe the
// same value. Cells fenced by a deliberate rollback read as absent.
func (k *Kernel) DurableGet(key string) ([]byte, bool) {
	v, ok := k.cells.Get(key)
	return k.RecordDurableGet(key, v, ok)
}

// DurableKeys returns the sorted keys of the process's cells, recorded.
func (k *Kernel) DurableKeys() []string { return k.RecordDurableKeys(k.cells.Keys()) }

// Cells returns the process's cells, for a backend to recover them from
// disk, an explorer to seed and copy them, and a snapshot to read them.
func (k *Kernel) Cells() *checkpoint.Cells { return &k.cells }

// DurableSnapshot returns Disks of the simulation's processes.
func (s *Sim) DurableSnapshot() map[string]map[string][]byte { return disks(s.kernels(), nil, false) }

// DurableSnapshotAt returns DisksAt of the simulation's processes.
func (s *Sim) DurableSnapshotAt(line map[string]*checkpoint.Checkpoint) map[string]map[string][]byte {
	return disks(s.kernels(), line, true)
}

// Disks returns a deep copy of the stable-storage cells of the kernels procs
// yields, keyed proc -> key -> value, each read while it is yielded.
// Processes with no cells are omitted; a run in which nothing was written
// returns nil. The snapshot is deterministic given the run, which is how
// chaos artifacts pin recovery-dependent outcomes in addition to the scroll
// digest.
func Disks(procs iter.Seq[*Kernel]) map[string]map[string][]byte { return disks(procs, nil, false) }

// DisksAt returns the cells as of a recovery line: for each process on the
// line, the cells as its checkpoint saw them (Cells.At its Disk, the same
// boundary a rollback to it fences). Processes off the line are omitted.
// This is what the Investigator seeds its explored disks from, so
// exploration from a recovery line never observes cells the line's
// timeline had not yet written.
func DisksAt(procs iter.Seq[*Kernel], line map[string]*checkpoint.Checkpoint) map[string]map[string][]byte {
	return disks(procs, line, true)
}

// disks is DisksAt when at is set, Disks otherwise. The simulator calls it
// directly: inlined there with its iterator, it allocates nothing but the
// snapshot.
func disks(procs iter.Seq[*Kernel], line map[string]*checkpoint.Checkpoint, at bool) map[string]map[string][]byte {
	var out map[string]map[string][]byte
	for k := range procs {
		n := k.cells.Len()
		if ck, ok := line[k.id]; ok {
			n = ck.Disk
		} else if at {
			continue
		}
		if cells := k.cells.At(n); cells != nil {
			if out == nil {
				out = make(map[string]map[string][]byte)
			}
			out[k.id] = cells
		}
	}
	return out
}
