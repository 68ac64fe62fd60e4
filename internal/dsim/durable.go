package dsim

import (
	"encoding/binary"
	"fmt"

	"repro/internal/scroll"
)

// Stable storage (Context.DurablePut/DurableGet/DurableKeys) models the
// one resource a crash cannot take away from a process: its disk. Each
// process owns a flat cell store that is written through the context and
// deliberately NOT rewound by crash-restart — which is what makes
// classically unrecoverable processes (a 2PC coordinator whose broadcast
// decision would otherwise be forgotten, a KV primary whose version
// assignments replicas already applied) genuinely crash-restartable (paper
// §3.1: liblog/Flashback-style durable logging). Deliberate rollbacks are
// fenced by the timeline epoch instead: a Time-Machine/heal restore or
// speculation abort abandons the timeline it rewinds, so cells written
// after the restored checkpoint are fenced (deleted) — a crash-restart that
// fires later recovers the restored timeline's cells, never the abandoned
// one's (checkpoint.Cells, which both backends keep). Between runs the
// store vanishes: Sim.Reset clears it along with the rest of the arena, so
// a pooled simulation starts every run exactly like a fresh one.
//
// Every durable operation is recorded in the process's scroll as a
// KindEnv record under the MsgIDs below, with the same payload encodings
// on both backends, so per-process replay (Replay) feeds the recorded
// outcomes back without the store being present.

// Scroll MsgIDs for stable-storage records. The live substrate records
// the identical identities, so replay treats both backends' scrolls
// uniformly.
const (
	DurablePutMsgID  = "durable:put"
	DurableGetMsgID  = "durable:get"
	DurableKeysMsgID = "durable:keys"
)

// EncodeDurableGet renders a DurableGet outcome as a scroll payload: a
// found byte (0/1) followed by the value when found.
func EncodeDurableGet(v []byte, ok bool) []byte {
	if !ok {
		return []byte{0}
	}
	out := make([]byte, 1+len(v))
	out[0] = 1
	copy(out[1:], v)
	return out
}

// DecodeDurableGet parses an EncodeDurableGet payload.
func DecodeDurableGet(b []byte) ([]byte, bool, error) {
	if len(b) == 0 {
		return nil, false, fmt.Errorf("dsim: empty durable-get record")
	}
	if b[0] == 0 {
		return nil, false, nil
	}
	return append([]byte(nil), b[1:]...), true, nil
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

// DurablePut implements Context: the cell is written to the process's
// stable store, stamped with the writer's scroll position, and the write is
// recorded in the scroll (cell and record share the one copy of value).
// Writes survive crash-restart; a deliberate rollback fences writes made
// after the restored checkpoint (a put on the new timeline revives the key).
func (c *simContext) DurablePut(key string, value []byte) {
	p := c.proc
	body := p.durable.Put(key, value, uint64(p.scroll.Len()))
	p.scroll.Append(scroll.Record{
		Kind: scroll.KindEnv, MsgID: DurablePutMsgID, Peer: key, Payload: body,
		Lamport: p.lamport.Now(), Clock: p.clockSnap(),
	})
}

// DurableGet implements Context, recording the outcome so replays observe
// the same value. Cells fenced by a deliberate rollback read as absent.
func (c *simContext) DurableGet(key string) ([]byte, bool) {
	p := c.proc
	v, ok := p.durable.Get(key)
	p.scroll.Append(scroll.Record{
		Kind: scroll.KindEnv, MsgID: DurableGetMsgID, Peer: key,
		Payload: EncodeDurableGet(v, ok),
		Lamport: p.lamport.Now(), Clock: p.clockSnap(),
	})
	if !ok {
		return nil, false
	}
	return append([]byte(nil), v...), true
}

// DurableKeys implements Context, recording the (sorted) key list.
func (c *simContext) DurableKeys() []string {
	p := c.proc
	keys := p.durable.Keys()
	p.scroll.Append(scroll.Record{
		Kind: scroll.KindEnv, MsgID: DurableKeysMsgID,
		Payload: EncodeDurableKeys(keys),
		Lamport: p.lamport.Now(), Clock: p.clockSnap(),
	})
	return keys
}

// DurableSnapshot returns a deep copy of every process's stable-storage
// cells, keyed proc -> key -> value. Processes with no cells are omitted; a
// run in which nothing was written returns nil. The snapshot is
// deterministic given the run, which is how chaos artifacts pin
// recovery-dependent outcomes in addition to the scroll digest.
func (s *Sim) DurableSnapshot() map[string]map[string][]byte {
	return s.snapshotCells(func(p *proc) map[string][]byte { return p.durable.Snapshot() })
}

// DurableSnapshotAt returns the cells as of a recovery line: for each
// process present in lineSeq, only cells written strictly before that
// process's line scroll position (the same boundary a rollback fences).
// Processes absent from the line — no checkpoint, so an investigation
// starts them from initial state — are omitted: a fresh timeline has
// written nothing. This is what the Investigator seeds its sandbox disks
// from, so exploration from a recovery line never observes cells the line's
// timeline had not yet written.
func (s *Sim) DurableSnapshotAt(lineSeq map[string]uint64) map[string]map[string][]byte {
	return s.snapshotCells(func(p *proc) map[string][]byte {
		seq, ok := lineSeq[p.id]
		if !ok {
			return nil
		}
		return p.durable.SnapshotAt(seq)
	})
}

// snapshotCells collects what cellsOf copies out of each process's stable
// storage, in process order, leaving out processes it returns nil for.
func (s *Sim) snapshotCells(cellsOf func(*proc) map[string][]byte) map[string]map[string][]byte {
	var out map[string]map[string][]byte
	for _, id := range s.order {
		cells := cellsOf(s.procs[id])
		if cells == nil {
			continue
		}
		if out == nil {
			out = make(map[string]map[string][]byte, len(s.order))
		}
		out[id] = cells
	}
	return out
}
