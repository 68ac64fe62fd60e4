package substrate

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"path/filepath"

	"repro/internal/checkpoint"
	"repro/internal/wal"
)

// durableStore is one live process's stable storage — the backend half of
// the Context.Durable… seam (see internal/dsim/durable.go for the model).
// The cells are the same checkpoint.Cells the simulator keeps; with a
// backing directory every put is additionally write-ahead logged onto
// internal/wal (segmented, checksummed, fsync'd appends), so the cells
// survive real process crashes: reopening the store replays the log, last
// record per key wins. A torn final record — the crash landed mid-append —
// is silently dropped by the WAL's recovery scan, losing at most the newest
// put; corruption anywhere earlier surfaces wal.ErrCorrupt instead of
// silently serving bad state.
//
// A deliberate rollback fences cells written at or after the restored
// checkpoint's scroll position (Cells.Fence, plus durable tombstones when
// backed), so a crash-restart that recovers this store cannot re-install an
// abandoned timeline's decision. In-memory stores still survive
// in-substrate crash-restart, matching the simulator's model.
//
// Checkpoints are not persisted, so a cell recovered from the log predates
// every checkpoint of the incarnation that recovered it: no rollback of
// that incarnation may fence it, and every line sees it. The cells are
// therefore stamped one past the writer's scroll position, which leaves
// stamp 0 to the recovered ones; put, fence and snapshotAt shift by one.
//
// Synchronization is the caller's: LiveSubstrate accesses a process's
// store under that process's mutex, like the scroll and heap.
type durableStore struct {
	cells checkpoint.Cells
	log   *wal.Log // nil = in-memory only (still survives in-substrate crash-restart)
}

// openDurableStore opens proc's stable storage. An empty dir selects the
// in-memory store; otherwise the WAL directory dir/proc is recovered —
// puts (either record format) install cells, tombstones delete them, in log
// order — and only then opened to append, so a corrupt log is refused
// untouched.
func openDurableStore(dir, proc string) (*durableStore, error) {
	ds := &durableStore{}
	if dir == "" {
		return ds, nil
	}
	path := filepath.Join(dir, proc)
	recs, err := wal.ReadAll(path)
	if err != nil {
		return nil, fmt.Errorf("substrate: recover durable store %s: %w", path, err)
	}
	for i, rec := range recs {
		r, err := decodeDurableRecord(rec)
		if err != nil {
			return nil, fmt.Errorf("substrate: recover durable store %s record %d: %w", path, i, err)
		}
		if r.tombstone {
			delete(ds.cells, r.key)
			continue
		}
		ds.cells.Put(r.key, r.value, 0)
	}
	if ds.log, err = wal.Open(path, wal.Options{Sync: true}); err != nil {
		return nil, err
	}
	return ds, nil
}

// put installs key = value stamped with the writer's scroll position and,
// when backed, appends it to the WAL together with that position and the
// timeline epoch of the write (part of the record format; recovery reads
// neither back). The cell keeps value, which the caller must not modify:
// the live context hands it the copy its scroll record holds.
func (ds *durableStore) put(key string, value []byte, epoch, writeSeq uint64) error {
	ds.cells.Put(key, value, writeSeq+1)
	if ds.log != nil {
		return ds.log.Append(encodeDurablePut(key, value, epoch, writeSeq))
	}
	return nil
}

// fence deletes the cells a deliberate rollback to scrollSeq abandons and,
// when backed, appends a tombstone per key (in sorted order) so the fence
// itself survives a crash.
func (ds *durableStore) fence(scrollSeq uint64) error {
	fenced := ds.cells.Fence(scrollSeq + 1)
	if ds.log == nil {
		return nil
	}
	for _, k := range fenced {
		if err := ds.log.Append(encodeDurableTombstone(k)); err != nil {
			return err
		}
	}
	return nil
}

// snapshotAt deep-copies the cells written strictly before scroll position
// seq, and every recovered cell.
func (ds *durableStore) snapshotAt(seq uint64) map[string][]byte {
	return ds.cells.SnapshotAt(seq + 1)
}

// close releases the WAL (no-op for the in-memory store).
func (ds *durableStore) close() error {
	if ds.log == nil {
		return nil
	}
	return ds.log.Close()
}

// Durable WAL record format. The original (legacy) format was
// uvarint-keylen | key | value, with no room for a version: any byte
// string is a plausible legacy record. Versioned records therefore open
// with a magic prefix no legacy record can start with — nine 0xFF bytes
// overflow binary.Uvarint, so a legacy decoder always rejected it — then
// a kind byte:
//
//	magic | 0 (put)       | uvarint epoch | uvarint writeSeq | uvarint keylen | key | value
//	magic | 1 (tombstone) | uvarint keylen | key
//
// Decode falls back to the legacy layout (a put with epoch 0, writeSeq 0
// — exactly what a pre-epoch run would have written), so stores recorded
// before the timeline fence recover unchanged.
var durableMagic = []byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01}

const (
	durKindPut       = 0
	durKindTombstone = 1
)

// durableRecord is one decoded WAL entry.
type durableRecord struct {
	tombstone bool
	key       string
	value     []byte
	epoch     uint64
	writeSeq  uint64
}

// encodeDurablePut renders a versioned put record.
func encodeDurablePut(key string, value []byte, epoch, writeSeq uint64) []byte {
	out := make([]byte, 0, len(durableMagic)+1+3*binary.MaxVarintLen64+len(key)+len(value))
	out = append(out, durableMagic...)
	out = append(out, durKindPut)
	out = binary.AppendUvarint(out, epoch)
	out = binary.AppendUvarint(out, writeSeq)
	out = binary.AppendUvarint(out, uint64(len(key)))
	out = append(out, key...)
	out = append(out, value...)
	return out
}

// encodeDurableTombstone renders a versioned tombstone record.
func encodeDurableTombstone(key string) []byte {
	out := make([]byte, 0, len(durableMagic)+1+binary.MaxVarintLen64+len(key))
	out = append(out, durableMagic...)
	out = append(out, durKindTombstone)
	out = binary.AppendUvarint(out, uint64(len(key)))
	out = append(out, key...)
	return out
}

// decodeDurableRecord parses one WAL payload in either format — the
// recovery decode path, hardened against arbitrary bytes (fuzzed by
// FuzzDurableRecordDecode).
func decodeDurableRecord(b []byte) (durableRecord, error) {
	var r durableRecord
	if rest, versioned := bytes.CutPrefix(b, durableMagic); versioned {
		if len(rest) == 0 {
			return durableRecord{}, fmt.Errorf("substrate: truncated durable record (no kind)")
		}
		kind := rest[0]
		b = rest[1:]
		switch kind {
		case durKindPut:
			var w int
			if r.epoch, w = binary.Uvarint(b); w <= 0 {
				return durableRecord{}, fmt.Errorf("substrate: malformed durable put (epoch)")
			}
			b = b[w:]
			if r.writeSeq, w = binary.Uvarint(b); w <= 0 {
				return durableRecord{}, fmt.Errorf("substrate: malformed durable put (write seq)")
			}
			b = b[w:]
		case durKindTombstone:
			r.tombstone = true
		default:
			return durableRecord{}, fmt.Errorf("substrate: unknown durable record kind %d", kind)
		}
	}
	// Every layout ends uvarint keylen | key | value; the legacy one is just
	// that, a put from before cells carried timeline coordinates. A
	// tombstone's value is empty.
	n, w := binary.Uvarint(b)
	if w <= 0 || uint64(len(b)-w) < n || r.tombstone && uint64(len(b)-w) != n {
		return durableRecord{}, fmt.Errorf("substrate: malformed durable record (key length %d, %d bytes)", n, len(b))
	}
	r.key = string(b[w : w+int(n)])
	if !r.tombstone {
		r.value = append([]byte(nil), b[w+int(n):]...)
	}
	return r, nil
}
