package substrate

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"maps"
	"path/filepath"
	"slices"

	"repro/internal/checkpoint"
	"repro/internal/wal"
)

// durableStore is the write-ahead log under one live process's stable
// storage (see internal/dsim/durable.go for the model). The cells are the
// process's kernel's, as on every backend; with a backing directory every
// put is also logged onto internal/wal (segmented, checksummed, fsync'd
// appends), so the cells survive real process crashes: reopening the store
// puts what the log holds, one put per key, before every checkpoint of the
// new incarnation. A torn final record — the crash landed mid-append — is
// silently dropped by the WAL's recovery scan, losing at most the newest
// put; corruption anywhere earlier surfaces wal.ErrCorrupt instead of
// silently serving bad state.
//
// A deliberate rollback cuts the puts made after the restored checkpoint
// (Kernel.Abandon), and the store logs each key that changed (fence), so a
// crash-restart that recovers this store cannot re-install an abandoned
// timeline's decision. Without a directory nothing is logged: the
// cells still survive in-substrate crash-restart, as on the simulator.
//
// Synchronization is the caller's: LiveSubstrate accesses a process's
// store under that process's mutex, like the scroll, heap and cells.
type durableStore struct {
	log *wal.Log // nil = in-memory only
}

// openDurableStore opens proc's write-ahead log. An empty dir selects no
// log; otherwise the WAL directory dir/proc is folded — puts (either record
// format) set a key, tombstones delete it — into cells, key by key in
// sorted order, and only then opened to append, so a corrupt log is refused
// untouched.
func openDurableStore(dir, proc string, cells *checkpoint.Cells) (durableStore, error) {
	if dir == "" {
		return durableStore{}, nil
	}
	path := filepath.Join(dir, proc)
	recs, err := wal.ReadAll(path)
	if err != nil {
		return durableStore{}, fmt.Errorf("substrate: recover durable store %s: %w", path, err)
	}
	disk := map[string][]byte{}
	for i, rec := range recs {
		r, err := decodeDurableRecord(rec)
		if err != nil {
			return durableStore{}, fmt.Errorf("substrate: recover durable store %s record %d: %w", path, i, err)
		}
		if r.tombstone {
			delete(disk, r.key)
			continue
		}
		disk[r.key] = r.value
	}
	for _, k := range slices.Sorted(maps.Keys(disk)) {
		cells.Put(k, disk[k])
	}
	log, err := wal.Open(path, wal.Options{Sync: true})
	if err != nil {
		return durableStore{}, err
	}
	return durableStore{log: log}, nil
}

// put logs the write of key = value at scroll position writeSeq, together
// with the timeline epoch of the write (part of the record format;
// recovery reads neither back).
func (ds durableStore) put(key string, value []byte, epoch, writeSeq uint64) error {
	if ds.log == nil {
		return nil
	}
	return ds.log.Append(encodeDurablePut(key, value, epoch, writeSeq))
}

// fence logs each key a fence of cells changed, so the fence survives a
// crash: as a put of the value the key reads again, or a tombstone if none.
func (ds durableStore) fence(cells *checkpoint.Cells, changed []string) error {
	if ds.log == nil {
		return nil
	}
	for _, k := range changed {
		rec := encodeDurableTombstone(k)
		if v, ok := cells.Get(k); ok {
			rec = encodeDurablePut(k, v, 0, 0) // recovery reads no coordinates
		}
		if err := ds.log.Append(rec); err != nil {
			return err
		}
	}
	return nil
}

// close releases the WAL (no-op without one).
func (ds durableStore) close() error {
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
