package substrate

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"repro/internal/wal"
)

// TestDurableStoreRecovery: reopening a WAL-backed store replays the log,
// last record per key winning, with each cell's write position recovered
// alongside its value (the epoch is in the record — see
// TestDurableRecordRoundTrip — and nothing reads it back).
func TestDurableStoreRecovery(t *testing.T) {
	dir := t.TempDir()
	ds, err := openDurableStore(dir, "coord")
	if err != nil {
		t.Fatal(err)
	}
	puts := []struct {
		k, v            string
		epoch, writeSeq uint64
	}{
		{"k1", "v1", 0, 3},
		{"k2", "v2", 1, 7},
		{"k1", "v3", 2, 11},
	}
	for _, p := range puts {
		if err := ds.put(p.k, []byte(p.v), p.epoch, p.writeSeq); err != nil {
			t.Fatal(err)
		}
	}
	if err := ds.close(); err != nil {
		t.Fatal(err)
	}

	re, err := openDurableStore(dir, "coord")
	if err != nil {
		t.Fatal(err)
	}
	defer re.close()
	want := map[string][]byte{"k1": []byte("v3"), "k2": []byte("v2")}
	if got := re.cells.Snapshot(); !reflect.DeepEqual(got, want) {
		t.Fatalf("recovered %v, want %v", got, want)
	}
	if keys := re.cells.Keys(); !reflect.DeepEqual(keys, []string{"k1", "k2"}) {
		t.Fatalf("keys %v", keys)
	}
	// k2 was written at scroll position 7, k1 last at 11: a line at 11 sees
	// only k2, a line at 7 sees neither.
	if got := re.cells.SnapshotAt(11); !reflect.DeepEqual(got, map[string][]byte{"k2": []byte("v2")}) {
		t.Fatalf("as of 11: %v, want k2 only", got)
	}
	if got := re.cells.SnapshotAt(7); got != nil {
		t.Fatalf("as of 7: %v, want nothing", got)
	}
}

// TestDurableStoreInMemory: an empty dir selects the in-memory store,
// which still round-trips cells within one substrate lifetime.
func TestDurableStoreInMemory(t *testing.T) {
	ds, err := openDurableStore("", "p")
	if err != nil {
		t.Fatal(err)
	}
	if err := ds.put("a", []byte("1"), 0, 0); err != nil {
		t.Fatal(err)
	}
	if v, ok := ds.cells.Get("a"); !ok || string(v) != "1" {
		t.Fatalf("get a = %q %v", v, ok)
	}
	if err := ds.close(); err != nil {
		t.Fatal(err)
	}
}

// TestDurableStoreInvalidate: a deliberate-rollback fence deletes cells
// written at or after the restored checkpoint's scroll position, the
// fence survives reopening (tombstones are logged), and a put on the new
// timeline revives the key.
func TestDurableStoreInvalidate(t *testing.T) {
	dir := t.TempDir()
	ds, err := openDurableStore(dir, "coord")
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []struct {
		k, v     string
		writeSeq uint64
	}{
		{"early", "keep", 5},
		{"boundary", "fence", 10},
		{"late", "fence", 15},
	} {
		if err := ds.put(p.k, []byte(p.v), 0, p.writeSeq); err != nil {
			t.Fatal(err)
		}
	}
	if err := ds.fence(10); err != nil {
		t.Fatal(err)
	}
	want := map[string][]byte{"early": []byte("keep")}
	if got := ds.cells.Snapshot(); !reflect.DeepEqual(got, want) {
		t.Fatalf("after invalidate: %v, want %v", got, want)
	}
	// The new timeline revives a fenced key by writing it again.
	if err := ds.put("late", []byte("revived"), 1, 4); err != nil {
		t.Fatal(err)
	}
	if err := ds.close(); err != nil {
		t.Fatal(err)
	}

	// The fence must hold across a crash: recovery replays the tombstones.
	re, err := openDurableStore(dir, "coord")
	if err != nil {
		t.Fatal(err)
	}
	defer re.close()
	want = map[string][]byte{"early": []byte("keep"), "late": []byte("revived")}
	if got := re.cells.Snapshot(); !reflect.DeepEqual(got, want) {
		t.Fatalf("recovered %v, want %v (tombstones must survive reopen)", got, want)
	}

	// The same contract as a model test: random puts, fences and reads
	// against a plain map of (value, write position), through the in-memory
	// store and through the WAL-backed one reopened at random points.
	for _, backing := range []string{"", t.TempDir()} {
		for seed := int64(0); seed < 8; seed++ {
			durableModelWalk(t, backing, fmt.Sprintf("p%d", seed), seed)
		}
	}
}

func durableModelWalk(t *testing.T, dir, proc string, seed int64) {
	t.Helper()
	type cell struct {
		value    string
		writeSeq uint64
	}
	r := rand.New(rand.NewSource(seed))
	model := map[string]cell{}
	ds, err := openDurableStore(dir, proc)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { ds.close() }()
	keys := []string{"a", "b", "c", "d", "never"}
	check := func(step int) {
		t.Helper()
		live := []string{}
		for k := range model {
			live = append(live, k)
		}
		sort.Strings(live)
		if got := ds.cells.Keys(); !reflect.DeepEqual(got, live) {
			t.Fatalf("%q seed %d step %d: keys %v, want %v", dir, seed, step, got, live)
		}
		for _, k := range keys {
			v, ok := ds.cells.Get(k)
			if want, present := model[k]; ok != present || string(v) != want.value {
				t.Fatalf("%q seed %d step %d: get %q = %q, %v; want %q, %v", dir, seed, step, k, v, ok, want.value, present)
			}
		}
		for _, seq := range []uint64{0, 3, 8, 1 << 62} {
			var want map[string][]byte
			for k, c := range model {
				if c.writeSeq < seq {
					if want == nil {
						want = map[string][]byte{}
					}
					want[k] = []byte(c.value)
				}
			}
			if got := ds.cells.SnapshotAt(seq); !reflect.DeepEqual(got, want) {
				t.Fatalf("%q seed %d step %d: as of %d: %v, want %v", dir, seed, step, seq, got, want)
			}
		}
	}
	seq := uint64(0)
	for step := 0; step < 60; step++ {
		switch op := r.Intn(10); {
		case op < 5:
			seq += uint64(r.Intn(3))
			k, v := keys[r.Intn(4)], fmt.Sprint("v", step)
			model[k] = cell{v, seq}
			if err := ds.put(k, []byte(v), uint64(step), seq); err != nil {
				t.Fatal(err)
			}
		case op < 7:
			at := uint64(r.Intn(int(seq) + 2))
			for k, c := range model {
				if c.writeSeq >= at {
					delete(model, k)
				}
			}
			if err := ds.fence(at); err != nil {
				t.Fatal(err)
			}
			seq = min(seq, at)
		case op < 8 && dir != "":
			// A crash: what was put and what was fenced both come back.
			if err := ds.close(); err != nil {
				t.Fatal(err)
			}
			if ds, err = openDurableStore(dir, proc); err != nil {
				t.Fatal(err)
			}
		}
		check(step)
	}
}

// durTestRecords is the decision/version-log-shaped workload the torn-write
// properties below write: a 2PC decision cell rewritten once and a few
// versioned KV cells, mirroring what the coordinator and primary store.
func durTestRecords(n int) [][2][]byte {
	out := [][2][]byte{
		{[]byte("2pc:decision"), []byte("commit")},
	}
	for i := 0; i < n; i++ {
		val := binary.LittleEndian.AppendUint64(nil, uint64(i+1))
		val = append(val, []byte(fmt.Sprintf("v%d", i))...)
		out = append(out, [2][]byte{[]byte(fmt.Sprintf("kv:k%d", i%3)), val})
	}
	out = append(out, [2][]byte{[]byte("2pc:decision"), []byte("abort")})
	return out
}

// lastNonEmptySegment returns the path of the newest segment file with
// content (the one holding this session's appends).
func lastNonEmptySegment(t *testing.T, dir string) string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var best string
	for _, e := range entries {
		info, err := e.Info()
		if err != nil {
			t.Fatal(err)
		}
		if info.Size() > 0 {
			p := filepath.Join(dir, e.Name())
			if best == "" || p > best {
				best = p
			}
		}
	}
	if best == "" {
		t.Fatal("no non-empty segment")
	}
	return best
}

// TestDurableStoreTornWriteProperty: for every possible crash point inside
// the final segment (every byte-truncation offset), recovery yields
// exactly the state of the records written completely before the crash —
// a torn final record is dropped, nothing earlier is disturbed, and no
// truncation is ever mistaken for corruption.
func TestDurableStoreTornWriteProperty(t *testing.T) {
	recs := durTestRecords(7)

	// Reference prefix states and the byte offset each full record ends at.
	const header = 8 // wal record header: uint32 length + uint32 crc
	offsets := []int64{0}
	var off int64
	for i, r := range recs {
		off += header + int64(len(encodeDurablePut(string(r[0]), r[1], 1, uint64(i))))
		offsets = append(offsets, off)
	}

	write := func(dir string) {
		ds, err := openDurableStore(dir, "p")
		if err != nil {
			t.Fatal(err)
		}
		for i, r := range recs {
			if err := ds.put(string(r[0]), r[1], 1, uint64(i)); err != nil {
				t.Fatal(err)
			}
		}
		if err := ds.close(); err != nil {
			t.Fatal(err)
		}
	}

	prefixState := func(n int) map[string][]byte {
		m := map[string][]byte{}
		for _, r := range recs[:n] {
			m[string(r[0])] = r[1]
		}
		return m
	}

	for cut := int64(0); cut <= offsets[len(offsets)-1]; cut++ {
		dir := t.TempDir()
		write(dir)
		seg := lastNonEmptySegment(t, filepath.Join(dir, "p"))
		if err := os.Truncate(seg, cut); err != nil {
			t.Fatal(err)
		}
		re, err := openDurableStore(dir, "p")
		if err != nil {
			t.Fatalf("cut %d: recovery failed: %v", cut, err)
		}
		// Complete records strictly before the cut survive.
		n := sort.Search(len(offsets), func(i int) bool { return offsets[i] > cut }) - 1
		want := prefixState(n)
		got := re.cells.Snapshot()
		if got == nil {
			got = map[string][]byte{}
		}
		re.close()
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("cut %d: recovered %d cells, want the %d-record prefix", cut, len(got), n)
		}
	}
}

// TestDurableStoreMidSegmentCorruption: a bit flipped before the final
// record must surface wal.ErrCorrupt rather than silently serving a bad
// prefix.
func TestDurableStoreMidSegmentCorruption(t *testing.T) {
	dir := t.TempDir()
	ds, err := openDurableStore(dir, "p")
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range durTestRecords(7) {
		if err := ds.put(string(r[0]), r[1], 1, uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := ds.close(); err != nil {
		t.Fatal(err)
	}
	seg := lastNonEmptySegment(t, filepath.Join(dir, "p"))
	raw, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0xFF // mid-segment payload byte, not the torn tail
	if err := os.WriteFile(seg, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := openDurableStore(dir, "p"); !errors.Is(err, wal.ErrCorrupt) {
		t.Fatalf("mid-segment corruption recovered with err=%v, want wal.ErrCorrupt", err)
	}
}

// encodeLegacyDurableRecord renders the pre-epoch WAL payload layout —
// uvarint keylen | key | value — which today's decoder must still accept
// (as a put with zero timeline coordinates).
func encodeLegacyDurableRecord(key string, value []byte) []byte {
	out := binary.AppendUvarint(nil, uint64(len(key)))
	out = append(out, key...)
	out = append(out, value...)
	return out
}

// TestDurableStoreLegacyFixture: a WAL segment written by the pre-epoch
// store (committed under testdata, byte-for-byte) recovers on today's
// decoder — legacy records read as puts with zero coordinates — and new
// versioned appends and tombstones coexist with it in the same log.
func TestDurableStoreLegacyFixture(t *testing.T) {
	// wal.Open appends a fresh segment, so work on a copy of the fixture.
	dir := t.TempDir()
	src := filepath.Join("testdata", "legacy-durable", "coord")
	dst := filepath.Join(dir, "coord")
	if err := os.MkdirAll(dst, 0o755); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatalf("missing legacy fixture (regenerate with encodeLegacyDurableRecord): %v", err)
	}
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), b, fs.FileMode(0o644)); err != nil {
			t.Fatal(err)
		}
	}

	ds, err := openDurableStore(dir, "coord")
	if err != nil {
		t.Fatalf("legacy segment rejected: %v", err)
	}
	want := map[string][]byte{
		"2pc:decision": []byte("commit"),
		"kv:k1":        append(binary.LittleEndian.AppendUint64(nil, 2), 'v', '2'),
	}
	if got := ds.cells.Snapshot(); !reflect.DeepEqual(got, want) {
		t.Fatalf("legacy recovery %v, want %v", got, want)
	}
	if got := ds.cells.SnapshotAt(1); !reflect.DeepEqual(got, want) {
		t.Fatalf("legacy cells as of position 1: %v, want all of them (write position 0)", got)
	}
	// Mixed log: a versioned put and a fence append after the legacy prefix
	// and recover together with it.
	if err := ds.put("kv:k9", []byte("new"), 3, 42); err != nil {
		t.Fatal(err)
	}
	if err := ds.fence(42); err != nil { // fences only kv:k9 (legacy cells are writeSeq 0)
		t.Fatal(err)
	}
	if err := ds.put("kv:k9", []byte("revived"), 4, 2); err != nil {
		t.Fatal(err)
	}
	if err := ds.close(); err != nil {
		t.Fatal(err)
	}
	re, err := openDurableStore(dir, "coord")
	if err != nil {
		t.Fatal(err)
	}
	defer re.close()
	want["kv:k9"] = []byte("revived")
	if got := re.cells.Snapshot(); !reflect.DeepEqual(got, want) {
		t.Fatalf("mixed-format recovery %v, want %v", got, want)
	}
}

// TestDurableRecordRoundTrip pins the WAL payload encodings: versioned
// puts, tombstones, and the legacy layout.
func TestDurableRecordRoundTrip(t *testing.T) {
	for _, tc := range []durableRecord{
		{key: "", value: nil},
		{key: "2pc:decision", value: []byte("commit"), epoch: 1, writeSeq: 17},
		{key: "kv:k1", value: append(binary.LittleEndian.AppendUint64(nil, 7), 'v', '7'), epoch: 1 << 40, writeSeq: 1 << 50},
	} {
		r, err := decodeDurableRecord(encodeDurablePut(tc.key, tc.value, tc.epoch, tc.writeSeq))
		if err != nil {
			t.Fatal(err)
		}
		if r.tombstone || r.key != tc.key || !bytes.Equal(r.value, tc.value) || r.epoch != tc.epoch || r.writeSeq != tc.writeSeq {
			t.Fatalf("put round trip %+v -> %+v", tc, r)
		}
	}
	for _, key := range []string{"", "2pc:decision"} {
		r, err := decodeDurableRecord(encodeDurableTombstone(key))
		if err != nil {
			t.Fatal(err)
		}
		if !r.tombstone || r.key != key || r.value != nil {
			t.Fatalf("tombstone round trip %q -> %+v", key, r)
		}
	}
	// Legacy layout decodes as a put with zero coordinates.
	r, err := decodeDurableRecord(encodeLegacyDurableRecord("kv:k1", []byte("old")))
	if err != nil {
		t.Fatal(err)
	}
	if r.tombstone || r.key != "kv:k1" || string(r.value) != "old" || r.epoch != 0 || r.writeSeq != 0 {
		t.Fatalf("legacy round trip -> %+v", r)
	}
	for _, bad := range [][]byte{
		{},
		{0xFF},
		{200, 1},
		durableMagic,                            // versioned record with no kind byte
		append(durableMagic[:10:10], 7),         // unknown kind
		append(durableMagic[:10:10], 0),         // put with no epoch
		append(durableMagic[:10:10], 1),         // tombstone with no key length
		append(durableMagic[:10:10], 1, 5, 'a'), // tombstone key shorter than declared
	} {
		if _, err := decodeDurableRecord(bad); err == nil {
			t.Fatalf("decoded malformed record %v", bad)
		}
	}
}

// FuzzDurableRecordDecode hardens the recovery decode path: arbitrary
// bytes never panic, and anything that decodes re-encodes (in the
// versioned format) to a record that decodes identically — which also
// proves every legacy record has a versioned equivalent.
func FuzzDurableRecordDecode(f *testing.F) {
	f.Add(encodeDurablePut("2pc:decision", []byte("commit"), 1, 9))
	f.Add(encodeDurablePut("kv:k1", append(binary.LittleEndian.AppendUint64(nil, 3), 'v'), 0, 0))
	f.Add(encodeDurableTombstone("2pc:decision"))
	f.Add(encodeLegacyDurableRecord("kv:k1", []byte("old")))
	f.Add(encodeLegacyDurableRecord("", nil))
	f.Add([]byte{})
	f.Add(append([]byte(nil), durableMagic...))
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := decodeDurableRecord(data)
		if err != nil {
			return
		}
		var enc []byte
		if r.tombstone {
			enc = encodeDurableTombstone(r.key)
		} else {
			enc = encodeDurablePut(r.key, r.value, r.epoch, r.writeSeq)
		}
		r2, err := decodeDurableRecord(enc)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if r2.tombstone != r.tombstone || r2.key != r.key || !bytes.Equal(r2.value, r.value) ||
			r2.epoch != r.epoch || r2.writeSeq != r.writeSeq {
			t.Fatalf("round trip %+v -> %+v", r, r2)
		}
	})
}
