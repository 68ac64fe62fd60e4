package checkpoint

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestHeapReadWrite(t *testing.T) {
	h := NewHeapPages(100, 16)
	h.Write(5, []byte("hello"))
	got := make([]byte, 5)
	h.Read(5, got)
	if string(got) != "hello" {
		t.Errorf("Read = %q", got)
	}
	// Cross-page write.
	h.Write(14, []byte("crosses a page boundary"))
	got = make([]byte, 23)
	h.Read(14, got)
	if string(got) != "crosses a page boundary" {
		t.Errorf("cross-page Read = %q", got)
	}
}

func TestHeapGrowsOnWrite(t *testing.T) {
	h := NewHeapPages(10, 16)
	h.Write(100, []byte{0xAB})
	if h.Size() < 101 {
		t.Errorf("Size = %d, want >= 101", h.Size())
	}
	b := make([]byte, 1)
	h.Read(100, b)
	if b[0] != 0xAB {
		t.Errorf("Read after grow = %x", b[0])
	}
}

func TestReadBeyondSizeYieldsZeros(t *testing.T) {
	h := NewHeapPages(16, 16)
	b := []byte{1, 2, 3}
	h.Read(1000, b)
	if b[0] != 0 || b[1] != 0 || b[2] != 0 {
		t.Errorf("Read beyond size = %v, want zeros", b)
	}
}

func TestUint64RoundTrip(t *testing.T) {
	h := NewHeap(64)
	h.WriteUint64(8, 0xDEADBEEFCAFE)
	if got := h.ReadUint64(8); got != 0xDEADBEEFCAFE {
		t.Errorf("ReadUint64 = %x", got)
	}
}

func TestNegativeOffsetPanics(t *testing.T) {
	h := NewHeap(16)
	defer func() {
		if recover() == nil {
			t.Error("expected panic on negative offset")
		}
	}()
	h.Write(-1, []byte{1})
}

func TestSnapshotIsolation(t *testing.T) {
	h := NewHeapPages(64, 16)
	h.Write(0, []byte("original"))
	snap := h.Snapshot()
	h.Write(0, []byte("mutated!"))

	if got := string(snap.Bytes()[:8]); got != "original" {
		t.Errorf("snapshot sees %q, want original", got)
	}
	cur := make([]byte, 8)
	h.Read(0, cur)
	if string(cur) != "mutated!" {
		t.Errorf("heap sees %q, want mutated!", cur)
	}
}

func TestRestore(t *testing.T) {
	h := NewHeapPages(64, 16)
	h.Write(0, []byte("state-A"))
	snap := h.Snapshot()
	h.Write(0, []byte("state-B"))
	h.Write(48, []byte("extra"))
	h.Restore(snap)
	got := make([]byte, 7)
	h.Read(0, got)
	if string(got) != "state-A" {
		t.Errorf("after restore = %q, want state-A", got)
	}
	// Writing after restore must not corrupt the snapshot (COW re-protects).
	h.Write(0, []byte("state-C"))
	if got := string(snap.Bytes()[:7]); got != "state-A" {
		t.Errorf("snapshot corrupted after post-restore write: %q", got)
	}
}

func TestRestoreShrinksSize(t *testing.T) {
	h := NewHeapPages(16, 16)
	snap := h.Snapshot()
	h.Write(100, []byte{1})
	if h.Size() <= 16 {
		t.Fatal("heap should have grown")
	}
	h.Restore(snap)
	if h.Size() != 16 {
		t.Errorf("Size after restore = %d, want 16", h.Size())
	}
}

func TestCOWCopiesOnlyDirtyPages(t *testing.T) {
	const pages = 64
	h := NewHeapPages(pages*16, 16)
	h.Snapshot()
	before := h.CopiedPages()
	// Touch exactly 3 pages.
	h.Write(0, []byte{1})
	h.Write(5*16, []byte{1})
	h.Write(20*16, []byte{1})
	if got := h.CopiedPages() - before; got != 3 {
		t.Errorf("copied %d pages, want 3", got)
	}
	// Touching the same page again must not copy again.
	h.Write(1, []byte{2})
	if got := h.CopiedPages() - before; got != 3 {
		t.Errorf("after rewrite copied %d pages, want 3", got)
	}
}

func TestDirtyPagesSince(t *testing.T) {
	h := NewHeapPages(8*16, 16)
	snap := h.Snapshot()
	h.Write(0, []byte{1})
	h.Write(3*16, []byte{1})
	if got := h.DirtyPagesSince(snap); got != 2 {
		t.Errorf("DirtyPagesSince = %d, want 2", got)
	}
}

func TestFullSnapshotIndependence(t *testing.T) {
	h := NewHeapPages(32, 16)
	h.Write(0, []byte("AAAA"))
	full := h.FullSnapshot()
	if !full.Full() {
		t.Error("Full() should be true")
	}
	h.Write(0, []byte("BBBB"))
	if got := string(full.Bytes()[:4]); got != "AAAA" {
		t.Errorf("full snapshot sees %q", got)
	}
	// Full snapshot does not trigger COW counting on later writes... it is
	// eager, but later writes still copy pages shared with prior COW
	// snapshots only. Restore from full works:
	h.Restore(full)
	b := make([]byte, 4)
	h.Read(0, b)
	if string(b) != "AAAA" {
		t.Errorf("restore from full = %q", b)
	}
}

func TestHashChangesWithContent(t *testing.T) {
	h := NewHeap(128)
	h1 := h.Hash()
	h.Write(0, []byte{1})
	h2 := h.Hash()
	if h1 == h2 {
		t.Error("hash should change after write")
	}
	snap := h.Snapshot()
	if snap.Hash() != h2 {
		t.Error("snapshot hash should equal heap hash at capture")
	}
}

func TestMismatchedPageSizeRestorePanics(t *testing.T) {
	h1 := NewHeapPages(16, 16)
	h2 := NewHeapPages(32, 32)
	snap := h1.Snapshot()
	defer func() {
		if recover() == nil {
			t.Error("expected panic on mismatched page size")
		}
	}()
	h2.Restore(snap)
}

// refModel is a plain byte-slice reference implementation used to verify
// the COW heap behaves exactly like simple copying memory. It grows in
// page-sized units to match Heap's rounding.
type refModel struct {
	data     []byte
	pageSize int
}

func (m *refModel) write(off int, b []byte) {
	if need := off + len(b); need > len(m.data) {
		rounded := (need + m.pageSize - 1) / m.pageSize * m.pageSize
		nd := make([]byte, rounded)
		copy(nd, m.data)
		m.data = nd
	}
	copy(m.data[off:], b)
}

func (m *refModel) snapshot() []byte { return append([]byte(nil), m.data...) }

func TestQuickHeapMatchesReferenceModel(t *testing.T) {
	// Property: under a random interleaving of writes, snapshots and
	// restores, the COW heap contents always equal a naive deep-copy model.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		h := NewHeapPages(64, 8)
		m := &refModel{data: make([]byte, 64), pageSize: 8}
		type pair struct {
			snap *Snapshot
			ref  []byte
		}
		var snaps []pair
		for step := 0; step < 60; step++ {
			switch r.Intn(4) {
			case 0, 1: // write
				off := r.Intn(96)
				n := 1 + r.Intn(16)
				b := make([]byte, n)
				r.Read(b)
				h.Write(off, b)
				m.write(off, b)
			case 2: // snapshot
				snaps = append(snaps, pair{h.Snapshot(), m.snapshot()})
			default: // restore to random snapshot
				if len(snaps) == 0 {
					continue
				}
				p := snaps[r.Intn(len(snaps))]
				h.Restore(p.snap)
				m.data = append([]byte(nil), p.ref...)
			}
			// Compare heap and model prefix.
			got := make([]byte, len(m.data))
			h.Read(0, got)
			if !bytes.Equal(got, m.data) {
				return false
			}
			// All snapshots must still match their reference copies.
			for _, p := range snaps {
				if !bytes.Equal(p.snap.Bytes(), p.ref) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestQuickSnapshotBytesStable(t *testing.T) {
	// Property: a snapshot's Bytes() never changes regardless of subsequent
	// heap activity.
	f := func(writes []uint16) bool {
		h := NewHeapPages(256, 32)
		for i, w := range writes {
			h.Write(int(w)%256, []byte{byte(i)})
		}
		snap := h.Snapshot()
		want := snap.Bytes()
		for i, w := range writes {
			h.Write(int(w)%256, []byte{byte(i + 1)})
		}
		return bytes.Equal(snap.Bytes(), want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestResetClearsEveryDirtyPage: Reset zeroes only pages marked dirty, so
// every way a page can come to hold data must mark it — a write, a write
// that grows the heap, a COW copy, and above all a Restore, which installs
// pages this heap may never have written (NewHeapFrom, or a snapshot taken
// before the previous Reset's writes).
func TestResetClearsEveryDirtyPage(t *testing.T) {
	const page = 64
	allZero := func(t *testing.T, h *Heap, size, pageSize int) {
		t.Helper()
		if h.Size() != size || h.PageSize() != pageSize {
			t.Fatalf("size %d page %d after Reset, want %d/%d", h.Size(), h.PageSize(), size, pageSize)
		}
		buf := make([]byte, size)
		for i := range buf {
			buf[i] = 0xee
		}
		h.Read(0, buf)
		if !bytes.Equal(buf, make([]byte, size)) {
			t.Fatalf("heap not all-zero after Reset: %x", buf)
		}
		if fresh := NewHeapPages(size, pageSize); h.Hash() != fresh.Hash() {
			t.Fatal("Reset heap hashes differently from a fresh one")
		}
	}

	h := NewHeapPages(4*page, page)
	h.Write(page+3, []byte("dirty page 1"))
	snap := h.Snapshot()
	h.Write(page+3, []byte("COW'd page 1"))
	h.Write(3*page, []byte("page 3"))
	h.Write(6*page, []byte("grown page 6"))
	h.Restore(snap)
	h.Reset(4*page, page)
	allZero(t, h, 4*page, page)

	// A foreign snapshot: none of its pages was ever written through h.
	src := NewHeapPages(4*page, page)
	src.Write(0, []byte("page 0"))
	src.Write(2*page+1, []byte("page 2"))
	h.Restore(src.FullSnapshot())
	h.Reset(4*page, page)
	allZero(t, h, 4*page, page)

	from := NewHeapFrom(src.Snapshot())
	from.Reset(4*page, page)
	allZero(t, from, 4*page, page)

	// A page-size change drops the old pages and their dirty bits with them.
	h.Write(2*page, []byte("before the page-size change"))
	h.Reset(4*page, 2*page)
	allZero(t, h, 4*page, 2*page)
	h.Write(3*page, []byte("after")) // page 1 at the new size
	h.Restore(h.Snapshot())
	h.Reset(8*page, 2*page)
	allZero(t, h, 8*page, 2*page)
}
