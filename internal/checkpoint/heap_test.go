package checkpoint

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"testing/quick"
)

// The tests' observation points on a heap and its snapshots.

func (h *Heap) sizeBytes() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.size
}

// copiedPages is how many pages copy-on-write copied since the last Reset.
func (h *Heap) copiedPages() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.copied
}

// dirtyPagesSince is how many of the heap's pages differ (by identity) from
// the snapshot's: the write set since it. A page absent from a table, past
// its end or nil, is the zero page.
func (h *Heap) dirtyPagesSince(s *Snapshot) int {
	h.mu.Lock()
	defer h.mu.Unlock()
	at := func(table []*page, i int) *page {
		if i < len(table) {
			return table[i]
		}
		return nil
	}
	n := 0
	for i := range max(len(h.pages), len(s.pages)) {
		if at(h.pages, i) != at(s.pages, i) {
			n++
		}
	}
	return n
}

// bytes is the snapshot's contents, contiguous.
func (s *Snapshot) bytes() []byte {
	out := make([]byte, s.size)
	for i, p := range s.pages {
		if p != nil {
			copy(out[i*s.pageSize:], p.data)
		}
	}
	return out
}

// FullSnapshot eagerly deep-copies every page the heap holds: the
// traditional checkpoint the copy-on-write Snapshot is measured against.
// Pages never written stay absent, as they are in the heap.
func (h *Heap) FullSnapshot() *Snapshot {
	h.mu.Lock()
	defer h.mu.Unlock()
	pages := h.tables.Tail(len(h.pages))
	copies := newBatch(len(h.pages), h.pageSize)
	for i, p := range h.pages {
		var cp *page
		if p != nil {
			cp = &copies[i]
			copy(cp.data, p.data)
		}
		pages = append(pages, cp)
	}
	return h.snaps.Put(Snapshot{pageSize: h.pageSize, pages: h.tables.Keep(pages), size: h.size, owner: h.owner()})
}

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
	if h.sizeBytes() < 101 {
		t.Errorf("Size = %d, want >= 101", h.sizeBytes())
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

	if got := string(snap.bytes()[:8]); got != "original" {
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
	if got := string(snap.bytes()[:7]); got != "state-A" {
		t.Errorf("snapshot corrupted after post-restore write: %q", got)
	}
}

func TestRestoreShrinksSize(t *testing.T) {
	h := NewHeapPages(16, 16)
	snap := h.Snapshot()
	h.Write(100, []byte{1})
	if h.sizeBytes() <= 16 {
		t.Fatal("heap should have grown")
	}
	h.Restore(snap)
	if h.sizeBytes() != 16 {
		t.Errorf("Size after restore = %d, want 16", h.sizeBytes())
	}
}

// TestCOWCopiesOnlyDirtyPages is ablation A1 (paper §4.2: speculation-style
// checkpoints cost less than traditional ones) without a clock: after a
// copy-on-write snapshot, a write set copies exactly its dirty pages, at
// every heap size — the cost follows the dirty fraction, not the heap.
func TestCOWCopiesOnlyDirtyPages(t *testing.T) {
	const pageSize = 4096
	for _, size := range []int{64 << 10, 256 << 10, 1 << 20} {
		for _, pct := range []int{1, 10, 50, 100} {
			pages := size / pageSize
			dirty := max(pages*pct/100, 1)
			h := NewHeapPages(size, pageSize)
			for p := 0; p < pages; p++ {
				h.Write(p*pageSize, []byte{1}) // every page exists before the snapshot
			}
			h.Snapshot()
			before := h.copiedPages()
			for p := 0; p < dirty; p++ {
				h.Write(p*pageSize+16, []byte{2})
			}
			if got := h.copiedPages() - before; got != uint64(dirty) {
				t.Errorf("%d KiB, %d%% dirty: copied %d pages, want %d", size>>10, pct, got, dirty)
			}
			// Touching a dirty page again must not copy again.
			h.Write(1, []byte{3})
			if got := h.copiedPages() - before; got != uint64(dirty) {
				t.Errorf("%d KiB, %d%% dirty: after rewrite copied %d pages, want %d", size>>10, pct, got, dirty)
			}
		}
	}
}

// benchHeap is a heap of the given size with every page written.
func benchHeap(size int) *Heap {
	h := NewHeapPages(size, 4096)
	buf := make([]byte, 8)
	for off := 0; off < size; off += 4096 {
		h.Write(off, buf)
	}
	return h
}

func BenchmarkE2CheckpointFull(b *testing.B) {
	for _, size := range []int{64 << 10, 1 << 20} {
		b.Run(fmt.Sprintf("heap=%dKiB", size>>10), func(b *testing.B) {
			h := benchHeap(size)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				h.FullSnapshot()
			}
		})
	}
}

func BenchmarkE2CheckpointCOW(b *testing.B) {
	for _, size := range []int{64 << 10, 1 << 20} {
		b.Run(fmt.Sprintf("heap=%dKiB", size>>10), func(b *testing.B) {
			h := benchHeap(size)
			buf := make([]byte, 8)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				h.Snapshot()
				h.Write((i%4)*4096, buf) // touch a small working set
			}
		})
	}
	// kvstore's shape: 64 words at a 512-byte stride, 32 KiB of a 64 KiB heap
	// at the default page size, four of them written between checkpoints.
	b.Run("kvstore", func(b *testing.B) {
		h := NewHeap(64 << 10)
		for k := 0; k < 64; k++ {
			h.WriteUint64(k*512, 1)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			h.Snapshot()
			for j := 0; j < 4; j++ {
				h.WriteUint64((i*4+j)*37%64*512, uint64(i))
			}
		}
	})
}

func BenchmarkE2Rollback(b *testing.B) {
	h := benchHeap(256 << 10)
	snap := h.Snapshot()
	buf := make([]byte, 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Write((i%16)*4096, buf)
		h.Restore(snap)
	}
}

func TestDirtyPagesSince(t *testing.T) {
	h := NewHeapPages(8*16, 16)
	snap := h.Snapshot()
	h.Write(0, []byte{1})
	h.Write(3*16, []byte{1})
	if got := h.dirtyPagesSince(snap); got != 2 {
		t.Errorf("dirtyPagesSince = %d, want 2", got)
	}
}

func TestFullSnapshotIndependence(t *testing.T) {
	h := NewHeapPages(32, 16)
	h.Write(0, []byte("AAAA"))
	full := h.FullSnapshot()
	h.Write(0, []byte("BBBB"))
	if got := string(full.bytes()[:4]); got != "AAAA" {
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
				if !bytes.Equal(p.snap.bytes(), p.ref) {
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
	// Property: a snapshot's bytes() never changes regardless of subsequent
	// heap activity.
	f := func(writes []uint16) bool {
		h := NewHeapPages(256, 32)
		for i, w := range writes {
			h.Write(int(w)%256, []byte{byte(i)})
		}
		snap := h.Snapshot()
		want := snap.bytes()
		for i, w := range writes {
			h.Write(int(w)%256, []byte{byte(i + 1)})
		}
		return bytes.Equal(snap.bytes(), want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestResetClearsEveryDirtyPage: Reset hands the heap's pages to the next
// run, which must see none of their bytes, whichever way a page came to
// hold data — a write, a write that grows the heap, a COW copy, and above
// all a Restore, which installs pages this heap may never have written
// (NewHeapFrom, or a snapshot taken before the previous Reset's writes).
func TestResetClearsEveryDirtyPage(t *testing.T) {
	const page = 64
	allZero := func(t *testing.T, h *Heap, size, pageSize int) {
		t.Helper()
		if h.sizeBytes() != size || h.PageSize() != pageSize {
			t.Fatalf("size %d page %d after Reset, want %d/%d", h.sizeBytes(), h.PageSize(), size, pageSize)
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

	// A page-size change drops the old pages.
	h.Write(2*page, []byte("before the page-size change"))
	h.Reset(4*page, 2*page)
	allZero(t, h, 4*page, 2*page)
	h.Write(3*page, []byte("after")) // page 1 at the new size
	h.Restore(h.Snapshot())
	h.Reset(8*page, 2*page)
	allZero(t, h, 8*page, 2*page)
}

// TestUnwrittenHeapAllocatesNoPageData: a page exists once it is written,
// not before. A fresh 64 KiB heap, and a heap built from a snapshot holding
// one written word, cost their header and page table, not 64 KiB of zeros.
// Measured 192 and 200 B (83,800 and 83,864 B while every page was
// allocated up front); the ceiling is that + 10 %, below a 256-byte page
// with its header.
func TestUnwrittenHeapAllocatesNoPageData(t *testing.T) {
	src := NewHeapPages(64<<10, 256)
	src.WriteUint64(8, 1)
	snap := src.Snapshot()
	var sink *Heap
	for _, c := range []struct {
		name string
		make func() *Heap
	}{
		{"NewHeapPages(64 KiB, 256)", func() *Heap { return NewHeapPages(64<<10, 256) }},
		{"NewHeapFrom(a snapshot of one written word)", func() *Heap { return NewHeapFrom(snap) }},
	} {
		best := uint64(math.MaxUint64)
		var before, after runtime.MemStats
		for range 8 {
			runtime.ReadMemStats(&before)
			sink = c.make()
			runtime.ReadMemStats(&after)
			best = min(best, after.TotalAlloc-before.TotalAlloc)
		}
		if limit := uint64(220); best > limit {
			t.Errorf("%s allocates %d bytes; want <= %d (it allocated page data nothing wrote)", c.name, best, limit)
		}
	}
	if sink.ReadUint64(8) != 1 || sink.Hash() != snap.Hash() {
		t.Error("the heap built from the snapshot does not hold its contents")
	}
}

// TestSnapshotTableEndsAtHighestWrittenPage: what a snapshot copies is the
// page table up to the highest page written, whatever the heap's size; the
// pages below it that were never written are absent.
func TestSnapshotTableEndsAtHighestWrittenPage(t *testing.T) {
	const ps = 256
	h := NewHeapPages(64<<10, ps)
	table := func(s *Snapshot) []int {
		var written []int
		for i, p := range s.pages {
			if p != nil {
				written = append(written, i)
			}
		}
		return append(written, len(s.pages))
	}
	for _, c := range []struct {
		off, n int
		want   []int // pages written, then the table's length
	}{
		{0, 0, []int{0}},
		{3*ps + 8, 8, []int{3, 4}},
		{ps - 4, 8, []int{0, 1, 3, 4}}, // straddles pages 0 and 1
		{10*ps - 1, 2, []int{0, 1, 3, 9, 10, 11}},
		{5 * ps, 8, []int{0, 1, 3, 5, 9, 10, 11}}, // below the highest: the table stays
	} {
		h.Write(c.off, make([]byte, c.n))
		s := h.Snapshot()
		if got := table(s); !slices.Equal(got, c.want) || s.size != 64<<10 {
			t.Errorf("after writing %d bytes at %d: pages written and table length %v, size %d; want %v, %d", c.n, c.off, got, s.size, c.want, 64<<10)
		}
	}
}

// TestRestoreShorterTableZeroesBeyond: restoring a snapshot whose table is
// shorter than the heap's — taken by this heap before it wrote further, or
// by another heap — leaves nothing of the heap's own pages past the
// snapshot's table, and Hash agrees with the contents.
func TestRestoreShorterTableZeroesBeyond(t *testing.T) {
	const ps, size = 256, 4 << 10
	want := make([]byte, size)
	want[0] = 7
	for _, foreign := range []bool{false, true} {
		h := NewHeapPages(size, ps)
		src := h
		if foreign {
			src = NewHeapPages(size, ps)
		}
		src.Write(0, []byte{7})
		short := src.Snapshot()
		h.Write(2<<10, []byte{9})      // page 8
		h.Write(3<<10+5, []byte{1, 2}) // page 12
		h.Restore(short)
		got := make([]byte, size)
		h.Read(0, got)
		if !bytes.Equal(got, want) || len(h.pages) != 1 {
			t.Errorf("foreign=%v: after restoring a one-page table the heap reads %d non-zero bytes past it and holds %d pages", foreign, len(bytes.Trim(got[1:], "\x00")), len(h.pages))
		}
		if h.Hash() != fnvOf(want) || short.Hash() != fnvOf(want) {
			t.Errorf("foreign=%v: Hash after the restore disagrees with the contents", foreign)
		}
		h.Write(3<<10, []byte{3}) // page 12 again: it appears zeroed
		want[3<<10] = 3
		h.Read(0, got)
		if !bytes.Equal(got, want) || h.Hash() != fnvOf(want) {
			t.Errorf("foreign=%v: a page written again after the restore holds bytes from before it", foreign)
		}
		want[3<<10] = 0
	}
}
