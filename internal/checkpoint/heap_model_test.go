package checkpoint

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/slab"
)

// The heap model test drives several heaps through seeded random sequences
// of every operation that moves pages — Write, Snapshot, FullSnapshot,
// Restore (own snapshots and other heaps'), NewHeapFrom and Reset — against
// a flat-memory model that copies everything and shares nothing.
//
// What the model knows besides bytes:
//   - page identity, as a number per page version, which is what
//     dirtyPagesSince counts and what copiedPages counts changes of. A page
//     gets one when it is first written or installed by a Restore; until
//     then it is absent (0), reads as zeros and lies in no page table, whose
//     length the model therefore knows too;
//   - lineage: which heaps' pages a heap or snapshot may hold. Reset(h)
//     ends the life of every snapshot with h in its lineage (the Reset
//     contract) and of every other heap that restored one; everything else
//     must come through h's Reset — and through h recycling its pages in
//     the run after — unchanged.

type modelHeap struct {
	h       *Heap
	id      uint64 // one bit
	lineage uint64
	data    []byte
	ids     []int  // page versions; 0 is a page never written
	private []bool // page i was created since the last Snapshot/Restore: a write does not copy it
	copied  uint64
	last    *Snapshot // what Snapshot returned last
	touched bool      // written, grown or restored since
	inArena bool
}

type modelSnap struct {
	s       *Snapshot
	lineage uint64
	data    []byte
	ids     []int
}

// span is the length of the page table that holds ids: up to the highest
// page that is not absent.
func span(ids []int) int {
	for n := len(ids); n > 0; n-- {
		if ids[n-1] != 0 {
			return n
		}
	}
	return 0
}

type heapModel struct {
	t        *testing.T
	seed     int64
	r        *rand.Rand
	pageSize int
	arena    *Arena // nil: every heap stands alone
	arenaIDs uint64 // every heap the arena ever made, replaced ones included: Rewind ends their snapshots too
	heaps    []*modelHeap
	snaps    []*modelSnap
	nextID   uint64
	nextPage int
}

func (m *heapModel) pageID() int { m.nextPage++; return m.nextPage }

func (m *heapModel) newHeap(size int, from *modelSnap) *modelHeap {
	mh := &modelHeap{id: 1 << m.nextID}
	m.nextID++
	mh.lineage = mh.id
	switch {
	case from != nil:
		mh.h = NewHeapFrom(from.s)
		mh.install(from)
	case m.arena != nil:
		mh.h, mh.inArena = m.arena.NewHeap(size, m.pageSize), true
		m.arenaIDs |= mh.id
		mh.zero(m, size)
	default:
		mh.h = NewHeapPages(size, m.pageSize)
		mh.zero(m, size)
	}
	return mh
}

// zero is the model of a fresh or Reset heap of at least size bytes: no
// page is written.
func (mh *modelHeap) zero(m *heapModel, size int) {
	pages := (size + m.pageSize - 1) / m.pageSize
	mh.data = make([]byte, pages*m.pageSize)
	mh.ids, mh.private = make([]int, pages), make([]bool, pages)
	mh.lineage, mh.copied, mh.last, mh.touched = mh.id, 0, nil, false
}

// install is the model of Restore.
func (mh *modelHeap) install(s *modelSnap) {
	mh.data = bytes.Clone(s.data)
	mh.ids = append([]int(nil), s.ids...)
	mh.private = make([]bool, len(s.ids))
	mh.lineage |= s.lineage
	mh.touched = true
}

func (m *heapModel) write(mh *modelHeap, off int, b []byte) {
	mh.h.Write(off, b)
	ps := m.pageSize
	for need := off + len(b); len(mh.data) < need; {
		mh.data = append(mh.data, make([]byte, ps)...)
		mh.ids, mh.private = append(mh.ids, 0), append(mh.private, false)
	}
	copy(mh.data[off:], b)
	for i := off / ps; i <= (off+len(b)-1)/ps; i++ {
		if mh.ids[i] == 0 { // appears: nothing is copied
			mh.ids[i], mh.private[i] = m.pageID(), true
		} else if !mh.private[i] {
			mh.ids[i], mh.private[i] = m.pageID(), true
			mh.copied++
		}
	}
	mh.touched = true
}

func (m *heapModel) snapshot(mh *modelHeap, full bool) {
	ms := &modelSnap{lineage: mh.lineage, data: bytes.Clone(mh.data)}
	if full {
		ms.s = mh.h.FullSnapshot()
		for _, id := range mh.ids {
			if id != 0 {
				id = m.pageID()
			}
			ms.ids = append(ms.ids, id)
		}
	} else {
		ms.s = mh.h.Snapshot()
		if ms.s == mh.last && mh.touched {
			m.t.Fatalf("seed %d: Snapshot returned a snapshot that predates a Write or Restore", m.seed)
		}
		mh.last, mh.touched = ms.s, false
		ms.ids = append([]int(nil), mh.ids...)
		clear(mh.private)
	}
	m.snaps = append(m.snaps, ms)
}

// reset ends the run of the given heaps: their snapshots, and whatever else
// holds their pages, are gone; they come back zeroed.
func (m *heapModel) reset(which []*modelHeap, size int) {
	var dead uint64
	for _, mh := range which {
		dead |= mh.id
	}
	if which[0].inArena {
		dead |= m.arenaIDs
	}
	live := m.snaps[:0]
	for _, ms := range m.snaps {
		if ms.lineage&dead == 0 {
			live = append(live, ms)
		}
	}
	clear(m.snaps[len(live):])
	m.snaps = live
	for i, mh := range m.heaps {
		if mh.id&dead == 0 && mh.lineage&dead != 0 {
			m.heaps[i] = m.newHeap(size, nil) // it shared pages with a heap that is being Reset
		}
	}
	if which[0].inArena {
		m.arena.Rewind()
	}
	for _, mh := range which {
		mh.h.Reset(size, m.pageSize)
		mh.zero(m, size)
	}
}

func fnvOf(b []byte) uint64 {
	d := fnv.New64a()
	d.Write(b)
	return d.Sum64()
}

func (m *heapModel) check(step int) {
	for i, mh := range m.heaps {
		got := make([]byte, len(mh.data)+m.pageSize)
		mh.h.Read(0, got)
		if mh.h.sizeBytes() != len(mh.data) || !bytes.Equal(got[:len(mh.data)], mh.data) || mh.h.Hash() != fnvOf(mh.data) {
			m.t.Fatalf("seed %d step %d: heap %d differs from the model", m.seed, step, i)
		}
		if c := mh.h.copiedPages(); c != mh.copied {
			m.t.Fatalf("seed %d step %d: heap %d copiedPages = %d, model %d", m.seed, step, i, c, mh.copied)
		}
		if got, want := len(mh.h.pages), span(mh.ids); got != want {
			m.t.Fatalf("seed %d step %d: heap %d has a %d-page table, model %d", m.seed, step, i, got, want)
		}
	}
	for i, ms := range m.snaps {
		if ms.s.size != len(ms.data) || !bytes.Equal(ms.s.bytes(), ms.data) || ms.s.Hash() != fnvOf(ms.data) {
			m.t.Fatalf("seed %d step %d: snapshot %d (of %d live) differs from the model's copy", m.seed, step, i, len(m.snaps))
		}
		if got, want := len(ms.s.pages), span(ms.ids); got != want {
			m.t.Fatalf("seed %d step %d: snapshot %d has a %d-page table, model %d", m.seed, step, i, got, want)
		}
	}
	if len(m.snaps) > 0 {
		mh, ms := m.heaps[m.r.Intn(len(m.heaps))], m.snaps[m.r.Intn(len(m.snaps))]
		id := func(ids []int, i int) int {
			if i < len(ids) {
				return ids[i]
			}
			return 0
		}
		want := 0
		for i := range max(len(mh.ids), len(ms.ids)) {
			if id(mh.ids, i) != id(ms.ids, i) {
				want++
			}
		}
		if got := mh.h.dirtyPagesSince(ms.s); got != want {
			m.t.Fatalf("seed %d step %d: dirtyPagesSince = %d, model %d", m.seed, step, got, want)
		}
	}
}

func TestHeapModel(t *testing.T) {
	was := slab.Poison(true) // a recycled page or rewound page table still in use reads as garbage
	defer slab.Poison(was)
	// Tiny pages put several under a write; the others are the default and
	// a size on either side of it.
	for seed := int64(0); seed < 60; seed++ {
		runHeapModel(t, seed, 8<<(seed%2), 300)
	}
	for _, pageSize := range []int{256, 1024, 4096} {
		t.Run(fmt.Sprintf("page=%d", pageSize), func(t *testing.T) {
			for seed := int64(0); seed < 8; seed++ {
				runHeapModel(t, seed, pageSize, 150)
			}
		})
	}
}

// runHeapModel runs one seeded sequence on heaps of 2 to 6 pages (4 to 12
// of the 8-byte ones).
func runHeapModel(t *testing.T, seed int64, pageSize, steps int) {
	m := &heapModel{t: t, seed: seed, r: rand.New(rand.NewSource(seed)), pageSize: pageSize}
	if seed%3 != 0 {
		m.arena = &Arena{}
	}
	r := m.r
	scale := max(pageSize/16, 1)
	size := func() int { return (32 + r.Intn(64)) * scale }
	for range 3 {
		m.heaps = append(m.heaps, m.newHeap(size(), nil))
	}
	for step := 0; step < steps; step++ {
		mh := m.heaps[r.Intn(len(m.heaps))]
		switch op := r.Intn(20); {
		case op < 9:
			b := make([]byte, 1+r.Intn(20))
			r.Read(b)
			off := r.Intn(120) * scale
			if scale > 1 {
				off += r.Intn(scale)
			}
			m.write(mh, off, b)
		case op < 13:
			m.snapshot(mh, false)
		case op < 14:
			m.snapshot(mh, true)
		case op < 17 && len(m.snaps) > 0: // a third of these cross heaps
			ms := m.snaps[r.Intn(len(m.snaps))]
			mh.h.Restore(ms.s)
			mh.install(ms)
		case op < 18 && len(m.snaps) > 0 && m.nextID < 60:
			m.heaps[r.Intn(len(m.heaps))] = m.newHeap(0, m.snaps[r.Intn(len(m.snaps))])
		case op < 19:
			which := []*modelHeap{mh}
			if mh.inArena { // an arena's heaps end their run together
				which = which[:0]
				for _, x := range m.heaps {
					if x.inArena {
						which = append(which, x)
					}
				}
			}
			m.reset(which, size())
		}
		m.check(step)
	}
}

// batchBytes is the page data the given pages pin: the data array of every
// batch one of them belongs to.
func batchBytes(lists ...[]*page) int {
	seen, n := map[*batch]bool{}, 0
	for _, list := range lists {
		for _, p := range list {
			if p != nil && !seen[p.batch] {
				seen[p.batch], n = true, n+p.batch.bytes
			}
		}
	}
	return n
}

// pinnedBytes is the page data reachable from h: its pages, its spare lists
// and the batch not yet handed out.
func pinnedBytes(h *Heap) int {
	var fresh []*page
	if len(h.fresh) > 0 {
		fresh = append(fresh, &h.fresh[0])
	}
	return batchBytes(h.pages, h.free, h.displaced, fresh)
}

// TestSparePagesBounded: a heap that is never Reset does not collect every
// page it displaces, and one that is keeps no more than the cap — counted in
// the bytes the kept pages pin (a page pins its batch), not in pages listed.
func TestSparePagesBounded(t *testing.T) {
	for _, pageSize := range []int{256, 1024, 4096} {
		t.Run(fmt.Sprintf("page=%d", pageSize), func(t *testing.T) { testSparePagesBounded(t, pageSize) })
	}
}

func testSparePagesBounded(t *testing.T, pageSize int) {
	h := NewHeapPages(4*pageSize, pageSize)
	for i := 0; i < 2*maxSpareBytes/pageSize; i++ { // displaces twice the cap
		h.Snapshot()
		h.WriteUint64(0, uint64(i))
	}
	// What is reachable besides the spares: the batch being handed out, which
	// holds the one page written (the other three never were, so they are
	// absent).
	limit := maxSpareBytes + maxBatchBytes
	spares := func() int {
		for _, p := range slices.Concat(h.free, h.displaced) {
			if !p.spare || p.batch.spares == 0 {
				t.Fatalf("a listed page is not marked spare (batch counts %d)", p.batch.spares)
			}
		}
		return batchBytes(h.free, h.displaced)
	}
	if got := spares(); got != h.spareBytes || got > maxSpareBytes || got < maxSpareBytes-maxBatchBytes {
		t.Errorf("spare pages pin %d bytes, the heap counts %d, cap is %d", got, h.spareBytes, maxSpareBytes)
	}
	if got := pinnedBytes(h); got > limit {
		t.Errorf("%d bytes of page data reachable from the heap, want at most %d", got, limit)
	}
	h.Reset(4*pageSize, pageSize)
	if len(h.displaced) != 0 || len(h.free) == 0 {
		t.Errorf("after Reset: %d displaced, %d free pages", len(h.displaced), len(h.free))
	}
	if got := spares(); got != h.spareBytes || got > maxSpareBytes {
		t.Errorf("after Reset: spare pages pin %d bytes, the heap counts %d, cap is %d", got, h.spareBytes, maxSpareBytes)
	}
	if got := pinnedBytes(h); got > limit {
		t.Errorf("after Reset: %d bytes of page data reachable from the heap, want at most %d", got, limit)
	}
	// The next run copies into the free pages: nothing is allocated.
	run := func() {
		h.Reset(4*pageSize, pageSize)
		for i := 0; i < 20; i++ {
			h.Snapshot()
			h.WriteUint64(pageSize, uint64(i))
		}
	}
	run()
	var a Arena
	ah := a.NewHeap(4*pageSize, pageSize)
	arenaRun := func() {
		a.Rewind()
		ah.Reset(4*pageSize, pageSize)
		for i := 0; i < 20; i++ {
			ah.Snapshot()
			ah.WriteUint64(pageSize, uint64(i))
		}
	}
	arenaRun()
	if n := testing.AllocsPerRun(5, arenaRun); n != 0 {
		t.Errorf("a warm run on an arena's heap allocates %.0f times, want 0", n)
	}
	// A standalone heap allocates its Snapshot headers and page tables, but
	// the first snapshot is taken before anything is written: its table is
	// empty.
	if n := testing.AllocsPerRun(5, run); n != 2*20-1 {
		t.Errorf("a warm run on a standalone heap allocates %.0f times, want the 39 of its snapshots", n)
	}
	// A Reset to another page size forgets every page of the old size: the
	// spares, and the batch that was being handed out. What the new size
	// allocates is the written page's first batch of one and its copy's
	// batch of two, and the first batch is on the displaced list.
	h.Reset(4*pageSize, 2*pageSize)
	h.WriteUint64(0, 1)
	h.Snapshot()
	h.WriteUint64(0, 2)
	for _, list := range [][]*page{h.pages, h.displaced, h.free} {
		for _, p := range list {
			if len(p.data) != 2*pageSize {
				t.Fatalf("a %d-byte page survived the Reset to %d-byte pages", len(p.data), 2*pageSize)
			}
		}
	}
	if got := pinnedBytes(h); got != 2*pageSize+4*pageSize || h.spareBytes != 2*pageSize {
		t.Errorf("after a Reset to another page size: %d bytes reachable, %d counted spare", got, h.spareBytes)
	}
}

// TestBatchPagesDoNotAlias: pages lie side by side in their batch's one data
// array, so a whole-page write through any one of them — in the heap that
// made them, in a heap built from its snapshot, in one that restored it —
// must be invisible in its siblings, in every live snapshot and in the other
// heaps. Recycled pages are poisoned on the way (TestHeapModel walks the same
// ground at random; this spells the property out).
func TestBatchPagesDoNotAlias(t *testing.T) {
	defer slab.Poison(slab.Poison(true))
	const n = 7
	for _, ps := range []int{8, 256, 1024} {
		type view struct {
			name  string
			read  func() []byte
			pages func() []*page
			want  [n]byte // page i is ps bytes of want[i]
		}
		var views []*view
		check := func(after string) {
			t.Helper()
			for _, v := range views {
				got := v.read()
				for i := 0; i < n; i++ {
					if !bytes.Equal(got[i*ps:(i+1)*ps], bytes.Repeat([]byte{v.want[i]}, ps)) {
						t.Fatalf("page=%d, after %s: page %d of %s reads %x…, want all %x", ps, after, i, v.name, got[i*ps:i*ps+4], v.want[i])
					}
				}
				for i, p := range v.pages() {
					if len(p.data) != ps || cap(p.data) != ps {
						t.Fatalf("page=%d: page %d of %s has len %d cap %d: it can grow into its neighbour", ps, i, v.name, len(p.data), cap(p.data))
					}
				}
			}
		}
		heap := func(name string, h *Heap, from *view) *view {
			v := &view{name: name, pages: func() []*page { return h.pages }, read: func() []byte {
				b := make([]byte, n*ps)
				h.Read(0, b)
				return b
			}}
			if from != nil {
				v.want = from.want
			}
			views = append(views, v)
			return v
		}
		snap := func(name string, h *Heap, of *view) (*Snapshot, *view) {
			s := h.Snapshot()
			v := &view{name: name, read: s.bytes, pages: func() []*page { return s.pages }, want: of.want}
			views = append(views, v)
			return s, v
		}
		// fill writes every page of h, whole, one at a time, checking after each.
		fill := func(h *Heap, v *view, base byte) {
			for i := 0; i < n; i++ {
				v.want[i] = base + byte(i)
				h.Write(i*ps, bytes.Repeat([]byte{v.want[i]}, ps))
				check(fmt.Sprintf("writing page %d of %s", i, v.name))
			}
		}

		a := NewHeapPages(n*ps, ps)
		va := heap("a", a, nil)
		fill(a, va, 0x01) // pages appear: batches of 1, 2 and 4
		s1, vs1 := snap("a's first snapshot", a, va)
		fill(a, va, 0x11) // copies: one batch of 8
		s2, _ := snap("a's second snapshot", a, va)
		b := NewHeapFrom(s2) // shares every page with a and s2
		vb := heap("b, built from a's second snapshot", b, va)
		c := NewHeapPages(n*ps, ps)
		c.Restore(s1)
		vc := heap("c, which restored a's first snapshot", c, vs1)
		fill(b, vb, 0x21)
		fill(c, vc, 0x31)
		fill(a, va, 0x41)
		a.Restore(s1) // brings back the first batch, whole
		va.want = vs1.want
		check("a restoring its first snapshot")
		fill(a, va, 0x51)
		snap("b's snapshot", b, vb)
		fill(b, vb, 0x61)
	}
}

// FuzzHeap drives two heaps through Write, Read, Snapshot, Restore,
// NewHeapFrom and Reset to another size and page size, against flat byte
// slices that copy everything: each heap and each live snapshot must read,
// and hash, exactly as its flat copy. Reset ends every snapshot, so it
// resets both heaps (one may hold the other's pages).
func FuzzHeap(f *testing.F) {
	f.Add([]byte{0, 0, 9, 3, 2, 7, 7, 0, 2, 0, 0, 0, 200, 5, 1, 1, 0, 3, 0, 0, 0, 1, 3, 0})
	f.Add([]byte{0, 0, 1, 0, 30, 9, 0, 2, 1, 4, 0, 0, 0, 90, 2, 4, 4, 0, 5, 3, 40, 1, 2, 0, 0, 0, 3, 1})
	f.Add([]byte{1, 0, 250, 7, 8, 1, 0, 2, 0, 3, 0, 0, 5, 0, 1, 0, 5, 2, 9, 1, 1, 40, 60, 0, 0, 0, 9, 4, 1})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 4096 {
			return
		}
		defer slab.Poison(slab.Poison(true)) // a recycled page read as live shows as 0xDB
		next := func() int {
			if len(ops) == 0 {
				return 0
			}
			b := ops[0]
			ops = ops[1:]
			return int(b)
		}
		type flat struct {
			h    *Heap
			data []byte
		}
		type flatSnap struct {
			s    *Snapshot
			data []byte
		}
		sized := func(data []byte, size, pageSize int) []byte {
			if n := (size + pageSize - 1) / pageSize * pageSize; n > len(data) {
				data = append(data, make([]byte, n-len(data))...)
			}
			return data
		}
		pageSizes := []int{8, 16, 64, 256}
		heaps := []*flat{{NewHeapPages(64, 8), make([]byte, 64)}, {NewHeapPages(100, 16), make([]byte, 112)}}
		var snaps []flatSnap
		for step := 0; len(ops) > 0; step++ {
			fh := heaps[next()%2]
			switch op := next() % 6; {
			case op == 0:
				off, b := next()*8+next()%8, make([]byte, next()%24)
				for i := range b {
					b[i] = byte(next())
				}
				fh.h.Write(off, b)
				fh.data = sized(fh.data, off+len(b), fh.h.PageSize())
				copy(fh.data[off:], b)
			case op == 1:
				off, got := next()*8, make([]byte, next()%64)
				for i := range got {
					got[i] = 0xEE
				}
				fh.h.Read(off, got)
				want := make([]byte, len(got))
				if off < len(fh.data) {
					copy(want, fh.data[off:])
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("step %d: Read(%d, %d bytes) = %x, want %x", step, off, len(got), got, want)
				}
			case op == 2:
				snaps = append(snaps, flatSnap{fh.h.Snapshot(), bytes.Clone(fh.data)})
			case op < 5 && len(snaps) > 0:
				fs := snaps[next()%len(snaps)]
				if op == 4 {
					fh.h = NewHeapFrom(fs.s)
				} else if fs.s.pageSize == fh.h.PageSize() {
					fh.h.Restore(fs.s)
				} else {
					continue
				}
				fh.data = bytes.Clone(fs.data)
			case op == 5:
				snaps = nil
				for _, fh := range heaps {
					size, pageSize := next()*4, pageSizes[next()%len(pageSizes)]
					fh.h.Reset(size, pageSize)
					fh.data = sized(nil, size, pageSize)
				}
			}
			for i, fh := range heaps {
				got, want := make([]byte, len(fh.data)+fh.h.PageSize()), append(bytes.Clone(fh.data), make([]byte, fh.h.PageSize())...)
				fh.h.Read(0, got)
				if fh.h.sizeBytes() != len(fh.data) || !bytes.Equal(got, want) {
					t.Fatalf("step %d: heap %d (size %d) differs from its flat copy (size %d)", step, i, fh.h.sizeBytes(), len(fh.data))
				}
				if fh.h.Hash() != fnvOf(fh.data) {
					t.Fatalf("step %d: heap %d hashes differently from its flat copy", step, i)
				}
			}
			for i, fs := range snaps {
				if fs.s.size != len(fs.data) || !bytes.Equal(fs.s.bytes(), fs.data) || fs.s.Hash() != fnvOf(fs.data) {
					t.Fatalf("step %d: snapshot %d differs from its flat copy", step, i)
				}
			}
		}
	})
}
