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
//     DirtyPagesSince counts and what CopiedPages counts changes of;
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
	ids     []int  // page versions
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

// zero is the model of a fresh or Reset heap of at least size bytes.
func (mh *modelHeap) zero(m *heapModel, size int) {
	pages := (size + m.pageSize - 1) / m.pageSize
	mh.data = make([]byte, pages*m.pageSize)
	mh.ids, mh.private = make([]int, pages), make([]bool, pages)
	for i := range mh.ids {
		mh.ids[i], mh.private[i] = m.pageID(), true
	}
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
		mh.ids, mh.private = append(mh.ids, m.pageID()), append(mh.private, true)
	}
	copy(mh.data[off:], b)
	for i := off / ps; i <= (off+len(b)-1)/ps; i++ {
		if !mh.private[i] {
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
		for range mh.ids {
			ms.ids = append(ms.ids, m.pageID())
		}
		if !ms.s.Full() {
			m.t.Fatal("FullSnapshot is not Full")
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
		if mh.h.Size() != len(mh.data) || !bytes.Equal(got[:len(mh.data)], mh.data) || mh.h.Hash() != fnvOf(mh.data) {
			m.t.Fatalf("seed %d step %d: heap %d differs from the model", m.seed, step, i)
		}
		if c := mh.h.CopiedPages(); c != mh.copied {
			m.t.Fatalf("seed %d step %d: heap %d CopiedPages = %d, model %d", m.seed, step, i, c, mh.copied)
		}
	}
	for i, ms := range m.snaps {
		if ms.s.Size() != len(ms.data) || !bytes.Equal(ms.s.Bytes(), ms.data) || ms.s.Hash() != fnvOf(ms.data) {
			m.t.Fatalf("seed %d step %d: snapshot %d (of %d live) differs from the model's copy", m.seed, step, i, len(m.snaps))
		}
	}
	if len(m.snaps) > 0 {
		mh, ms := m.heaps[m.r.Intn(len(m.heaps))], m.snaps[m.r.Intn(len(m.snaps))]
		want := 0
		for i, id := range mh.ids {
			if i >= len(ms.ids) || ms.ids[i] != id {
				want++
			}
		}
		if got := mh.h.DirtyPagesSince(ms.s); got != want {
			m.t.Fatalf("seed %d step %d: DirtyPagesSince = %d, model %d", m.seed, step, got, want)
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
			if !seen[p.batch] {
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
	// holds the one page written; the other three are in the first batch, and
	// that one is on the displaced list.
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
	if n := testing.AllocsPerRun(5, run); n != 2*20 { // a standalone heap's Snapshot headers and page tables
		t.Errorf("a warm run on a standalone heap allocates %.0f times, want the 40 of its snapshots", n)
	}
	// A Reset to another page size forgets every page of the old size: the
	// spares, and the batch that was being handed out.
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
	if got := pinnedBytes(h); got != 4*pageSize+2*pageSize || h.spareBytes != 4*pageSize {
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
			v := &view{name: name, read: s.Bytes, pages: func() []*page { return s.pages }, want: of.want}
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

		a := NewHeapPages(n*ps, ps) // one batch of n
		va := heap("a", a, nil)
		fill(a, va, 0x01) // in place
		s1, vs1 := snap("a's first snapshot", a, va)
		fill(a, va, 0x11) // copies: batches of 1, 2 and 4
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
