// Package checkpoint implements process state capture for the Time Machine
// (paper §3.2, §4.2).
//
// Two mechanisms are provided, mirroring the paper's distinction between
// "certain types of traditional checkpointing" and the lightweight
// speculation checkpoints:
//
//   - Full snapshots deep-copy the entire process heap (the traditional,
//     expensive mechanism — our baseline).
//   - COW snapshots capture the page table only; pages are copied lazily
//     when the running process first writes them after the snapshot, so a
//     checkpoint costs O(pages touched), not O(heap size). This reproduces
//     the copy-on-write shadow mechanism of Flashback and of distributed
//     speculations (paper §4.2: "Speculations use a copy-on-write mechanism
//     to build lightweight, incremental checkpoints of processes").
//
// Application state lives in a paged Heap so that page-granular dirty
// tracking is meaningful, the same way kernel-level tools exploit hardware
// pages.
//
// # Machine state
//
// The other half of a process — what its Machine's State() points to —
// rides in Checkpoint.Extra. The simulator captures it with a StateCodec:
// a binary codec compiled by reflection once per state type and cached,
// which walks the value through field offsets and appends it to a
// run-scoped Arena (strings and integers as they sit in memory,
// length-prefixed slices and maps with nil told apart from empty, maps in
// map order — the bytes are only ever decoded, never hashed or compared).
// A capture allocates nothing and costs about a fifth of the json.Marshal it
// replaced. JSON exists only at the boundary: Checkpoint.StateJSON decodes
// the bytes into a fresh value of the state's type and marshals that, for
// restores (RestoreState unmarshals it into the live machine, as restores
// always have), the Healer's state mappers and the Investigator's models. The
// decode is exact — the JSON is byte for byte what json.Marshal(State())
// gave when the checkpoint was taken — because a type gets a codec only if
// that can be guaranteed: anything encoding/json treats specially (custom
// json or encoding.Text (un)marshalers, embedded or unexported fields,
// interfaces) or that the codec could not rebuild (recursive types) keeps
// the eager json.Marshal path, decided once per type (CodecFor). The
// decoder trusts nothing: length prefixes are checked against the bytes
// that remain, so corrupt input is an error, never a panic or an
// allocation out of proportion to it.
//
// # The Time Machine's four decisions
//
// "Assemble local checkpoints into a globally consistent recovery line,
// restore it" (paper §3.2, §4.2, Fig. 6) is four decisions, each made in one
// place that the simulator, the live substrate, the Healer, the
// Investigator and the coordinator all call:
//
//   - Selection — which checkpoint of each process the line takes:
//     recovery.MaxConsistentSet, over lists of *Checkpoint.
//   - Resolution — turning a caller's line (process -> checkpoint ID) into
//     checkpoints, or refusing it whole: Store.ResolveLine; both backends'
//     RollbackTo and heal.Apply validate through it before anything moves.
//   - Restore — how state bytes become machine state: RestoreState (the
//     heap half is Heap.Restore).
//   - The timeline fence — what of the abandoned timeline must not survive
//     a deliberate rollback to a checkpoint at scroll position n:
//     Store.PruneAfter (its later checkpoints) and Cells.Fence (its
//     stable-storage writes), cut at the same coordinate. Cells is the one
//     stable-storage cell map; the live backend adds a write-ahead log
//     around it.
//
// What stays per backend is the step kernel: how a process is paused,
// locked and re-armed around those calls.
//
// # Run-scoped memory
//
// A simulation that is Reset and run again allocates none of this twice.
// An Arena carves state encodings, Snapshot headers and page tables out of
// slabs (internal/slab) that Rewind hands to the next run; a Heap keeps the
// pages its copy-on-write displaced and copies into them again after Reset;
// a Store keeps its lists and the checkpoint IDs it rendered. One rule
// covers all three: everything handed out during a run — a Snapshot, a
// Checkpoint, an encoding — is invalid after the Reset or Rewind that ends
// it. (A checkpoint ID is not handed out of run-scoped memory: it is an
// ordinary string, carved from a block of ID text that lives as long as any
// ID in it does.)
//
// What a heap cannot recycle it allocates in batches — the headers of a run
// of pages in one array, their data in another — so a long run that copies a
// page after every checkpoint allocates per batch, not per page. A page is
// valid for as long as its heap, or any snapshot that holds it, is reachable;
// a batch is freed whole, when the last of its pages is let go. The spare
// lists are therefore bounded by the bytes their pages pin (maxSpareBytes,
// counted batch by batch), not by the number of pages on them.
package checkpoint

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"slices"
	"sync"

	"repro/internal/slab"
)

// DefaultPageSize is the copy-on-write unit of a heap made without an
// explicit page size (NewHeap, or a pageSize <= 0). It is sized to the write
// set, not the hardware: the applications write a word or two between
// checkpoints, and for a 64 KiB heap one copied page plus the snapshot's
// page table cost p + 8*64Ki/p bytes per checkpoint, least near p = 724.
// Page size never reaches a digest (chaos.TestPageSizeNotObservable).
const DefaultPageSize = 1024

// page is one copy-on-write unit. A page value is immutable once it is
// shared with a snapshot; the heap copies it before mutating (see ensure).
type page struct {
	data  []byte
	epoch uint64 // heap epoch in which this page version was created
	batch *batch
	spare bool // on its heap's free or displaced list
}

// batch is what pages are allocated in: the headers of a run of pages in one
// array and their data in another, so that a long run's copy-on-write costs
// an allocation per batch, not two per page. The price is that a page pins
// its whole batch — both arrays stay reachable while any one page is — which
// is why the spare-page cap counts batches (Heap.keep).
type batch struct {
	bytes  int // of page data
	spares int // pages of the batch on their heap's free or displaced list
}

// newBatch allocates n zeroed pages of pageSize bytes. No two share memory:
// each page's data is clipped to its own pageSize bytes.
func newBatch(n, pageSize int) []page {
	b := &batch{bytes: n * pageSize}
	pages, data := make([]page, n), make([]byte, n*pageSize)
	for i := range pages {
		pages[i] = page{data: data[i*pageSize : (i+1)*pageSize : (i+1)*pageSize], batch: b}
	}
	return pages
}

// maxSpareBytes bounds, in bytes of page data, what the displaced pages a
// heap keeps for reuse pin: a long run's write set must not stay pinned in a
// pooled worker, and a heap that is never Reset must not collect every page
// it ever displaced.
const maxSpareBytes = 256 << 10

// maxBatchBytes bounds, in bytes of page data, the batches copy-on-write
// allocates: they double from one page up to this, so a heap that copies
// three pages does not allocate thirty-two.
const maxBatchBytes = 32 << 10

// Heap is a paged, growable memory region with copy-on-write snapshots.
// It is safe for concurrent use.
type Heap struct {
	mu       sync.Mutex
	pageSize int
	pages    []*page
	size     int
	epoch    uint64 // bumped on every snapshot/restore
	copied   uint64 // pages copied due to COW since creation (metric)
	writes   uint64 // write operations (metric)
	// dirty has bit i set when page i may be non-zero: written since the
	// last Reset, or installed by a Restore. Reset clears only those.
	dirty []uint64

	// clean is the last Snapshot taken, for as long as nothing was written
	// or restored since: a checkpoint of an unchanged heap is that snapshot
	// again.
	clean *Snapshot
	// Page recycling. displaced holds pages COW replaced since the last
	// Reset — snapshots still read them; free holds the ones from before it,
	// which ensure and grow use in place of new allocations. Both only ever
	// hold pages this heap allocated: foreign is set once a Restore installs
	// pages of unknown origin (another heap's snapshot), and from then until
	// Reset — which lets go of every installed page instead of zeroing it —
	// nothing is collected. restored is set by any Restore: it can re-install
	// a page that is already on the displaced list. spareBytes is what the two
	// lists pin: the data of every batch with a page on either.
	free, displaced   []*page
	spareBytes        int
	foreign, restored bool
	// Page allocation, behind the recycling: fresh holds the pages of the
	// newest batch not handed out yet, batchPages the size of the last batch
	// copy-on-write asked for.
	fresh      []page
	batchPages int
	// Where Snapshot headers and page tables are carved from; nil slabs (a
	// heap that belongs to no Arena) allocate them.
	snaps  *slab.Slab[Snapshot]
	tables *slab.Slab[*page]
}

// markDirty records that page i may no longer be all zeros. Caller holds mu.
func (h *Heap) markDirty(i int) {
	for len(h.dirty) <= i/64 {
		h.dirty = append(h.dirty, 0)
	}
	h.dirty[i/64] |= 1 << (i % 64)
}

// NewHeap returns a zeroed heap of the given size in bytes using the
// default page size.
func NewHeap(size int) *Heap { return NewHeapPages(size, DefaultPageSize) }

// NewHeapPages returns a zeroed heap with an explicit page size.
func NewHeapPages(size, pageSize int) *Heap {
	if pageSize <= 0 {
		pageSize = DefaultPageSize
	}
	h := &Heap{pageSize: pageSize}
	h.grow(size)
	return h
}

// grow extends the heap to at least size bytes with zeroed pages. Caller
// holds mu (or is the constructor).
func (h *Heap) grow(size int) {
	for h.size < size {
		p := h.recycled()
		if p != nil {
			clear(p.data)
		} else {
			p = h.newPage((size - h.size + h.pageSize - 1) / h.pageSize)
		}
		p.epoch = h.epoch
		h.pages = append(h.pages, p)
		h.size += h.pageSize
		h.clean = nil
	}
}

// recycled takes a page off the free list, contents stale, or returns nil.
// Caller holds mu.
func (h *Heap) recycled() *page {
	n := len(h.free)
	if n == 0 {
		return nil
	}
	p := h.free[n-1]
	h.free[n-1] = nil
	h.free = h.free[:n-1]
	h.unspare(p)
	return p
}

// newPage carves a zeroed page out of the newest batch, for a caller that
// found the free list empty and needs this many pages now. When the batch is
// used up the next one holds exactly that many (a fresh heap is one batch)
// or, for the single pages copy-on-write and a creeping heap ask for, twice
// what the last such batch held, up to maxBatchBytes. Caller holds mu.
func (h *Heap) newPage(need int) *page {
	if len(h.fresh) == 0 {
		if need == 1 {
			h.batchPages = max(min(2*h.batchPages, maxBatchBytes/h.pageSize), 1)
			need = h.batchPages
		}
		h.fresh = newBatch(need, h.pageSize)
	}
	p := &h.fresh[0]
	h.fresh = h.fresh[1:]
	return p
}

// keep puts p, which copy-on-write just displaced, on the displaced list for
// the run after the next Reset: if it is this heap's own, is not there
// already (a Restore can bring a displaced page back to be displaced again),
// and pins no more than the cap allows. A page pins its batch, so the first
// page of a batch to be kept is charged all of it and its siblings nothing;
// past the cap a batch is refused page after page, and so let go of whole.
// Caller holds mu.
func (h *Heap) keep(p *page) {
	if h.foreign || p.spare {
		return
	}
	if p.batch.spares == 0 {
		if h.spareBytes+p.batch.bytes > maxSpareBytes {
			return
		}
		h.spareBytes += p.batch.bytes
	}
	p.batch.spares++
	p.spare = true
	h.displaced = append(h.displaced, p)
}

// unspare is the bookkeeping of p leaving the free or displaced list. Caller
// holds mu.
func (h *Heap) unspare(p *page) {
	p.spare = false
	if p.batch.spares--; p.batch.spares == 0 {
		h.spareBytes -= p.batch.bytes
	}
}

// Reset returns the heap to the zeroed state of a fresh NewHeapPages(size,
// pageSize) while reusing the page buffers already allocated — the arena-
// recycling primitive behind dsim.Sim.Reset. Only the pages written (or
// installed by Restore) since the last Reset are cleared: a run touches a
// few words of a 64 KiB heap. Retained pages are zeroed in place and the
// pages copy-on-write displaced become available to the next run's copies,
// so every Snapshot of this heap is invalid after Reset. Pages the heap did
// not allocate — installed by a Restore from another heap's snapshot — are
// let go of, never written.
func (h *Heap) Reset(size, pageSize int) {
	if pageSize <= 0 {
		pageSize = DefaultPageSize
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if pageSize != h.pageSize {
		h.pageSize = pageSize
		h.pages, h.free, h.displaced, h.spareBytes = nil, nil, nil, 0
		h.fresh, h.batchPages = nil, 0
	}
	want := min((size+pageSize-1)/pageSize, len(h.pages)) // grow below fills the rest
	if h.foreign {
		want = 0 // not this heap's pages to zero
	}
	clear(h.pages[want:])
	h.pages = h.pages[:want]
	h.epoch = 0
	for i, p := range h.pages {
		if i/64 < len(h.dirty) && h.dirty[i/64]&(1<<(i%64)) != 0 {
			clear(p.data)
		}
		p.epoch = 0
	}
	clear(h.dirty)
	poison := slab.Poisoning()
	for _, p := range h.displaced {
		// A Restore may have put a displaced page back in the heap.
		if h.restored && slices.Contains(h.pages, p) {
			h.unspare(p)
			continue
		}
		if poison {
			for i := range p.data {
				p.data[i] = 0xDB
			}
		}
		h.free = append(h.free, p)
	}
	clear(h.displaced)
	h.displaced = h.displaced[:0]
	h.foreign, h.restored, h.clean = false, false, nil
	h.size = want * pageSize
	h.copied, h.writes = 0, 0
	h.grow(size)
}

// Size returns the heap size in bytes.
func (h *Heap) Size() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.size
}

// PageSize returns the page granularity in bytes.
func (h *Heap) PageSize() int { return h.pageSize }

// NumPages returns the number of pages.
func (h *Heap) NumPages() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.pages)
}

// CopiedPages returns how many page copies COW has performed since the heap
// was created. Experiment E2 uses this to show checkpoint cost tracks the
// write set, not the heap size.
func (h *Heap) CopiedPages() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.copied
}

// Writes returns the number of Write operations performed.
func (h *Heap) Writes() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.writes
}

// ensure makes page i privately writable in the current epoch, copying it
// if it is shared with an earlier snapshot — into a recycled page when the
// free list has one. Caller holds mu.
func (h *Heap) ensure(i int) *page {
	p := h.pages[i]
	if p.epoch == h.epoch {
		return p
	}
	cp := h.recycled()
	if cp == nil {
		cp = h.newPage(1)
	}
	copy(cp.data, p.data)
	cp.epoch = h.epoch
	h.pages[i] = cp
	h.copied++
	h.keep(p)
	return cp
}

// Write copies b into the heap at offset off, growing the heap if needed.
func (h *Heap) Write(off int, b []byte) {
	if off < 0 {
		panic(fmt.Sprintf("checkpoint: negative offset %d", off))
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	h.grow(off + len(b))
	h.writes++
	h.clean = nil
	for len(b) > 0 {
		pi := off / h.pageSize
		po := off % h.pageSize
		p := h.ensure(pi)
		h.markDirty(pi)
		n := copy(p.data[po:], b)
		b = b[n:]
		off += n
	}
}

// Read copies len(b) bytes from offset off into b. Reads beyond the current
// size yield zeros.
func (h *Heap) Read(off int, b []byte) {
	if off < 0 {
		panic(fmt.Sprintf("checkpoint: negative offset %d", off))
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	for len(b) > 0 {
		if off >= h.size {
			for i := range b {
				b[i] = 0
			}
			return
		}
		pi := off / h.pageSize
		po := off % h.pageSize
		n := copy(b, h.pages[pi].data[po:])
		b = b[n:]
		off += n
	}
}

// WriteUint64 stores v little-endian at offset off.
func (h *Heap) WriteUint64(off int, v uint64) {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], v)
	h.Write(off, buf[:])
}

// ReadUint64 loads a little-endian uint64 from offset off.
func (h *Heap) ReadUint64(off int) uint64 {
	var buf [8]byte
	h.Read(off, buf[:])
	return binary.LittleEndian.Uint64(buf[:])
}

// Hash returns a 64-bit FNV-1a digest of the heap contents, used by replay
// fidelity checks (identical state ⇔ identical hash with high probability).
func (h *Heap) Hash() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	d := fnv.New64a()
	for _, p := range h.pages {
		d.Write(p.data)
	}
	return d.Sum64()
}

// Snapshot captures the current heap state in O(#pages) pointer copies,
// without copying page data. Subsequent writes to the heap copy pages
// lazily (COW), leaving the snapshot unchanged. A heap that was neither
// written nor restored since its last Snapshot returns that snapshot again.
func (h *Heap) Snapshot() *Snapshot {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.clean != nil {
		return h.clean
	}
	h.epoch++
	h.clean = h.snaps.Put(Snapshot{pageSize: h.pageSize, pages: h.tables.Copy(h.pages), size: h.size, owner: h.owner()})
	return h.clean
}

// owner is what a snapshot taken now records as its owner: the heap, if
// every page it holds is its own.
func (h *Heap) owner() *Heap {
	if h.foreign {
		return nil
	}
	return h
}

// FullSnapshot eagerly deep-copies the entire heap (the traditional
// checkpoint baseline measured in experiment E2/A1).
func (h *Heap) FullSnapshot() *Snapshot {
	h.mu.Lock()
	defer h.mu.Unlock()
	pages := h.tables.Tail(len(h.pages))
	copies := newBatch(len(h.pages), h.pageSize)
	for i, p := range h.pages {
		copy(copies[i].data, p.data)
		pages = append(pages, &copies[i])
	}
	return h.snaps.Put(Snapshot{pageSize: h.pageSize, pages: h.tables.Keep(pages), size: h.size, full: true, owner: h.owner()})
}

// Restore rewinds the heap to the snapshot's state. The heap's size becomes
// the snapshot's size. Restoring is O(#pages) pointer copies; pages become
// shared again and will be re-copied on write.
func (h *Heap) Restore(s *Snapshot) {
	if s.pageSize != h.pageSize {
		panic("checkpoint: restore with mismatched page size")
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	h.epoch++
	clear(h.pages)
	h.pages = append(h.pages[:0], s.pages...)
	h.size = s.size
	h.clean, h.restored = nil, true
	if s.owner != h {
		h.foreign = true
		// Another heap's pages carry that heap's epochs: step past all of
		// them, or a page stamped with the epoch this heap happens to be in
		// would pass for private and be written in place.
		for _, p := range s.pages {
			h.epoch = max(h.epoch, p.epoch+1)
		}
	}
	// The snapshot's pages may come from another heap (NewHeapFrom) or from
	// before a write this heap never saw: every installed index is suspect.
	for i := range h.pages {
		h.markDirty(i)
	}
}

// DirtyPagesSince reports how many of the heap's current pages differ (by
// identity) from the given snapshot — the write set since that snapshot.
func (h *Heap) DirtyPagesSince(s *Snapshot) int {
	h.mu.Lock()
	defer h.mu.Unlock()
	n := 0
	for i, p := range h.pages {
		if i >= len(s.pages) || s.pages[i] != p {
			n++
		}
	}
	return n
}

// Snapshot is an immutable capture of a heap's state, valid until the heap
// it was taken from (or the Arena that heap belongs to) is next Reset.
type Snapshot struct {
	pageSize int
	pages    []*page
	size     int
	full     bool
	// owner is the heap that took the snapshot, if it allocated every page
	// in it; nil when some page came out of another heap's snapshot. A heap
	// recycles what copy-on-write displaces only while all it has restored
	// are snapshots it owns.
	owner *Heap
}

// Size returns the captured heap size in bytes.
func (s *Snapshot) Size() int { return s.size }

// PageSize returns the page granularity of the captured heap.
func (s *Snapshot) PageSize() int { return s.pageSize }

// NewHeapFrom materializes a fresh heap initialized to the snapshot's
// contents (pages are shared copy-on-write until written).
func NewHeapFrom(s *Snapshot) *Heap {
	h := NewHeapPages(s.size, s.pageSize)
	h.Restore(s)
	return h
}

// Full reports whether this snapshot was taken eagerly (deep copy).
func (s *Snapshot) Full() bool { return s.full }

// Bytes materializes the snapshot contents as a contiguous byte slice.
func (s *Snapshot) Bytes() []byte {
	out := make([]byte, 0, s.size)
	for _, p := range s.pages {
		out = append(out, p.data...)
	}
	return out[:s.size]
}

// Hash returns the FNV-1a digest of the snapshot contents.
func (s *Snapshot) Hash() uint64 {
	d := fnv.New64a()
	for _, p := range s.pages {
		d.Write(p.data)
	}
	return d.Sum64()
}
