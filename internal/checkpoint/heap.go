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
//     checkpoint costs O(pages touched), not O(heap size). A page appears
//     when it is first written — one never written is absent and reads as
//     zeros — and the table ends at the highest page written, so what a
//     snapshot copies is as long as the span written, not the heap. This
//     reproduces the copy-on-write shadow mechanism of Flashback and of
//     distributed speculations (paper §4.2: "Speculations use a
//     copy-on-write mechanism to build lightweight, incremental checkpoints
//     of processes").
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
// restores (Checkpoint.Restore unmarshals it into the live machine, as
// restores always have), the Healer's state mappers and the Investigator's models. The
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
//   - Restore — how checkpointed state becomes machine state:
//     Checkpoint.Restore (the heap half is Heap.Restore; both run inside
//     dsim.Kernel.Restore). Bytes that come from no checkpoint — a dynamic
//     update's, the Investigator's — load through RestoreState.
//   - The timeline fence — what of the abandoned timeline must not survive
//     a deliberate rollback to a checkpoint: Store.PruneAfter (its later
//     checkpoints) and Cells.Fence (its stable-storage puts, cut at the
//     checkpoint's Disk); both backends call them from dsim.Kernel.Abandon.
//     Cells is the one stable store; the live backend adds a write-ahead
//     log around it.
//
// What stays per backend is how a process is paused, locked and re-armed
// around those calls; the process-local half is dsim.Kernel's.
//
// # Run-scoped memory
//
// A simulation that is Reset and run again allocates none of this twice.
// An Arena carves state encodings, Snapshot headers and page tables out of
// slabs (internal/slab) that Rewind hands to the next run; a Heap keeps the
// pages it wrote and those its copy-on-write displaced, and writes and
// copies into them again after Reset; a Store keeps its lists and the
// checkpoint IDs it rendered. One rule covers all three: everything handed
// out during a run — a Snapshot, a Checkpoint, an encoding — is invalid
// after the Reset or Rewind that ends it. (A checkpoint ID is not handed out
// of run-scoped memory: it is an ordinary string, carved from a block of ID
// text that lives as long as any ID in it does.)
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
	"sync"

	"repro/internal/slab"
)

// DefaultPageSize is the copy-on-write unit of a heap made without an
// explicit page size (NewHeap, or a pageSize <= 0). It is sized to the write
// set, not the hardware. A checkpoint copies the w pages written since the
// last one and the page table, which ends at the highest page written: for
// a written span of S bytes that is about p*w + 8*S/p bytes, least at
// p = sqrt(8*S/w). Measured on long simulations of the applications that
// use the heap: tokenring's processes write within the first 64 B and
// bank's within the first 384 B, one page and w = 1 at any size; kvstore's
// write 64 words 512 B apart, S = 32 KiB, and w = 3.85 pages at 256 B
// (3.78 at 1 KiB), which puts its optimum near 260. Page size never reaches
// a digest (chaos.TestPageSizeNotObservable).
const DefaultPageSize = 256

// DefaultHeapSize is a process heap's logical size when its backend is given
// none: what reads as zeros before it is written. Pages are allocated only
// when written, and a write past the size grows it.
const DefaultHeapSize = 64 << 10

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

// maxSpareBytes bounds, in bytes of page data, what the pages a heap keeps
// for reuse pin: a long run's write set must not stay pinned in a pooled
// worker, and a heap that is never Reset must not collect every page it
// ever displaced.
const maxSpareBytes = 256 << 10

// maxBatchBytes bounds, in bytes of page data, the batches pages are
// allocated in: they double from one page up to this, so a heap that writes
// three pages does not allocate thirty-two.
const maxBatchBytes = 32 << 10

// Heap is a paged, growable memory region with copy-on-write snapshots.
// It is safe for concurrent use.
type Heap struct {
	mu       sync.Mutex
	pageSize int
	// pages is the page table. It ends at the highest page written (or
	// installed by a Restore); a nil entry is a page never written. Both, and
	// everything past the table up to size, read as zeros.
	pages  []*page
	size   int    // logical, in whole pages
	epoch  uint64 // bumped on every snapshot/restore
	copied uint64 // pages copied due to COW since the last Reset (metric)

	// clean is the last Snapshot taken, for as long as nothing was written
	// or restored since: a checkpoint of an unchanged heap is that snapshot
	// again.
	clean *Snapshot
	// Page recycling. displaced holds the pages COW replaced since the last
	// Reset — snapshots still read them; free holds the ones from before it,
	// and the pages of the table Reset emptied, which ensure uses in place of
	// new allocations. Both only ever hold pages this heap allocated: foreign
	// is set once a Restore installs pages of unknown origin (another heap's
	// snapshot), and from then until Reset — which lets go of every installed
	// page instead of keeping it — nothing is collected. spareBytes is what
	// the two lists pin: the data of every batch with a page on either.
	free, displaced []*page
	spareBytes      int
	foreign         bool
	// Page allocation, behind the recycling: fresh holds the pages of the
	// newest batch not handed out yet, batchPages the size of that batch.
	fresh      []page
	batchPages int
	// Where Snapshot headers and page tables are carved from; nil slabs (a
	// heap that belongs to no Arena) allocate them.
	snaps  *slab.Slab[Snapshot]
	tables *slab.Slab[*page]
}

// NewHeap returns a zeroed heap of the given size in bytes using the
// default page size.
func NewHeap(size int) *Heap { return NewHeapPages(size, DefaultPageSize) }

// NewHeapPages returns a zeroed heap with an explicit page size. It holds no
// page until one is written.
func NewHeapPages(size, pageSize int) *Heap {
	if pageSize <= 0 {
		pageSize = DefaultPageSize
	}
	h := &Heap{pageSize: pageSize}
	h.grow(size)
	return h
}

// grow extends the heap's logical size to at least size bytes, rounded up to
// whole pages. Caller holds mu (or is the constructor).
func (h *Heap) grow(size int) {
	if size > h.size {
		h.size = (size + h.pageSize - 1) / h.pageSize * h.pageSize
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
// found the free list empty. When the batch is used up the next one holds
// twice as many pages, up to maxBatchBytes. Caller holds mu.
func (h *Heap) newPage() *page {
	if len(h.fresh) == 0 {
		h.batchPages = max(min(2*h.batchPages, maxBatchBytes/h.pageSize), 1)
		h.fresh = newBatch(h.batchPages, h.pageSize)
	}
	p := &h.fresh[0]
	h.fresh = h.fresh[1:]
	return p
}

// keep puts p, which copy-on-write just displaced or Reset took out of the
// table, on the displaced list for the run after the next Reset: if it is
// this heap's own, is not there already (a Restore can bring a displaced
// page back into the table), and pins no more than the cap allows. A page
// pins its batch, so the first page of a batch to be kept is charged all of
// it and its siblings nothing; past the cap a batch is refused page after
// page, and so let go of whole. Caller holds mu.
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

// Reset returns the heap to the state of a fresh NewHeapPages(size,
// pageSize) — no pages — while keeping the page buffers it allocated: the
// pages of its table and those copy-on-write displaced go on the free list,
// within the cap, and the next run's first writes and copies take them from
// there, so every Snapshot of this heap is invalid after Reset. This is the
// arena-recycling primitive behind dsim.Sim.Reset. Pages the heap did not
// allocate — installed by a Restore from another heap's snapshot — are let
// go of, never written.
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
	for _, p := range h.pages {
		if p != nil {
			h.keep(p)
		}
	}
	clear(h.pages)
	h.pages = h.pages[:0]
	poison := slab.Poisoning()
	for _, p := range h.displaced {
		if poison {
			for i := range p.data {
				p.data[i] = 0xDB
			}
		}
		h.free = append(h.free, p)
	}
	clear(h.displaced)
	h.displaced = h.displaced[:0]
	h.foreign, h.clean = false, nil
	h.size, h.epoch, h.copied = 0, 0, 0
	h.grow(size)
}

// PageSize returns the page granularity in bytes.
func (h *Heap) PageSize() int { return h.pageSize }

// ensure makes page i privately writable in the current epoch: a page never
// written appears, zeroed, and one shared with an earlier snapshot is
// copied. Both take a recycled page when the free list has one. Caller holds
// mu.
func (h *Heap) ensure(i int) *page {
	for len(h.pages) <= i {
		h.pages = append(h.pages, nil)
	}
	p := h.pages[i]
	if p != nil && p.epoch == h.epoch {
		return p
	}
	cp := h.recycled()
	if cp == nil {
		cp = h.newPage()
	} else if p == nil {
		clear(cp.data) // what it held in an earlier run
	}
	if p != nil {
		copy(cp.data, p.data)
		h.copied++
		h.keep(p)
	}
	cp.epoch = h.epoch
	h.pages[i] = cp
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
	h.clean = nil
	for len(b) > 0 {
		p := h.ensure(off / h.pageSize)
		n := copy(p.data[off%h.pageSize:], b)
		b = b[n:]
		off += n
	}
}

// Read copies len(b) bytes from offset off into b. Pages never written, and
// reads beyond the current size, yield zeros.
func (h *Heap) Read(off int, b []byte) {
	if off < 0 {
		panic(fmt.Sprintf("checkpoint: negative offset %d", off))
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	for len(b) > 0 {
		pi, po := off/h.pageSize, off%h.pageSize
		if pi >= len(h.pages) {
			clear(b)
			return
		}
		n := min(len(b), h.pageSize-po)
		if p := h.pages[pi]; p != nil {
			copy(b, p.data[po:po+n])
		} else {
			clear(b[:n])
		}
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
	return hashPages(h.pages, h.pageSize, h.size)
}

// The 64-bit FNV-1a parameters (hash/fnv). A zero byte leaves the state's
// XOR step unchanged, so hashing n of them is one multiply by prime64^n.
const (
	offset64 = 14695981039346656037
	prime64  = 1099511628211
)

// hashPages is the FNV-1a digest of the size bytes the table holds: nil
// pages, and everything past the table, are zeros and are not read.
func hashPages(pages []*page, pageSize, size int) uint64 {
	zeroPage := pow(prime64, pageSize)
	d := uint64(offset64)
	for _, p := range pages {
		if p == nil {
			d *= zeroPage
			continue
		}
		for _, c := range p.data {
			d ^= uint64(c)
			d *= prime64
		}
	}
	return d * pow(zeroPage, size/pageSize-len(pages))
}

// pow is x^n, mod 2^64.
func pow(x uint64, n int) uint64 {
	r := uint64(1)
	for ; n > 0; n >>= 1 {
		if n&1 != 0 {
			r *= x
		}
		x *= x
	}
	return r
}

// Snapshot captures the current heap state in O(#pages written) pointer
// copies, without copying page data. Subsequent writes to the heap copy pages
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

// Restore rewinds the heap to the snapshot's state. The heap's size becomes
// the snapshot's size, and its table the snapshot's: pages past it are
// zeros again. Restoring is O(#pages) pointer copies; pages become shared
// again and will be re-copied on write.
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
	h.clean = nil
	if s.owner != h {
		h.foreign = true
		// Another heap's pages carry that heap's epochs: step past all of
		// them, or a page stamped with the epoch this heap happens to be in
		// would pass for private and be written in place.
		for _, p := range s.pages {
			if p != nil {
				h.epoch = max(h.epoch, p.epoch+1)
			}
		}
	}
}

// Snapshot is an immutable capture of a heap's state, valid until the heap
// it was taken from (or the Arena that heap belongs to) is next Reset.
type Snapshot struct {
	pageSize int
	pages    []*page // the heap's table, up to the highest page written
	size     int
	// owner is the heap that took the snapshot, if it allocated every page
	// in it; nil when some page came out of another heap's snapshot. A heap
	// recycles what copy-on-write displaced only while all it has restored
	// are snapshots it owns.
	owner *Heap
}

// NewHeapFrom materializes a fresh heap initialized to the snapshot's
// contents (pages are shared copy-on-write until written).
func NewHeapFrom(s *Snapshot) *Heap {
	h := NewHeapPages(s.size, s.pageSize)
	h.Restore(s)
	return h
}

// Hash returns the FNV-1a digest of the snapshot contents.
func (s *Snapshot) Hash() uint64 { return hashPages(s.pages, s.pageSize, s.size) }
