package scroll

// Streaming fingerprints: the chaos engine fingerprints every run by the
// SHA-256 digest and the coarse event-shape signature of the merged scroll.
// The batch path (Merge + Digest + Shape) materializes every record three
// times and allocates an encode buffer per record; at matrix throughput
// that is a double-digit percentage of the whole run. The types here
// compute both signatures in one pass that allocates nothing once warm, fed
// record by record, and the Fingerprinter performs the global Lamport merge as a
// k-way merge over the per-process scrolls without materializing the
// merged slice. Output is byte-identical to the batch functions, which are
// now thin wrappers (see TestStreamingMatchesBatch).

import (
	"cmp"
	"crypto/sha256"
	"encoding/hex"
	"hash"
	"math/bits"
	"slices"
	"sort"
	"strconv"
	"strings"

	"repro/internal/vclock"
)

// Hasher incrementally computes Digest over a record stream: Write each
// record in merged order, then Sum. The encode buffer is reused across
// records, so a warm Hasher appends records without allocating. The zero
// value is ready to use; Reset recycles it.
type Hasher struct {
	h   hash.Hash
	buf []byte
	sum [sha256.Size]byte
	hex [2 * sha256.Size]byte
}

// Reset discards accumulated state, keeping the scratch buffers.
func (h *Hasher) Reset() {
	if h.h != nil {
		h.h.Reset()
	}
}

// Write feeds one record to the digest.
func (h *Hasher) Write(r *Record) {
	if h.h == nil {
		h.h = sha256.New()
	}
	h.buf = r.appendEncode(h.buf[:0])
	h.h.Write(h.buf)
}

// writeCached feeds one record whose clock suffix was already encoded
// (the Fingerprinter caches it per scroll: consecutive records of a
// process share one immutable clock snapshot between Lamport ticks, so
// re-encoding it for every record is mostly redundant work).
func (h *Hasher) writeCached(r *Record, clockSuffix []byte) {
	if h.h == nil {
		h.h = sha256.New()
	}
	h.buf = r.appendEncodePrefix(h.buf[:0])
	h.buf = append(h.buf, clockSuffix...)
	h.h.Write(h.buf)
}

// Sum returns the hex SHA-256 of the records written so far — identical to
// Digest over the same record sequence.
func (h *Hasher) Sum() string {
	if h.h == nil {
		h.h = sha256.New()
	}
	h.h.Sum(h.sum[:0])
	hex.Encode(h.hex[:], h.sum[:])
	return string(h.hex[:])
}

// shapeKey buckets a record for the event-shape signature. The process is
// its index in the accumulator's name table, so a key is sixteen bytes
// without a pointer: hashing and comparing one never touches a name.
type shapeKey struct {
	win  uint64
	proc uint32
	kind uint32 // a Kind, widened: no padding, so the key hashes and compares as sixteen plain bytes
}

// ShapeAccumulator incrementally computes Shape over a record stream: Add
// each record (any order — the signature is order-independent), then Sum.
// Reset recycles the internal map and scratch for the next stream.
type ShapeAccumulator struct {
	bucket uint64
	counts map[shapeKey]int
	// procs is the name table, in first-seen order; last is the index of the
	// process of the record added last. A stream has a handful of processes
	// and names them by the same interned string record after record, so a
	// miss on last is a short scan that mostly compares pointers.
	procs []string
	last  uint32
	// Scratch for Sum.
	order, rank []uint32
	keys        []shapeKey
	buf         []byte
}

// Reset prepares the accumulator for a new stream with the given Lamport
// bucket width (0 means 1, as in Shape).
func (a *ShapeAccumulator) Reset(bucket uint64) {
	if bucket == 0 {
		bucket = 1
	}
	a.bucket = bucket
	if a.counts == nil {
		a.counts = make(map[shapeKey]int)
	} else {
		clear(a.counts)
	}
	clear(a.procs) // names belong to scrolls that are recycled
	a.procs, a.last = a.procs[:0], 0
}

// Add feeds one record to the signature.
func (a *ShapeAccumulator) Add(r *Record) {
	if a.counts == nil {
		a.Reset(a.bucket)
	}
	i := a.last
	if int(i) >= len(a.procs) || a.procs[i] != r.Proc {
		at := slices.Index(a.procs, r.Proc)
		if at < 0 {
			at = len(a.procs)
			a.procs = append(a.procs, r.Proc)
		}
		i = uint32(at)
		a.last = i
	}
	a.counts[shapeKey{r.Lamport / a.bucket, i, uint32(r.Kind)}]++
}

// FNV-64a parameters (hash/fnv), applied inline so Sum hashes the canonical
// rendering without an fmt round-trip or a hash.Hash allocation.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

func fnvUpdate(h uint64, b []byte) uint64 {
	for _, c := range b {
		h = (h ^ uint64(c)) * fnvPrime64
	}
	return h
}

// Sum returns the shape signature of the records added so far — identical
// to Shape over the same records. The canonical rendering hashed per bucket
// is "proc|kind|window|log2count;", exactly the bytes the fmt-based
// implementation produced, buckets in (proc name, kind, window) order.
func (a *ShapeAccumulator) Sum() string {
	if a.counts == nil {
		a.Reset(a.bucket)
	}
	// Index order becomes name order: order lists the indices by name, rank
	// is its inverse.
	order, rank := a.order[:0], a.rank[:0]
	for i := range a.procs {
		order, rank = append(order, uint32(i)), append(rank, 0)
	}
	slices.SortFunc(order, func(x, y uint32) int { return strings.Compare(a.procs[x], a.procs[y]) })
	for pos, i := range order {
		rank[i] = uint32(pos)
	}
	keys := a.keys[:0]
	for k := range a.counts {
		k.proc = rank[k.proc] // sorts as the name does
		keys = append(keys, k)
	}
	slices.SortFunc(keys, func(x, y shapeKey) int {
		if x.proc != y.proc {
			return cmp.Compare(x.proc, y.proc)
		}
		if x.kind != y.kind {
			return cmp.Compare(x.kind, y.kind)
		}
		return cmp.Compare(x.win, y.win)
	})
	a.order, a.rank, a.keys = order, rank, keys
	h := uint64(fnvOffset64)
	for _, k := range keys {
		k.proc = order[k.proc] // the index again: what counts is keyed by
		buf := append(a.buf[:0], a.procs[k.proc]...)
		buf = append(buf, '|')
		buf = strconv.AppendUint(buf, uint64(k.kind), 10)
		buf = append(buf, '|')
		buf = strconv.AppendUint(buf, k.win, 10)
		buf = append(buf, '|')
		buf = strconv.AppendUint(buf, uint64(bits.Len(uint(a.counts[k]))), 10)
		buf = append(buf, ';')
		a.buf = buf
		h = fnvUpdate(h, buf)
	}
	var out [16]byte
	var raw [8]byte
	for i := 7; i >= 0; i-- { // big-endian, as hash.Hash64.Sum renders
		raw[i] = byte(h)
		h >>= 8
	}
	hex.Encode(out[:], raw[:])
	return string(out[:])
}

// cursor is one scroll's read position during the k-way merge — seg is
// segment k of v, pos the next record in it — plus its clock-suffix cache:
// clockBytes is the encoded suffix of clock. Record clocks are immutable by
// convention and the simulator shares one snapshot across the records
// between two ticks, so handle equality is both sound and frequent. Holding
// the handle keeps the snapshot alive, so its address cannot come back as a
// different clock while it is cached.
type cursor struct {
	v          view
	k          int
	seg        []Record
	pos        int
	clock      vclock.VC
	clockBytes []byte
}

// next steps past the current record, into the next segment when this one
// is used up, and reports whether a record is left.
func (c *cursor) next() bool {
	c.pos++
	if c.pos < len(c.seg) {
		return true
	}
	c.k++
	if c.k == c.v.segs() {
		return false
	}
	c.seg, c.pos = c.v.seg(c.k), 0
	return true
}

// Fingerprinter computes the digest and shape of the globally merged record
// stream of several scrolls in one pass, without materializing the merged
// slice. It is reusable — the chaos runner keeps one per worker — and not
// safe for concurrent use.
//
// The merge assumes each scroll is Lamport-nondecreasing, which every
// substrate recording guarantees (Lamport clocks only advance, and a
// rollback truncates the scroll without rewinding the clock). Scrolls that
// violate the assumption — e.g. hand-built test data — are detected by a
// linear pre-scan and handled by sorting a materialized copy, so the result
// always matches Digest/Shape over Merge.
type Fingerprinter struct {
	hasher  Hasher
	shape   ShapeAccumulator
	cursors []cursor
	all     []Record // fallback scratch for unsorted scrolls
}

// Fingerprint merges the scrolls in global (Lamport, proc, seq) order —
// exactly Merge's order — and returns the Digest and Shape (with the given
// bucket width) of the merged stream.
func (f *Fingerprinter) Fingerprint(scrolls []*Scroll, bucket uint64) (digest, shape string) {
	f.cursors = f.cursors[:0]
	sorted := true
	for _, s := range scrolls {
		v := s.records()
		if v.n == 0 {
			continue
		}
		var last uint64
		for r := range v.all {
			if r.Lamport < last {
				sorted = false
				break
			}
			last = r.Lamport
		}
		// Grow in place so each slot keeps its clock-cache scratch from
		// earlier passes; only the record view and positions are reset, and
		// the cache restarts at the zero VC every pass ends on.
		if n := len(f.cursors); n < cap(f.cursors) {
			f.cursors = f.cursors[:n+1]
		} else {
			f.cursors = append(f.cursors, cursor{})
		}
		c := &f.cursors[len(f.cursors)-1]
		c.v, c.k, c.seg, c.pos = v, 0, v.seg(0), 0
		c.clockBytes = appendEncodeClock(c.clockBytes[:0], c.clock)
	}
	n := len(f.cursors)
	f.hasher.Reset()
	f.shape.Reset(bucket)
	if sorted {
		f.merge()
	} else {
		f.mergeUnsorted()
	}
	digest, shape = f.hasher.Sum(), f.shape.Sum()
	for i := range f.cursors[:n] { // drop record and clock references: scrolls are recycled
		f.cursors[i].v, f.cursors[i].seg, f.cursors[i].clock = view{}, nil, vclock.VC{}
	}
	f.cursors = f.cursors[:0]
	f.all = f.all[:0]
	return digest, shape
}

// feed pushes one merged record through both signatures, reusing c's
// encoded clock suffix when the record's clock is the cached snapshot.
func (f *Fingerprinter) feed(r *Record, c *cursor) {
	if c == nil {
		f.hasher.Write(r)
	} else {
		if r.Clock != c.clock {
			c.clock, c.clockBytes = r.Clock, appendEncodeClock(c.clockBytes[:0], r.Clock)
		}
		f.hasher.writeCached(r, c.clockBytes)
	}
	f.shape.Add(r)
}

// merge streams the cursors in (Lamport, proc, seq) order. The cursor count
// is the process count — single digits — so a linear min scan beats a heap.
func (f *Fingerprinter) merge() {
	live := f.cursors
	for len(live) > 0 {
		minI := 0
		minR := &live[0].seg[live[0].pos]
		for i := 1; i < len(live); i++ {
			r := &live[i].seg[live[i].pos]
			if r.Lamport < minR.Lamport ||
				(r.Lamport == minR.Lamport && (r.Proc < minR.Proc ||
					(r.Proc == minR.Proc && r.Seq < minR.Seq))) {
				minI, minR = i, r
			}
		}
		f.feed(minR, &live[minI])
		if !live[minI].next() {
			// Swap-remove: the exhausted cursor parks beyond len with its
			// scratch intact for the next pass.
			live[minI], live[len(live)-1] = live[len(live)-1], live[minI]
			live = live[:len(live)-1]
		}
	}
}

// mergeUnsorted is the fallback for scrolls recorded out of Lamport order:
// materialize, sort with Merge's comparator, and stream.
func (f *Fingerprinter) mergeUnsorted() {
	all := f.all[:0]
	for _, c := range f.cursors {
		all = c.v.appendTo(all)
	}
	sort.Slice(all, func(i, j int) bool {
		a, b := all[i], all[j]
		if a.Lamport != b.Lamport {
			return a.Lamport < b.Lamport
		}
		if a.Proc != b.Proc {
			return a.Proc < b.Proc
		}
		return a.Seq < b.Seq
	})
	for i := range all {
		f.feed(&all[i], nil)
	}
	f.all = all
}
