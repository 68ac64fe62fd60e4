package scroll

// Streaming fingerprints: the chaos engine fingerprints every run by the
// SHA-256 Digest and the coarse event shape of the merged scroll, so the
// Fingerprinter computes both in one pass over the per-process scrolls that
// costs little more than hashing the same bytes, and once warm allocates
// only the two result strings:
//
//   - Merge. The scrolls are merged in place in Merge's order — Lamport
//     time, process, sequence, then argument position — with each process
//     ranked once per pass. The merge gallops: it picks the scroll whose
//     head sorts first and emits its records for as long as they sort
//     before the runner-up's head, so the heads are scanned once per run of
//     records, not once per record.
//   - Hashing. Records are encoded back to back into one reused buffer that
//     SHA-256 sees a block of at least hashBlock bytes at a time. A scroll's
//     process field is encoded once per pass, a clock table's id column
//     once per table, and a clock snapshot once for the records sharing it.
//   - Shape. Each process appends a (kind, window, count) run as its records
//     of a kind move to a new window; windows never decrease within a
//     sorted scroll, so there every shape bucket is one run. At the end the
//     runs are laid out by (process, kind), sorted by window where they are
//     not already, and equal buckets merged: no hash map is touched.
//   - Sortedness. A Scroll notes at Append and Truncate whether it is still
//     Lamport-nondecreasing. Every recording is; scrolls that are not
//     (hand-built data) are merged by sorting a materialized copy.
//
// The output is byte-identical to Digest over Merge and to the test-only
// batch Shape: see TestStreamingMatchesBatch and FuzzFingerprint, and the
// goldens the test-only reference models reproduce.

import (
	"cmp"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"math/bits"
	"slices"
	"strconv"
	"strings"

	"repro/internal/vclock"
)

// hashBlock is the least the hasher hands SHA-256 at once: a write per
// ~100-byte record costs more in call overhead than the block function
// spends on the record.
const hashBlock = 8 << 10

// hasher computes Digest over a record stream: encoded records collect in
// buf, which is hashed whenever it holds a block. reset before the first
// record; digest ends the stream.
type hasher struct {
	h   hash.Hash
	buf []byte
	sum [sha256.Size]byte
	hex [2 * sha256.Size]byte
}

func (h *hasher) reset() {
	if h.h == nil {
		h.h, h.buf = sha256.New(), make([]byte, 0, hashBlock+hashBlock/8) // a block, and the record that fills it
	}
	h.h.Reset()
	h.buf = h.buf[:0]
}

// flush hashes the buffered records once they fill a block.
func (h *hasher) flush() {
	if len(h.buf) >= hashBlock {
		h.h.Write(h.buf)
		h.buf = h.buf[:0]
	}
}

// write feeds one record to the digest.
func (h *hasher) write(r *Record) {
	h.buf = r.appendEncode(h.buf)
	h.flush()
}

// digest returns the hex SHA-256 of the records written since reset.
func (h *hasher) digest() string {
	h.h.Write(h.buf)
	h.buf = h.buf[:0]
	h.h.Sum(h.sum[:0])
	hex.Encode(h.hex[:], h.sum[:])
	return string(h.hex[:])
}

// shapeRun counts records of one group — one process and kind — in one
// Lamport window: one shape bucket, or a part of it, as a stream out of
// Lamport order may visit a bucket in several runs, which sum adds up.
type shapeRun struct {
	win   uint64
	count uint32 // a run that would pass MaxUint32 continues in a new one
	next  uint32 // 1 + the index in runs of the group's next run, 0 for its latest
}

// shapeGroup chains the runs of one lane and kind, in stream order.
type shapeGroup struct {
	lane, kind  uint32
	first, last uint32 // indices in runs
}

// shapeLane is one process's place in its shape buckets: the window of its
// latest record (lo is the window's first Lamport time) and, per kind below
// 16 — every named kind — 1 + the index in groups of its runs of that kind
// (0 before the first). Other kinds, which no recording writes, are found
// by a scan of the groups.
type shapeLane struct {
	lo, win uint64
	open    [16]uint32
}

// shapeAcc computes the event shape over a record stream in any order. A
// lane is one process (the Fingerprinter opens one per scroll, so two
// scrolls of one name are two lanes of one rank); records are added to a
// lane, or by process name.
type shapeAcc struct {
	bucket uint64
	names  []string // lane i's process is names[i]
	lanes  []shapeLane
	last   int // the lane addNamed found last
	groups []shapeGroup
	runs   []shapeRun
	// order lists the lanes by name; rank[i] is the position in order of the
	// first lane named as lane i is.
	order, rank []uint32
	// Scratch for sum: the groups in bucket order, and one key's runs.
	byKey []uint32
	span  []shapeRun
	buf   []byte
}

// reset prepares the accumulator for a new stream with the given Lamport
// bucket width (0 means 1).
func (a *shapeAcc) reset(bucket uint64) {
	a.bucket = max(bucket, 1)
	clear(a.names) // names belong to scrolls that are recycled
	a.names, a.lanes, a.groups, a.runs, a.last = a.names[:0], a.lanes[:0], a.groups[:0], a.runs[:0], 0
}

// newLane opens a lane for the named process and returns its index.
func (a *shapeAcc) newLane(proc string) int {
	a.names = append(a.names, proc)
	a.lanes = append(a.lanes, shapeLane{})
	return len(a.lanes) - 1
}

// group returns the index in groups of lane i's runs of kind k, or -1
// before the first.
func (a *shapeAcc) group(i int, k Kind) int {
	if l := &a.lanes[i]; int(k) < len(l.open) {
		return int(l.open[k]) - 1
	}
	for g, grp := range a.groups {
		if grp.lane == uint32(i) && grp.kind == uint32(k) {
			return g
		}
	}
	return -1
}

// add counts a record of the given time and kind in lane i.
func (a *shapeAcc) add(i int, lamport uint64, kind Kind) {
	l := &a.lanes[i]
	if lamport-l.lo >= a.bucket { // wraps, and so holds, when the record is before lo
		l.win = lamport / a.bucket
		l.lo = l.win * a.bucket
	}
	at := uint32(len(a.runs))
	if g := a.group(i, kind); g >= 0 {
		grp := &a.groups[g]
		run := &a.runs[grp.last]
		if run.win == l.win && run.count < math.MaxUint32 {
			run.count++
			return
		}
		run.next, grp.last = at+1, at
	} else {
		a.groups = append(a.groups, shapeGroup{lane: uint32(i), kind: uint32(kind), first: at, last: at})
		if int(kind) < len(l.open) {
			l.open[kind] = uint32(len(a.groups))
		}
	}
	a.runs = append(a.runs, shapeRun{win: l.win, count: 1})
}

// addNamed counts r in the first lane of r's process, opened at its first
// record. A stream has a handful of processes and names each by one
// interned string, so a miss on the last lane is a short scan that mostly
// compares pointers.
func (a *shapeAcc) addNamed(r *Record) {
	i := a.last
	if i >= len(a.names) || a.names[i] != r.Proc {
		if i = slices.Index(a.names, r.Proc); i < 0 {
			i = a.newLane(r.Proc)
		}
		a.last = i
	}
	a.add(i, r.Lamport, r.Kind)
}

// rankLanes orders the lanes by process name into order and rank.
func (a *shapeAcc) rankLanes() {
	order := slices.Grow(a.order[:0], len(a.names))
	for i := range a.names {
		order = append(order, uint32(i))
	}
	slices.SortFunc(order, func(x, y uint32) int { return strings.Compare(a.names[x], a.names[y]) })
	rank := slices.Grow(a.rank[:0], len(order))[:len(order)]
	first := 0
	for pos, i := range order {
		if a.names[i] != a.names[order[first]] {
			first = pos
		}
		rank[i] = uint32(first)
	}
	a.order, a.rank = order, rank
}

// FNV-64a parameters (hash/fnv), applied inline so sum hashes the canonical
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

// sum returns the shape signature of the records added since reset. The
// canonical rendering hashed per bucket is "proc|kind|window|log2count;",
// buckets in (process name, kind, window) order. The groups are sorted
// into that order; a group's runs, in stream order, are in window order
// already when its scroll is sorted, so only the runs of a key that are
// not — or that several lanes of one name share — get sorted.
func (a *shapeAcc) sum() string {
	a.rankLanes()
	key := func(g uint32) (uint32, uint32) { return a.rank[a.groups[g].lane], a.groups[g].kind }
	byKey := slices.Grow(a.byKey[:0], len(a.groups))
	for g := range a.groups {
		byKey = append(byKey, uint32(g))
	}
	slices.SortFunc(byKey, func(x, y uint32) int {
		rx, kx := key(x)
		ry, ky := key(y)
		if rx != ry {
			return cmp.Compare(rx, ry)
		}
		return cmp.Compare(kx, ky)
	})
	byWin := func(x, y shapeRun) int { return cmp.Compare(x.win, y.win) }
	h := uint64(fnvOffset64)
	for i := 0; i < len(byKey); {
		name := a.names[a.groups[byKey[i]].lane]
		rank, kind := key(byKey[i])
		span := a.span[:0]
		for ; i < len(byKey); i++ {
			if r, k := key(byKey[i]); r != rank || k != kind {
				break
			}
			for j := a.groups[byKey[i]].first + 1; j != 0; j = a.runs[j-1].next {
				span = append(span, a.runs[j-1])
			}
		}
		if !slices.IsSortedFunc(span, byWin) {
			slices.SortFunc(span, byWin)
		}
		for j := 0; j < len(span); {
			win, count := span[j].win, uint64(span[j].count)
			for j++; j < len(span) && span[j].win == win; j++ {
				count += uint64(span[j].count)
			}
			buf := append(a.buf[:0], name...)
			buf = append(buf, '|')
			buf = strconv.AppendUint(buf, uint64(kind), 10)
			buf = append(buf, '|')
			buf = strconv.AppendUint(buf, win, 10)
			buf = append(buf, '|')
			buf = strconv.AppendUint(buf, uint64(bits.Len64(count)), 10)
			buf = append(buf, ';')
			a.buf = buf
			h = fnvUpdate(h, buf)
		}
		a.span = span
	}
	a.byKey = byKey
	var out [16]byte
	var raw [8]byte
	binary.BigEndian.PutUint64(raw[:], h) // as hash.Hash64.Sum renders
	hex.Encode(out[:], raw[:])
	return string(out[:])
}

// cursor is one scroll's read position during the merge — seg is segment k
// of v, pos the next record in it and seq that record's sequence — and the
// clock suffix its records share, encoded.
type cursor struct {
	v           view
	k, pos, seq int
	seg         []entry
	i           int    // the argument position, and the shape lane
	rank        uint32 // the process name's rank: see shapeAcc.rankLanes
	clock       clockEncoder
}

// head returns the entry at the cursor.
func (c *cursor) head() *entry { return &c.seg[c.pos] }

// next steps past the current record, into the next segment when this one
// is used up, and reports whether a record is left.
func (c *cursor) next() bool {
	c.pos++
	c.seq++
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

// before reports whether c's head sorts before d's in Merge's order: by
// Lamport time, process, sequence, then argument position.
func (c *cursor) before(d *cursor) bool {
	if a, b := c.head().lamport, d.head().lamport; a != b {
		return a < b
	}
	if c.rank != d.rank {
		return c.rank < d.rank
	}
	if c.seq != d.seq {
		return c.seq < d.seq
	}
	return c.i < d.i
}

// Fingerprinter computes the digest and shape of the globally merged record
// stream of several scrolls in one pass, without materializing the merged
// slice. It is reusable — the chaos runner keeps one per worker — and not
// safe for concurrent use.
type Fingerprinter struct {
	hasher  hasher
	shape   shapeAcc
	cursors []cursor
	live    []*cursor
	all     []Record // the merge of unsorted scrolls
}

// Fingerprint merges the scrolls in Merge's order and returns the Digest
// and the event shape (with the given bucket width) of the merged stream.
//
// The shape is a coarse signature: for every process, the records of each
// kind are counted per Lamport window of the bucket width, and each count
// is collapsed to its log2 bucket (0, 1, 2, 3–4, 5–8, ...). The signature is
// an FNV-64a hex digest of the canonical rendering of those buckets. Two
// runs share a shape when their executions have the same gross structure —
// which processes delivered, sent, faulted, and checkpointed roughly how
// much, in roughly which phase of the run — even when their exact payloads,
// orderings and Lamport values differ. That makes the shape the coverage
// signal for coverage-guided chaos search (internal/chaos): the exact
// Digest distinguishes almost every schedule, so on its own every
// fingerprint is a singleton; the shape deliberately aliases nearby
// interleavings so "new shape" means behaviorally new.
func (f *Fingerprinter) Fingerprint(scrolls []*Scroll, bucket uint64) (digest, shape string) {
	f.hasher.reset()
	f.shape.reset(bucket)
	f.cursors = slices.Grow(f.cursors, len(scrolls))
	f.shape.lanes = slices.Grow(f.shape.lanes, len(scrolls))
	sorted := true
	for _, s := range scrolls {
		v := s.records()
		if v.n == 0 {
			continue
		}
		sorted = sorted && v.sorted
		n := len(f.cursors)
		f.cursors = f.cursors[:n+1] // the slot keeps its scratch from earlier passes
		c := &f.cursors[n]
		c.v, c.k, c.seg, c.pos, c.seq, c.i = v, 0, v.seg(0), 0, 0, f.shape.newLane(s.proc)
		c.clock.reset()
	}
	if sorted {
		f.merge()
	} else {
		f.mergeUnsorted()
	}
	digest, shape = f.hasher.digest(), f.shape.sum()
	for i := range f.cursors { // drop record and clock references: scrolls are recycled
		f.cursors[i].v, f.cursors[i].seg = view{}, nil
		f.cursors[i].clock.reset()
	}
	f.cursors = f.cursors[:0]
	clear(f.all)
	f.all = f.all[:0]
	return digest, shape
}

// merge streams the cursors of sorted scrolls in Merge's order. There is a
// cursor per process — single digits — so a linear scan for the two
// smallest heads beats a heap.
func (f *Fingerprinter) merge() {
	f.shape.rankLanes()
	live := f.live[:0]
	for i := range f.cursors {
		c := &f.cursors[i]
		c.rank = f.shape.rank[c.i]
		live = append(live, c)
	}
	for len(live) > 1 {
		m, r := 0, 1 // the cursors with the first and second head
		if live[1].before(live[0]) {
			m, r = 1, 0
		}
		for i := 2; i < len(live); i++ {
			if live[i].before(live[m]) {
				m, r = i, m
			} else if live[i].before(live[r]) {
				r = i
			}
		}
		c, runnerUp := live[m], live[r]
		for {
			f.emit(c)
			if !c.next() {
				live = slices.Delete(live, m, m+1) // keeps the rest in argument order
				break
			}
			if !c.before(runnerUp) {
				break
			}
		}
	}
	if len(live) == 1 {
		for c := live[0]; ; {
			f.emit(c)
			if !c.next() {
				break
			}
		}
	}
	clear(live[:cap(live)]) // pointers into cursors a later pass may reallocate
	f.live = live[:0]
}

// emit feeds c's head to both signatures, encoded with the clock suffix c
// keeps.
func (f *Fingerprinter) emit(c *cursor) {
	e, names := c.head(), c.v.names
	h := &f.hasher
	h.buf = append(appendRecord(h.buf, e.kind, e.lamport, uint64(c.seq), names[e.proc], e.msgID, names[e.peer], e.payload), c.clock.encode(e.clock)...)
	h.flush()
	f.shape.add(c.i, e.lamport, e.kind)
}

// clockEncoder encodes the clocks of one process's records in turn
// (appendEncodeClock's bytes). Record clocks are immutable by convention
// and the simulator shares one snapshot across the records between two
// ticks, so a record carrying the snapshot encoded last reuses its bytes;
// holding the handle keeps the snapshot alive, so its address cannot come
// back as a different clock while it is cached. The id column of the
// clocks' table is encoded once.
type clockEncoder struct {
	clock vclock.VC // the snapshot bytes encodes
	bytes []byte
	// The id column of the table tab: id i encodes as ids[end[i-1]:end[i]].
	tab *vclock.Table
	ids []byte
	end []int
}

// reset forgets every clock, keeping the buffers.
func (e *clockEncoder) reset() {
	e.clock, e.tab = vclock.VC{}, nil
	e.bytes = appendEncodeClock(e.bytes[:0], e.clock)
}

// encode returns clock's encoding, valid until the next call.
func (e *clockEncoder) encode(clock vclock.VC) []byte {
	if clock == e.clock {
		return e.bytes
	}
	e.clock = clock
	ids, counts := clock.Entries()
	if t := clock.Table(); t != e.tab {
		size := 0
		for _, id := range ids {
			size += binary.MaxVarintLen64 + len(id)
		}
		e.tab, e.ids, e.end = t, slices.Grow(e.ids[:0], size), slices.Grow(e.end[:0], len(ids))
		e.bytes = slices.Grow(e.bytes[:0], size+binary.MaxVarintLen64*(len(ids)+1))
		for _, id := range ids {
			e.ids = appendString(e.ids, id)
			e.end = append(e.end, len(e.ids))
		}
	}
	set := 0
	for _, n := range counts {
		if n != 0 {
			set++
		}
	}
	buf := binary.AppendUvarint(e.bytes[:0], uint64(set))
	start := 0
	for i, n := range counts {
		if n != 0 {
			buf = binary.AppendUvarint(append(buf, e.ids[start:e.end[i]]...), n)
		}
		start = e.end[i]
	}
	e.bytes = buf
	return buf
}

// mergeUnsorted is the merge of scrolls recorded out of Lamport order:
// materialize, sort as Merge does, and stream.
func (f *Fingerprinter) mergeUnsorted() {
	all := f.all[:0]
	for _, c := range f.cursors {
		all = slices.AppendSeq(all, c.v.all)
	}
	sortMerged(all)
	for i := range all {
		f.hasher.write(&all[i])
		f.shape.addNamed(&all[i])
	}
	f.all = all
}
