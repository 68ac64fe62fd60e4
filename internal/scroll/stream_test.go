package scroll

import (
	"cmp"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash/fnv"
	"maps"
	"math/bits"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/vclock"
)

// Shape is the batch event shape of a record stream (Fingerprinter.Fingerprint
// documents the signature): the streaming accumulator fed one record at a
// time by process name, with no merge. The Fingerprinter must agree with it
// over Merge, and it with shapeModel.
func Shape(recs []Record, bucket uint64) string {
	var a shapeAcc
	a.reset(bucket)
	for i := range recs {
		a.addNamed(&recs[i])
	}
	return a.sum()
}

// shapeModel is the reference semantics of Shape, kept apart from the
// streaming accumulator so that one is never its own oracle: count the
// records of each (process, kind, Lamport window) in a map, render every
// bucket as "proc|kind|window|log2count;" in (process, kind, window) order,
// and hash the rendering with FNV-64a.
func shapeModel(recs []Record, bucket uint64) string {
	if bucket == 0 {
		bucket = 1
	}
	type key struct {
		proc string
		kind Kind
		win  uint64
	}
	counts := map[key]int{}
	for _, r := range recs {
		counts[key{r.Proc, r.Kind, r.Lamport / bucket}]++
	}
	keys := slices.SortedFunc(maps.Keys(counts), func(a, b key) int {
		return cmp.Or(strings.Compare(a.proc, b.proc), cmp.Compare(a.kind, b.kind), cmp.Compare(a.win, b.win))
	})
	h := fnv.New64a()
	for _, k := range keys {
		fmt.Fprintf(h, "%s|%d|%d|%d;", k.proc, k.kind, k.win, bits.Len(uint(counts[k])))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// digestModel is the reference semantics of Digest: SHA-256 over the
// records' encodings, one write per record.
func digestModel(recs []Record) string {
	h := sha256.New()
	for i := range recs {
		h.Write(recs[i].encode())
	}
	return hex.EncodeToString(h.Sum(nil))
}

// scrollSpec shapes the scrolls randomScrolls builds.
type scrollSpec struct {
	scrolls          int
	minRecs, maxRecs int
	// names is the number of distinct process names (0: one per scroll);
	// fewer than scrolls makes scrolls share a name, as no recording does
	// but Merge and the Fingerprinter must still agree on.
	names int
	// maxStep bounds the Lamport step between records of a scroll: 0 makes
	// every record of every scroll tie.
	maxStep int
	// unsorted draws Lamport times at random instead, out of order as only
	// hand-built data is.
	unsorted bool
	// empty is the chance in 8 that a scroll gets no records.
	empty int
}

// shapeKinds are the kinds randomScrolls draws from: every named kind, and
// two (0 and 200) no recording writes.
var shapeKinds = []Kind{0, KindRecv, KindSend, KindRandom, KindTime, KindEnv, KindCkpt, KindFault, KindCustom, 200}

// randomScrolls builds scrolls of random records as sp describes. A sorted
// scroll has nondecreasing Lamport timestamps — the invariant every
// substrate recording upholds and the streaming merge relies on.
func randomScrolls(rng *rand.Rand, sp scrollSpec) []*Scroll {
	names := sp.names
	if names == 0 {
		names = sp.scrolls
	}
	scrolls := make([]*Scroll, sp.scrolls)
	for p := range scrolls {
		s := NewMemory(fmt.Sprintf("p%d", p%names))
		lam := uint64(rng.Intn(3))
		n := sp.minRecs + rng.Intn(sp.maxRecs-sp.minRecs+1)
		if rng.Intn(8) < sp.empty {
			n = 0
		}
		for i := 0; i < n; i++ {
			lam += uint64(rng.Intn(sp.maxStep + 1))
			if sp.unsorted {
				lam = uint64(rng.Intn(2*sp.maxRecs + 1))
			}
			clock := vclock.New()
			for c := 0; c <= rng.Intn(names); c++ {
				clock.Set(fmt.Sprintf("p%d", rng.Intn(names)), uint64(rng.Intn(50)))
			}
			payload := make([]byte, rng.Intn(24))
			rng.Read(payload)
			s.Append(Record{
				Kind:    shapeKinds[rng.Intn(len(shapeKinds))],
				MsgID:   fmt.Sprintf("m%d", rng.Intn(40)),
				Peer:    fmt.Sprintf("p%d", rng.Intn(names)),
				Payload: payload,
				Lamport: lam,
				Clock:   clock,
			})
		}
		scrolls[p] = s
	}
	return scrolls
}

// checkFingerprint fingerprints the scrolls with fp at every bucket width
// and compares both signatures with the batch functions over Merge and
// with the reference models over it.
func checkFingerprint(t *testing.T, fp *Fingerprinter, scrolls []*Scroll, what string) {
	t.Helper()
	merged := Merge(scrolls...)
	wantDigest := digestModel(merged)
	if got := Digest(merged); got != wantDigest {
		t.Fatalf("%s: Digest %s != model %s", what, got, wantDigest)
	}
	for _, bucket := range []uint64{0, 1, 16, 64} {
		wantShape := shapeModel(merged, bucket)
		if got := Shape(merged, bucket); got != wantShape {
			t.Fatalf("%s, bucket %d: Shape %s != model %s", what, bucket, got, wantShape)
		}
		gotDigest, gotShape := fp.Fingerprint(scrolls, bucket)
		if gotDigest != wantDigest {
			t.Fatalf("%s, bucket %d: streaming digest %s != batch %s", what, bucket, gotDigest, wantDigest)
		}
		if gotShape != wantShape {
			t.Fatalf("%s, bucket %d: streaming shape %s != batch %s", what, bucket, gotShape, wantShape)
		}
	}
}

// TestStreamingMatchesBatch is the differential: over randomized scrolls,
// the streaming Fingerprinter (galloping merge, block hashing, shape runs)
// produces exactly the Digest and Shape of Merge, and those match the
// reference models. The seeds mix same-named scrolls, the kinds 0 and 200,
// many-way Lamport ties and empty scrolls; the last seeds build scrolls of
// three segments and more, in and out of Lamport order, so the merge
// cursor and the sort fallback both cross segment boundaries. One
// Fingerprinter serves every case, as the chaos runner's does, growing to
// eight cursors and shrinking again.
func TestStreamingMatchesBatch(t *testing.T) {
	var fp Fingerprinter
	for seed := int64(1); seed <= 56; seed++ {
		rng := rand.New(rand.NewSource(seed))
		sp := scrollSpec{scrolls: 2 + rng.Intn(7), maxRecs: 60, maxStep: []int{0, 1, 2, 5}[rng.Intn(4)], empty: rng.Intn(3)}
		if seed%3 == 0 {
			sp.names = 1 + rng.Intn(sp.scrolls)
		}
		if seed > 50 {
			sp.minRecs, sp.maxRecs, sp.unsorted, sp.empty = 3*segLen, 4*segLen+1, seed%2 == 1, 0
		}
		checkFingerprint(t, &fp, randomScrolls(rng, sp), fmt.Sprintf("seed %d", seed))
	}

	// One cursor gallops past several segments before the next one's head.
	long := NewMemory("b")
	for i := range 3*segLen + 5 {
		long.Append(Record{Kind: Kind(1 + i%3), Lamport: uint64(1 + i/segLen)})
	}
	late := NewMemory("a")
	late.Append(Record{Kind: KindRecv, Lamport: 4})
	late.Append(Record{Kind: KindSend, Lamport: 9})
	checkFingerprint(t, &fp, []*Scroll{NewMemory("e"), late, long, NewMemory("f")}, "galloping")

	// From eight cursors to two on the same Fingerprinter.
	rng := rand.New(rand.NewSource(99))
	checkFingerprint(t, &fp, randomScrolls(rng, scrollSpec{scrolls: 8, minRecs: 40, maxRecs: 80, maxStep: 2}), "eight cursors")
	checkFingerprint(t, &fp, randomScrolls(rng, scrollSpec{scrolls: 2, minRecs: 40, maxRecs: 80, maxStep: 2}), "then two")
}

// TestFingerprintTieOrder: records of two scrolls of one process name that
// tie on Lamport time and sequence merge in argument order — in Merge and
// in the Fingerprinter, sorted or not.
func TestFingerprintTieOrder(t *testing.T) {
	rec := func(lamport uint64, msg string) Record {
		return Record{Kind: KindCustom, Lamport: lamport, MsgID: msg}
	}
	a := NewMemory("a")
	a.Append(rec(1, ""))
	one, two := NewMemory("p"), NewMemory("p")
	for range 2 {
		one.Append(rec(2, "one"))
		two.Append(rec(2, "two"))
	}
	at := func(s *Scroll, i int) Record { return s.Records()[i] }
	want := []Record{at(a, 0), at(one, 0), at(two, 0), at(one, 1), at(two, 1)}
	unsorted := NewMemory("z")
	unsorted.Append(rec(3, ""))
	unsorted.Append(rec(0, ""))
	for _, tc := range []struct {
		name    string
		scrolls []*Scroll
		want    []Record
	}{
		{"sorted", []*Scroll{a, one, two}, want},
		{"with an unsorted scroll", []*Scroll{a, one, two, unsorted}, append([]Record{at(unsorted, 1)}, append(slices.Clone(want), at(unsorted, 0))...)},
	} {
		if got := Merge(tc.scrolls...); !slices.EqualFunc(got, tc.want, func(x, y Record) bool { return x.Proc == y.Proc && x.Seq == y.Seq && x.MsgID == y.MsgID }) {
			t.Errorf("%s: Merge order %v, want %v", tc.name, got, tc.want)
		}
		var fp Fingerprinter
		digest, shape := fp.Fingerprint(tc.scrolls, 1)
		if want := digestModel(tc.want); digest != want {
			t.Errorf("%s: streamed digest %s, want %s", tc.name, digest, want)
		}
		if want := shapeModel(tc.want, 1); shape != want {
			t.Errorf("%s: streamed shape %s, want %s", tc.name, shape, want)
		}
	}
}

// FuzzFingerprint builds scrolls from arbitrary bytes and checks the
// streamed fingerprint against Merge and the reference models. The first
// byte picks the scroll count and how many names they share; every further
// three bytes append a record: its scroll, its Lamport step (or, with the
// top bit set, a time at random — out of order), and its kind.
func FuzzFingerprint(f *testing.F) {
	f.Add([]byte{0x32, 0, 1, 1, 1, 0, 2, 2, 0, 3})
	f.Add([]byte{0x77, 0, 0, 1, 1, 0, 1, 2, 0, 200, 3, 0x85, 0, 4, 1, 7, 5, 0, 6, 6, 2, 8, 7, 0, 1})
	f.Add([]byte{0x11, 0, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, b []byte) {
		if len(b) == 0 || len(b) > 3*4*segLen {
			return
		}
		n, names := 1+int(b[0]&7), 1+int(b[0]>>4&7)
		scrolls := make([]*Scroll, n)
		lam := make([]uint64, n)
		for i := range scrolls {
			scrolls[i] = NewMemory(fmt.Sprintf("p%d", i%names))
		}
		for b = b[1:]; len(b) >= 3; b = b[3:] {
			i := int(b[0]) % n
			if b[1]&0x80 != 0 {
				lam[i] = uint64(b[1] & 0x7f)
			} else {
				lam[i] += uint64(b[1])
			}
			clock := vclock.New()
			clock.Set(fmt.Sprintf("p%d", b[2]%8), uint64(b[1]))
			scrolls[i].Append(Record{Kind: Kind(b[2]), Lamport: lam[i], Payload: b[:1], Clock: clock})
		}
		var fp Fingerprinter
		checkFingerprint(t, &fp, scrolls, "fuzz")
	})
}

// TestFingerprinterUnsortedFallback: scrolls recorded out of Lamport order
// (impossible for substrate recordings, possible for hand-built data) must
// still fingerprint identically to the batch pipeline via the sort
// fallback.
func TestFingerprinterUnsortedFallback(t *testing.T) {
	s := NewMemory("p0")
	s.Append(Record{Kind: KindCustom, Lamport: 9})
	s.Append(Record{Kind: KindCustom, Lamport: 3}) // out of order
	s.Append(Record{Kind: KindCustom, Lamport: 7})
	other := NewMemory("p1")
	other.Append(Record{Kind: KindSend, Lamport: 5, Peer: "p0"})

	merged := Merge(s, other)
	var fp Fingerprinter
	gotDigest, gotShape := fp.Fingerprint([]*Scroll{s, other}, 4)
	if want := Digest(merged); gotDigest != want {
		t.Fatalf("unsorted fallback digest %s != batch %s", gotDigest, want)
	}
	if want := Shape(merged, 4); gotShape != want {
		t.Fatalf("unsorted fallback shape %s != batch %s", gotShape, want)
	}
}

// TestScrollTracksLamportOrder: a scroll knows through Append and Truncate
// whether its records are still in Lamport order.
func TestScrollTracksLamportOrder(t *testing.T) {
	s := NewMemory("p")
	for _, lamport := range []uint64{1, 2, 2, 5, 3, 7} {
		s.Append(Record{Lamport: lamport})
	}
	for _, step := range []struct {
		truncate uint64
		sorted   bool
	}{{6, false}, {5, false}, {4, true}, {0, true}} {
		s.Truncate(step.truncate)
		if got := s.records().sorted; got != step.sorted {
			t.Errorf("%d records: sorted = %v, want %v", s.Len(), got, step.sorted)
		}
	}
}

// TestFingerprintRenamedLog: a durable log opened under another process
// name keeps the name its records were written with, so the Fingerprinter
// cannot stream it under the scroll's; it still fingerprints as Merge
// orders it.
func TestFingerprintRenamedLog(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenDurable("a", dir)
	if err != nil {
		t.Fatal(err)
	}
	w.Append(Record{Kind: KindRecv, Lamport: 1})
	w.Append(Record{Kind: KindSend, Lamport: 3})
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	renamed, err := OpenDurable("z", dir)
	if err != nil {
		t.Fatal(err)
	}
	defer renamed.Close()
	other := NewMemory("m")
	other.Append(Record{Kind: KindRecv, Lamport: 3})
	var fp Fingerprinter
	checkFingerprint(t, &fp, []*Scroll{other, renamed}, "renamed log")
}

// TestShapeBucketZero: bucket 0 must behave as bucket 1 in both paths.
func TestShapeBucketZero(t *testing.T) {
	recs := []Record{{Kind: KindRecv, Proc: "a", Lamport: 3}, {Kind: KindSend, Proc: "b", Lamport: 9}}
	if Shape(recs, 0) != Shape(recs, 1) {
		t.Fatal("Shape(recs, 0) != Shape(recs, 1)")
	}
}

// TestFingerprintAllocs is the regression guard on the streaming pass: a
// warm Fingerprinter runs the whole merge + digest + shape pipeline in two
// allocations, the result strings, independent of the record count.
func TestFingerprintAllocs(t *testing.T) {
	for _, recs := range []int{200, 4 * segLen} {
		rng := rand.New(rand.NewSource(7))
		scrolls := randomScrolls(rng, scrollSpec{scrolls: 4, maxRecs: recs, maxStep: 2})
		var fp Fingerprinter
		fp.Fingerprint(scrolls, 16) // warm the scratch buffers
		allocs := testing.AllocsPerRun(20, func() {
			fp.Fingerprint(scrolls, 16)
		})
		if allocs > 2 {
			t.Errorf("streaming fingerprint of up to %d records a scroll allocates %.1f times per pass; want <= 2, the result strings", recs, allocs)
		}
	}
}
