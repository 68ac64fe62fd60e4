package scroll

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/vclock"
)

// randomScrolls builds nProcs scrolls of minRecs..maxRecs random records. A
// sorted scroll has nondecreasing Lamport timestamps — the invariant every
// substrate recording upholds and the streaming merge relies on; an unsorted
// one draws them at random, which only hand-built data does.
func randomScrolls(rng *rand.Rand, nProcs, minRecs, maxRecs int, sorted bool) []*Scroll {
	kinds := []Kind{KindRecv, KindSend, KindRandom, KindTime, KindEnv, KindCkpt, KindFault, KindCustom}
	scrolls := make([]*Scroll, nProcs)
	for p := range scrolls {
		proc := fmt.Sprintf("p%d", p)
		s := NewMemory(proc)
		lam := uint64(0)
		n := minRecs + rng.Intn(maxRecs-minRecs+1)
		for i := 0; i < n; i++ {
			lam += uint64(rng.Intn(3)) // nondecreasing, with ties
			if !sorted {
				lam = uint64(rng.Intn(2 * maxRecs))
			}
			clock := vclock.New()
			for c := 0; c <= rng.Intn(nProcs); c++ {
				clock.Set(fmt.Sprintf("p%d", rng.Intn(nProcs)), uint64(rng.Intn(50)))
			}
			payload := make([]byte, rng.Intn(24))
			rng.Read(payload)
			s.Append(Record{
				Kind:    kinds[rng.Intn(len(kinds))],
				MsgID:   fmt.Sprintf("m%d", rng.Intn(40)),
				Peer:    fmt.Sprintf("p%d", rng.Intn(nProcs)),
				Payload: payload,
				Lamport: lam,
				Clock:   clock,
			})
		}
		scrolls[p] = s
	}
	return scrolls
}

// TestStreamingMatchesBatch is the 50-seed property: over randomized
// multi-process scrolls, the streaming Fingerprinter (k-way merge, cached
// clock suffixes) produces exactly the Digest and Shape of the batch
// Merge+Digest+Shape pipeline, and the incremental Hasher/ShapeAccumulator
// match the batch functions record-for-record. The last seeds build scrolls
// of three segments and more, in and out of Lamport order, so the merge
// cursor and the sort fallback both cross segment boundaries.
func TestStreamingMatchesBatch(t *testing.T) {
	var fp Fingerprinter // deliberately reused across seeds, like the chaos runner
	for seed := int64(1); seed <= 56; seed++ {
		rng := rand.New(rand.NewSource(seed))
		minRecs, maxRecs, sorted := 0, 60, true
		if seed > 50 {
			minRecs, maxRecs, sorted = 3*segLen, 4*segLen+1, seed%2 == 0
		}
		scrolls := randomScrolls(rng, 2+rng.Intn(5), minRecs, maxRecs, sorted)
		merged := Merge(scrolls...)
		wantDigest := Digest(merged)
		wantShape := Shape(merged, 16)

		gotDigest, gotShape := fp.Fingerprint(scrolls, 16)
		if gotDigest != wantDigest {
			t.Fatalf("seed %d: streaming digest %s != batch %s", seed, gotDigest, wantDigest)
		}
		if gotShape != wantShape {
			t.Fatalf("seed %d: streaming shape %s != batch %s", seed, gotShape, wantShape)
		}

		var h Hasher
		var a ShapeAccumulator
		a.Reset(16)
		for i := range merged {
			h.Write(&merged[i])
			a.Add(&merged[i])
		}
		if got := h.Sum(); got != wantDigest {
			t.Fatalf("seed %d: incremental Hasher %s != Digest %s", seed, got, wantDigest)
		}
		if got := a.Sum(); got != wantShape {
			t.Fatalf("seed %d: incremental ShapeAccumulator %s != Shape %s", seed, got, wantShape)
		}
	}
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

// TestShapeBucketZero: bucket 0 must behave as bucket 1 in both paths.
func TestShapeBucketZero(t *testing.T) {
	recs := []Record{{Kind: KindRecv, Proc: "a", Lamport: 3}, {Kind: KindSend, Proc: "b", Lamport: 9}}
	if Shape(recs, 0) != Shape(recs, 1) {
		t.Fatal("Shape(recs, 0) != Shape(recs, 1)")
	}
}

// TestFingerprintAllocs is the regression guard on the streaming pass: a
// warm Fingerprinter must run the whole merge + digest + shape pipeline in
// (near) constant allocations, independent of the record count. The
// allowance covers the two result strings, the shape key sort and the
// final hash state — not per-record work.
func TestFingerprintAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	scrolls := randomScrolls(rng, 4, 0, 200, true)
	var fp Fingerprinter
	fp.Fingerprint(scrolls, 16) // warm the scratch buffers

	allocs := testing.AllocsPerRun(20, func() {
		fp.Fingerprint(scrolls, 16)
	})
	if allocs > 16 {
		t.Fatalf("streaming fingerprint allocates %.0f times per pass; want <= 16 (per-record allocation has crept back in)", allocs)
	}
}
