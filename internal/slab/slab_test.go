package slab

import (
	"bytes"
	"math/rand"
	"testing"
)

// held is the capacity, in elements, of the chunks the slab holds.
func held[T any](s *Slab[T]) int {
	n := 0
	for _, c := range s.chunks {
		n += cap(c)
	}
	return n
}

// TestCarvingsAreStableAndDisjoint: whatever mix of Copy, Put and Tail/Keep
// carves them, values keep their contents until Rewind, never share memory
// (a carving has no spare capacity to grow into), and a rewound slab serves
// a different sequence over the same chunks just as well.
func TestCarvingsAreStableAndDisjoint(t *testing.T) {
	var s Slab[byte]
	run := func(seed int64) {
		r := rand.New(rand.NewSource(seed))
		var got, want [][]byte
		for i := 0; i < 400; i++ {
			n := r.Intn(200)
			if i%97 == 0 {
				n = 3 * maxChunk // larger than any chunk the slab grows by itself
			}
			src := make([]byte, n)
			r.Read(src)
			var out []byte
			switch i % 3 {
			case 0:
				out = s.Copy(src)
			case 1: // built by appending to a tail that is too small for it
				out = s.Keep(append(s.Tail(n/4), src...))
			default:
				out = s.Keep(append(s.Tail(n), src...))
			}
			if cap(out) != len(out) {
				t.Fatalf("carving %d has spare capacity %d", i, cap(out)-len(out))
			}
			got, want = append(got, out), append(want, src)
		}
		for i := range got {
			if !bytes.Equal(got[i], want[i]) {
				t.Fatalf("seed %d: carving %d changed under later carvings", seed, i)
			}
		}
	}
	run(1)
	s.Rewind()
	run(2) // different sizes over the same chunks
}

// TestWarmSlabAllocatesNothing: the second run over a rewound slab finds
// every chunk it needs.
func TestWarmSlabAllocatesNothing(t *testing.T) {
	var s Slab[uint64]
	src := []uint64{1, 2, 3, 4}
	run := func() {
		s.Rewind()
		for i := 0; i < 3000; i++ {
			s.Copy(src)
			s.Put(uint64(i))
		}
	}
	run()
	if allocs := testing.AllocsPerRun(10, run); allocs != 0 {
		t.Errorf("warm slab allocates %.0f times per run, want 0", allocs)
	}
}

// TestChunksGrowGeometrically: a slab that carved n bytes holds O(log n)
// chunks up to maxChunk, not n/firstChunk of them.
func TestChunksGrowGeometrically(t *testing.T) {
	var s Slab[byte]
	for i := 0; i < maxChunk; i++ {
		s.Put(1)
	}
	if n := len(s.chunks); n > 8 {
		t.Errorf("%d bytes took %d chunks", maxChunk, n)
	}
	for _, c := range s.chunks {
		if cap(c) > maxChunk {
			t.Errorf("chunk of %d bytes, cap is %d", cap(c), maxChunk)
		}
	}
}

// TestRewindReleasesBeyondRetention: an outlier run's chunks are not kept.
func TestRewindReleasesBeyondRetention(t *testing.T) {
	var s Slab[uint64]
	for i := 0; i < 4*retain/8; i++ {
		s.Put(uint64(i))
	}
	s.Copy(make([]uint64, retain)) // one carving larger than the whole cap
	if held(&s)*8 <= 4*retain {
		t.Fatalf("slab holds %d bytes after carving more than %d", held(&s)*8, 4*retain)
	}
	s.Rewind()
	if got := held(&s) * 8; got > retain {
		t.Errorf("rewound slab retains %d bytes, cap is %d", got, retain)
	}
	if len(s.chunks) == 0 {
		t.Error("rewound slab kept no chunk at all")
	}
	if p := s.Put(7); *p != 7 {
		t.Error("Put after a releasing Rewind")
	}
}

// TestNilSlab: a nil slab hands out ordinary memory.
func TestNilSlab(t *testing.T) {
	var s *Slab[string]
	a, b := s.Copy([]string{"x", "y"}), s.Put("z")
	if len(a) != 2 || cap(a) != 2 || a[1] != "y" || *b != "z" {
		t.Errorf("nil slab carved %q %q", a, *b)
	}
}

// TestRewindZeroesPointers: a retained chunk must not keep alive what the
// last run's values pointed to.
func TestRewindZeroesPointers(t *testing.T) {
	var p Slab[*int]
	q := p.Put(new(int))
	p.Rewind()
	if *q != nil {
		t.Error("a rewound chunk still holds the last run's pointer")
	}
}

// TestPoison: with poisoning on, rewound bytes and integers read as the
// pattern.
func TestPoison(t *testing.T) {
	defer Poison(Poison(true))
	var b Slab[byte]
	var u Slab[uint64]
	x, y := b.Copy([]byte("payload")), u.Put(7)
	b.Rewind()
	u.Rewind()
	if !bytes.Equal(x, bytes.Repeat([]byte{0xDB}, len(x))) || *y != 0xDBDBDBDBDBDBDBDB {
		t.Errorf("after Rewind: bytes %x, integer %x", x, *y)
	}
}
