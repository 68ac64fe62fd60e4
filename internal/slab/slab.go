// Package slab is the repository's one run-scoped allocator: a chunked bump
// slab that is rewound, not dropped, when the run it served ends.
//
// A simulation carves thousands of small immutable values per run — clock
// snapshots, record payloads, encoded machine states, checkpoints and their
// page tables — that all die together when the run does. A Slab hands them
// out of a few large chunks and Rewind makes the same chunks available to
// the next run, so a warm pooled run allocates none of them again.
//
// The contract is the one rule every run-scoped structure in internal/dsim,
// internal/vclock and internal/checkpoint follows: everything handed out
// during a run is invalid after Rewind. Carvings are built by appending, so
// what a rewound chunk still holds is never read; Rewind zeroes it all the
// same unless the elements are plain bytes or integers, so that a retained
// chunk does not keep alive what the last run's values pointed to.
//
// Text (text.go) is the slab's counterpart for strings that must outlive
// the run — IDs: carved from blocks the same way, never rewound.
package slab

import (
	"sync/atomic"
	"unsafe"
)

// Sizes, in bytes, whatever the element type. Chunks double from firstChunk
// to maxChunk, so a slab that carves n bytes holds O(log n) chunks below
// maxChunk and n/maxChunk above it. Rewind keeps at most retain bytes of
// chunks: one 200k-step outlier must not pin megabytes in a pooled worker
// that otherwise runs 200-step simulations.
const (
	firstChunk = 1 << 10
	maxChunk   = 64 << 10
	retain     = 256 << 10
)

// Slab is a chunked bump allocator of T. The zero Slab is ready to use; it
// is not safe for concurrent use.
//
// A nil *Slab carves from the Go heap instead — what it hands out is
// ordinary garbage-collected memory with no Rewind to invalidate it — for
// owners that have no run to scope their carvings to.
type Slab[T any] struct {
	// chunks[i] is carved up to its length. Chunks before cur are finished
	// with until the next Rewind; chunks after it are empty.
	chunks [][]T
	cur    int
}

// Tail returns the uncarved tail of the current chunk as an empty slice
// with room for at least n elements. Append to it, then Keep the result.
func (s *Slab[T]) Tail(n int) []T {
	if s == nil {
		return make([]T, 0, n)
	}
	for ; s.cur < len(s.chunks); s.cur++ {
		if c := s.chunks[s.cur]; cap(c)-len(c) >= n {
			return c[len(c):]
		}
	}
	// Every retained chunk is full (or too small for n): add one twice the
	// size of the last, or of exactly n elements if that is more.
	var zero T
	elem := max(int(unsafe.Sizeof(zero)), 1)
	size := firstChunk / elem
	if k := len(s.chunks); k > 0 {
		size = min(2*cap(s.chunks[k-1]), maxChunk/elem)
	}
	s.chunks = append(s.chunks, make([]T, 0, max(size, n, 1)))
	return s.chunks[s.cur]
}

// Keep makes permanent, until the next Rewind, what the caller appended to
// the slice the last Tail returned, and returns it clipped to its length:
// growing a carving can never run into its neighbour. If the appends
// outgrew the tail (out is then an array of its own), out is copied into a
// chunk that holds it.
func (s *Slab[T]) Keep(out []T) []T {
	if s == nil || len(out) == 0 {
		return out[:len(out):len(out)]
	}
	c := s.chunks[s.cur]
	if tail := c[len(c):cap(c)]; len(out) <= len(tail) && &out[0] == &tail[0] {
		s.chunks[s.cur] = c[:len(c)+len(out)]
		return out[:len(out):len(out)]
	}
	return s.Copy(out)
}

// Copy carves a copy of src.
func (s *Slab[T]) Copy(src []T) []T {
	return s.Keep(append(s.Tail(len(src)), src...))
}

// Put carves one element holding v.
func (s *Slab[T]) Put(v T) *T {
	return &s.Keep(append(s.Tail(1), v))[0]
}

// Rewind invalidates everything carved so far and makes the chunks
// available again, releasing those beyond the retention cap to the garbage
// collector.
func (s *Slab[T]) Rewind() {
	var zero T
	elem := max(int(unsafe.Sizeof(zero)), 1)
	kept, held := 0, 0
	for _, c := range s.chunks {
		wipe(c)
		if held+cap(c)*elem <= retain {
			held += cap(c) * elem
			s.chunks[kept] = c[:0]
			kept++
		}
	}
	clear(s.chunks[kept:])
	s.chunks = s.chunks[:kept]
	s.cur = 0
}

// poison makes every Rewind overwrite what it rewinds. It exists for
// use-after-rewind tests and is never set outside them.
var poison atomic.Bool

// Poison switches poisoning of rewound memory on or off and returns the
// previous setting. With it on, Rewind fills rewound bytes and integers
// with a pattern no run produces (0xDB; everything else is zeroed — nil
// pointers — poisoned or not), and owners that recycle memory of their own
// by the same rule (checkpoint.Heap's pages) do the same, so a value that
// outlived its run reads as garbage instead of as the next run's data.
// Correct code cannot tell the difference. Tests only: reach it through a
// package's export_test.go.
func Poison(on bool) (was bool) { return poison.Swap(on) }

// Poisoning reports whether Poison is on.
func Poisoning() bool { return poison.Load() }

// wipe is what Rewind does to the carved part of a chunk. Elements that may
// hold pointers are zeroed: a retained chunk must not pin the pages,
// tables and strings the last run's values pointed to. Bytes and integers
// are left alone, or poisoned.
func wipe[T any](c []T) {
	switch b := any(c).(type) {
	case []byte:
		if poison.Load() {
			for i := range b {
				b[i] = 0xDB
			}
		}
	case []uint64:
		if poison.Load() {
			for i := range b {
				b[i] = 0xDBDBDBDBDBDBDBDB
			}
		}
	default:
		clear(c)
	}
}
