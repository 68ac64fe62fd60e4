package slab

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// TestTextCarvingsAreStable: a carved string is the bytes it was carved
// from, whatever is carved after it — ten thousand more, across many blocks —
// and whatever happens to the buffer it was rendered in.
func TestTextCarvingsAreStable(t *testing.T) {
	var x Text
	r := rand.New(rand.NewSource(1))
	var got, want []string
	buf := make([]byte, 0, 2*textBlock)
	for i := 0; i < 300; i++ {
		n := r.Intn(40)
		switch i % 50 {
		case 7:
			n = textBlock // exactly a block
		case 8:
			n = textBlock + 1 + r.Intn(textBlock-1) // longer than one: converted, not carved
		case 9:
			n = textBlock - 3 // leaves the next carving no room
		}
		buf = buf[:n]
		r.Read(buf)
		want = append(want, string(buf))
		got = append(got, x.Carve(buf))
		clear(buf) // the caller's scratch is its own again
	}
	for i := 0; i < 10_000; i++ {
		x.Carve(fmt.Appendf(buf[:0], "m%d", i))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("carving %d (%d bytes) changed under later carvings", i, len(want[i]))
		}
	}
}

// TestTextAllocatesPerBlock: short strings cost a block every few hundred,
// and a copied Text — both copies fill one block — is harmless.
func TestTextAllocatesPerBlock(t *testing.T) {
	var x Text
	id := []byte("m1234567")
	const n = 4 * textBlock / 8
	if got := testing.AllocsPerRun(1, func() {
		for range n {
			x.Carve(id)
		}
	}); got > 2*5 { // a Builder and its array per block; the run may start in a full one
		t.Errorf("%d 8-byte carvings: %v allocations, want 2 per %d-byte block", n, got, textBlock)
	}
	y := x
	a, b, c := x.Carve([]byte("left")), y.Carve([]byte("right")), x.Carve([]byte("again"))
	if a != "left" || b != "right" || c != "again" {
		t.Errorf("carved %q %q %q through a Text and its copy", a, b, c)
	}
	if long := bytes.Repeat([]byte{'z'}, textBlock+1); x.Carve(long) != strings.Repeat("z", textBlock+1) {
		t.Error("a string longer than a block came back changed")
	}
}
