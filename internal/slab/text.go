package slab

import "strings"

// textBlock is the size of the blocks a Text carves strings from.
const textBlock = 4 << 10

// Text carves immutable strings out of append-only blocks: rendering an ID
// that recurs nowhere (the simulator's "m<N>" past its intern table, the
// store's "ckpt-<proc>-<n>") costs a share of one block allocation instead
// of an allocation each. The zero Text is ready to use; it is not safe for
// concurrent use.
//
// Unlike a Slab there is nothing to rewind, and so no rule to follow: a
// block is written only past what was already carved from it and never
// moves, so a carved string is an ordinary string — valid for as long as
// anything holds it, across any Reset of its owner — and the garbage
// collector frees a block when the last string carved from it dies. What a
// long-lived string costs is the block it pins, textBlock bytes at most.
type Text struct {
	// block is the one being filled. A strings.Builder that has been written
	// to must not be copied, so it is held by pointer: copying a Text is
	// harmless.
	block *strings.Builder
}

// Carve returns a string with the contents of b. A b longer than a block
// is simply converted.
func (t *Text) Carve(b []byte) string {
	if len(b) > textBlock {
		return string(b)
	}
	if t.block == nil || t.block.Cap()-t.block.Len() < len(b) {
		// The old block is not grown — that would move it, and Builder.String
		// shares its memory with what was carved — but left to its strings.
		t.block = new(strings.Builder)
		t.block.Grow(textBlock)
	}
	at := t.block.Len()
	t.block.Write(b)
	return t.block.String()[at:]
}
