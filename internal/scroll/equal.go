package scroll

import (
	"slices"

	"repro/internal/vclock"
)

// Equal reports whether the merged record streams of a and b are equal on
// every field Digest encodes: kind, Lamport time, sequence, process,
// message ID, peer, payload bytes and the clock's non-zero (id, count)
// entries. It is Digest(Merge(a...)) == Digest(Merge(b...)), exactly and
// without hashing: the chaos matrix checks that a cell's second run
// reproduced its first with it.
//
// Scrolls as every substrate records them — in Lamport order, each record
// its scroll's process, the processes named in strictly ascending order —
// are compared scroll by scroll, in place: Merge orders such records by a
// key no two of them share, so two merges are equal exactly when each
// process's scrolls are. That pass copies no record, takes no lock per
// record and allocates nothing. Anything else (hand-built data, a log
// reopened under another name, one process over several scrolls) is
// compared by materializing both merges.
func Equal(a, b []*Scroll) bool {
	if len(a) != len(b) {
		return mergesEqual(a, b)
	}
	for i := range a {
		if a[i].proc != b[i].proc || (i > 0 && a[i-1].proc >= a[i].proc) {
			return mergesEqual(a, b)
		}
	}
	var c comparer
	eq := true
	for i := range a {
		va, vb := a[i].records(), b[i].records()
		if !va.sorted || !vb.sorted {
			return mergesEqual(a, b)
		}
		eq = eq && c.views(va, vb)
	}
	return eq
}

// mergesEqual compares the merges of a and b record by record.
func mergesEqual(a, b []*Scroll) bool {
	ma, mb := Merge(a...), Merge(b...)
	if len(ma) != len(mb) {
		return false
	}
	var c comparer
	for i := range ma {
		if !c.records(&ma[i], &mb[i]) {
			return false
		}
	}
	return true
}

// comparer compares records field by field. The records between two ticks
// of a process share one clock snapshot, and every clock of a simulation
// shares one table, so it remembers the last pair of clocks it found equal
// and the last pair of distinct tables it found to list the same ids.
type comparer struct {
	x, y   vclock.VC
	tx, ty *vclock.Table
}

// views compares two views record by record. Views of equal length have
// their segment boundaries in the same places; peers compare by slot where
// the name tables are equal.
func (c *comparer) views(x, y view) bool {
	if x.n != y.n {
		return false
	}
	names := slices.Equal(x.names, y.names)
	for k := range x.segs() {
		sx, sy := x.seg(k), y.seg(k)
		for i := range sx {
			a, b := &sx[i], &sy[i]
			if a.kind != b.kind || a.lamport != b.lamport || a.msgID != b.msgID || a.payload != b.payload ||
				!(names && a.peer == b.peer || x.names[a.peer] == y.names[b.peer]) || !c.clocks(a.clock, b.clock) {
				return false
			}
		}
	}
	return true
}

// records compares two records on the fields their encodings hold.
func (c *comparer) records(x, y *Record) bool {
	return x.Kind == y.Kind && x.Lamport == y.Lamport && x.Seq == y.Seq &&
		x.Proc == y.Proc && x.MsgID == y.MsgID && x.Peer == y.Peer &&
		string(x.Payload) == string(y.Payload) && c.clocks(x.Clock, y.Clock)
}

// clocks reports whether two clocks have the same non-zero entries, as
// appendEncodeClock writes them.
func (c *comparer) clocks(x, y vclock.VC) bool {
	if x == c.x && y == c.y {
		return true
	}
	xi, xn := x.Entries()
	yi, yn := y.Entries()
	tx, ty := x.Table(), y.Table()
	var eq bool
	switch {
	case tx == ty || (tx == c.tx && ty == c.ty):
		eq = slices.Equal(xn, yn)
	case slices.Equal(xi, yi):
		c.tx, c.ty = tx, ty
		eq = slices.Equal(xn, yn)
	default:
		eq = sparseEqual(xi, xn, yi, yn)
	}
	if eq {
		c.x, c.y = x, y
	}
	return eq
}

// sparseEqual compares the non-zero entries of two clocks on different
// tables, walking both sorted id lists in step.
func sparseEqual(xi []string, xn []uint64, yi []string, yn []uint64) bool {
	i, j := 0, 0
	for {
		for i < len(xn) && xn[i] == 0 {
			i++
		}
		for j < len(yn) && yn[j] == 0 {
			j++
		}
		if i == len(xn) || j == len(yn) {
			return i == len(xn) && j == len(yn)
		}
		if xn[i] != yn[j] || xi[i] != yi[j] {
			return false
		}
		i, j = i+1, j+1
	}
}
