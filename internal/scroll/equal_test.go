package scroll

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/vclock"
	"repro/internal/wal"
)

// checkEqual asserts that Equal agrees with the digests of the merges, both
// ways round, and that the digests agree with what the case expects (so a
// case cannot pass by testing nothing).
func checkEqual(t *testing.T, a, b []*Scroll, want bool, what string) {
	t.Helper()
	if digests := Digest(Merge(a...)) == Digest(Merge(b...)); digests != want {
		t.Fatalf("%s: digests equal = %v, the case expects %v", what, digests, want)
	}
	if got := Equal(a, b); got != want {
		t.Fatalf("%s: Equal(a, b) = %v, digests say %v", what, got, want)
	}
	if got := Equal(b, a); got != want {
		t.Fatalf("%s: Equal(b, a) = %v, digests say %v", what, got, want)
	}
}

// rebuild appends the records of each scroll to a new one of the same name,
// passing every record through mut first (nil: unchanged).
func rebuild(scrolls []*Scroll, mut func(p, i int, r *Record)) []*Scroll {
	out := make([]*Scroll, len(scrolls))
	for p, s := range scrolls {
		out[p] = NewMemory(s.Proc())
		for i, r := range s.Records() {
			if mut != nil {
				mut(p, i, &r)
			}
			out[p].Append(r)
		}
	}
	return out
}

// reloaded writes the records of s to a WAL and loads it under the name
// proc.
func reloaded(t *testing.T, s *Scroll, proc string) *Scroll {
	t.Helper()
	dir := t.TempDir()
	w, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range s.Records() {
		if err := w.Append(r.encode()); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	back, err := OpenDurable(proc, dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { back.Close() })
	return back
}

// reordered rebuilds the scrolls, each with its name table listing the
// scroll's peers in the reverse of the order they first appear in it.
func reordered(scrolls []*Scroll) []*Scroll {
	out := make([]*Scroll, len(scrolls))
	for p, s := range scrolls {
		out[p] = NewMemory(s.Proc())
		var peers []string
		for r := range s.All() {
			if !slices.Contains(peers, r.Peer) {
				peers = append(peers, r.Peer)
			}
		}
		for _, peer := range slices.Backward(peers) {
			out[p].name(peer)
		}
		for r := range s.All() {
			out[p].Append(r)
		}
	}
	return out
}

// onSuperset rehomes a clock on a larger table whose extra ids are zero.
func onSuperset(c vclock.VC) vclock.VC {
	ids, counts := c.Entries()
	out := vclock.NewTable(append(slices.Clone(ids), "extra", "p00", "zz")...).New()
	for i, id := range ids {
		out.Set(id, counts[i])
	}
	return out
}

// fieldMutations change exactly one field Digest encodes.
var fieldMutations = []struct {
	name string
	mut  func(r *Record)
}{
	{"kind", func(r *Record) { r.Kind++ }},
	{"lamport", func(r *Record) { r.Lamport++ }},
	{"msgID", func(r *Record) { r.MsgID += "'" }},
	{"peer", func(r *Record) { r.Peer += "'" }},
	{"payload", func(r *Record) { r.Payload = append(slices.Clone(r.Payload), 0) }},
	{"clock count", func(r *Record) {
		c := vclock.New()
		if r.Clock.Table() != nil {
			c = r.Clock.Copy()
		}
		c.Set("p0", c.Get("p0")+1)
		r.Clock = c
	}},
	{"clock id", func(r *Record) {
		c := vclock.New()
		c.Set("p0'", 1)
		ids, counts := r.Clock.Entries()
		for i, id := range ids {
			c.Set(id+"'", counts[i])
		}
		r.Clock = c
	}},
}

// mutateOne applies mut to one record, drawn at random, of a non-empty
// scroll, at or past record from where the scroll is long enough.
func mutateOne(rng *rand.Rand, scrolls []*Scroll, from int, mut func(r *Record)) []*Scroll {
	var p, at int
	for {
		p = rng.Intn(len(scrolls))
		if n := scrolls[p].Len(); n > 0 {
			at = rng.Intn(n)
			if n > from {
				at = from + rng.Intn(n-from)
			}
			break
		}
	}
	return rebuild(scrolls, func(q, i int, r *Record) {
		if q == p && i == at {
			mut(r)
		}
	})
}

// TestEqualMatchesDigest is the differential for Equal: on every case it
// answers exactly whether the digests of the two merges are equal. The
// cases change each encoded field of one record (in single- and
// multi-segment scrolls, sorted or not, with process names shared or not)
// and make changes the encoding does not see: a nil for an empty payload, a
// clock on a superset table, empty scrolls added or dropped, the scrolls
// listed in another order, a log reopened under another name, name tables
// that list the same peers in another order, and a truncated suffix
// appended again.
func TestEqualMatchesDigest(t *testing.T) {
	for seed := int64(1); seed <= 24; seed++ {
		rng := rand.New(rand.NewSource(seed))
		sp := scrollSpec{scrolls: 1 + rng.Intn(6), minRecs: 1, maxRecs: 60, maxStep: []int{0, 1, 2, 5}[rng.Intn(4)], empty: rng.Intn(3)}
		from := 0
		switch seed % 4 {
		case 1:
			sp.names = 1 + rng.Intn(sp.scrolls)
		case 2:
			sp.unsorted = true
		case 3:
			sp.minRecs, sp.maxRecs, from = segLen, 3*segLen, segLen // cross a segment boundary
		}
		a := randomScrolls(rng, sp)
		what := fmt.Sprintf("seed %d", seed)
		checkEqual(t, a, rebuild(a, nil), true, what+", rebuilt")
		if len(Merge(a...)) == 0 {
			continue // every scroll drew empty: no record to change
		}
		for _, m := range fieldMutations {
			checkEqual(t, a, mutateOne(rng, a, from, m.mut), false, what+", "+m.name)
		}
		checkEqual(t, a, rebuild(a, func(_, _ int, r *Record) { r.Clock = onSuperset(r.Clock) }), true, what+", superset tables")
		// Seq is a record's position and Proc is stored as the scroll's own
		// name, so neither can be changed in place. A log loaded under
		// another name keeps its records' process; a name table that lists
		// the same peers in another order holds the same records.
		b := slices.Clone(a)
		p := rng.Intn(len(b))
		b[p] = reloaded(t, b[p], b[p].Proc()+"'")
		checkEqual(t, a, b, true, what+", a log loaded under another name")
		checkEqual(t, a, reordered(a), true, what+", name tables in another order")
		peerChanged := mutateOne(rng, a, from, func(r *Record) { r.Peer += "'" })
		checkEqual(t, a, reordered(peerChanged), false, what+", name tables in another order, a peer renamed")
	}

	rec := func(lamport uint64, payload []byte) Record {
		return Record{Kind: KindRecv, Lamport: lamport, MsgID: "m", Peer: "q", Payload: payload}
	}
	one := func(name string, recs ...Record) *Scroll {
		s := NewMemory(name)
		for _, r := range recs {
			s.Append(r)
		}
		return s
	}
	p := one("p", rec(1, nil), rec(2, []byte("x")))
	q := one("q", rec(1, []byte("y")))

	checkEqual(t, []*Scroll{one("p", rec(1, nil))}, []*Scroll{one("p", rec(1, []byte{}))}, true, "nil vs empty payload")

	zero := rec(1, nil)
	zero.Clock = vclock.NewTable("p", "q").New()
	checkEqual(t, []*Scroll{one("p", rec(1, nil))}, []*Scroll{one("p", zero)}, true, "zero clock vs all-zero table clock")

	empty := NewMemory("e")
	checkEqual(t, []*Scroll{p, q}, []*Scroll{p, empty, q}, true, "an empty scroll added")
	checkEqual(t, []*Scroll{NewMemory("a"), p}, []*Scroll{p}, true, "an empty scroll dropped")
	checkEqual(t, nil, []*Scroll{NewMemory("a"), NewMemory("b")}, true, "no scrolls vs empty scrolls")
	checkEqual(t, []*Scroll{p, q}, []*Scroll{q, p}, true, "scrolls listed in another order")
	checkEqual(t, []*Scroll{p}, []*Scroll{one("r", rec(1, nil), rec(2, []byte("x")))}, false, "process renamed")
	checkEqual(t, []*Scroll{p, q}, []*Scroll{p, p}, false, "one process twice")

	// A durable log reopened under another name keeps its records' process.
	dir := t.TempDir()
	w, err := OpenDurable("p", dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range p.Records() {
		w.Append(r)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	renamed, err := OpenDurable("z", dir)
	if err != nil {
		t.Fatal(err)
	}
	defer renamed.Close()
	checkEqual(t, []*Scroll{q, renamed}, []*Scroll{p, q}, true, "log reopened under another name")
	checkEqual(t, []*Scroll{q, renamed}, []*Scroll{one("z", p.Records()...), q}, false, "log reopened vs its new name")

	// A truncated suffix appended again, within a segment and across two.
	long := func() *Scroll {
		s := NewMemory("p")
		fill(t, s, 0, 3*segLen+7)
		return s
	}
	for _, cut := range []int{3, segLen - 1, segLen, 2*segLen + 5} {
		s := long()
		s.Truncate(uint64(cut))
		fill(t, s, cut, 3*segLen+7)
		checkEqual(t, []*Scroll{s}, []*Scroll{long()}, true, fmt.Sprintf("truncated at %d and re-appended", cut))
		s.Truncate(uint64(cut))
		fill(t, s, cut, cut+1)
		s.Append(Record{Kind: KindCustom, Lamport: s.at(cut).lamport})
		fill(t, s, cut+2, 3*segLen+7)
		checkEqual(t, []*Scroll{s}, []*Scroll{long()}, false, fmt.Sprintf("truncated at %d and re-appended otherwise", cut))
	}
}

// FuzzEqual checks Equal against the digests over scrolls built from
// arbitrary bytes. The first byte picks the scroll count and how many names
// they share, as in FuzzFingerprint; the second picks the record a change
// hits and the change: one of fieldMutations, a nil for an empty payload, or
// a clock on a superset table. Every further three bytes append a record to
// both scroll sets.
func FuzzEqual(f *testing.F) {
	f.Add([]byte{0x32, 0x00, 0, 1, 1, 1, 0, 2, 2, 0, 3})
	f.Add([]byte{0x77, 0x0b, 0, 0, 1, 1, 0, 1, 2, 0, 200, 3, 0x85, 0, 4, 1, 7, 5, 0, 6, 6, 2, 8, 7, 0, 1})
	f.Add([]byte{0x11, 0x10, 0, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{0x44, 0x11, 1, 3, 5, 2, 0x90, 9, 3, 1, 0})
	f.Fuzz(func(t *testing.T, b []byte) {
		if len(b) < 2 || len(b) > 3*4*segLen {
			return
		}
		n, names := 1+int(b[0]&7), 1+int(b[0]>>4&7)
		change, at := int(b[1])%(len(fieldMutations)+2), int(b[1])/(len(fieldMutations)+2)
		x, y := make([]*Scroll, n), make([]*Scroll, n)
		for i := range x {
			x[i] = NewMemory(fmt.Sprintf("p%d", i%names))
			y[i] = NewMemory(fmt.Sprintf("p%d", i%names))
		}
		lam := make([]uint64, n)
		for k, b := 0, b[2:]; len(b) >= 3; k, b = k+1, b[3:] {
			i := int(b[0]) % n
			if b[1]&0x80 != 0 {
				lam[i] = uint64(b[1] & 0x7f)
			} else {
				lam[i] += uint64(b[1])
			}
			clock := vclock.New()
			clock.Set(fmt.Sprintf("p%d", b[2]%8), uint64(b[1]))
			r := Record{Kind: Kind(b[2]), Lamport: lam[i], MsgID: "m", Payload: b[:b[2]&1], Clock: clock}
			x[i].Append(r)
			if k == at {
				switch change - len(fieldMutations) {
				case 0:
					if len(r.Payload) == 0 {
						r.Payload = nil
					}
				case 1:
					r.Clock = onSuperset(r.Clock)
				default:
					fieldMutations[change].mut(&r)
				}
			}
			y[i].Append(r)
		}
		want := Digest(Merge(x...)) == Digest(Merge(y...))
		if got := Equal(x, y); got != want {
			t.Fatalf("Equal = %v, digests equal = %v", got, want)
		}
	})
}

// TestEqualAllocs: comparing two equal warm scroll sets allocates nothing,
// at any record count.
func TestEqualAllocs(t *testing.T) {
	for _, recs := range []int{200, 4 * segLen} {
		sp := scrollSpec{scrolls: 4, maxRecs: recs, maxStep: 2}
		a := randomScrolls(rand.New(rand.NewSource(7)), sp)
		b := randomScrolls(rand.New(rand.NewSource(7)), sp)
		if !Equal(a, b) {
			t.Fatal("scrolls built from one seed compare unequal")
		}
		if allocs := testing.AllocsPerRun(20, func() { Equal(a, b) }); allocs != 0 {
			t.Errorf("comparing scrolls of up to %d records allocates %.1f times; want 0", recs, allocs)
		}
	}
}
