package vclock

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"
	"testing/quick"
)

// ref is the map-based clock this package used to be, kept here as the
// differential oracle for the dense representation. Zero equals absent, so
// it never stores a zero.
type ref map[string]uint64

func (r ref) set(id string, n uint64) {
	if n == 0 {
		delete(r, id)
	} else {
		r[id] = n
	}
}

func (r ref) copy() ref {
	c := ref{}
	for k, n := range r {
		c[k] = n
	}
	return c
}

func (r ref) merge(o ref) {
	for k, n := range o {
		if n > r[k] {
			r[k] = n
		}
	}
}

func (r ref) compare(o ref) Ordering {
	var less, more bool
	for k, n := range r {
		less = less || n < o[k]
		more = more || n > o[k]
	}
	for k, m := range o {
		less = less || r[k] < m
	}
	switch {
	case less && more:
		return Concurrent
	case less:
		return Before
	case more:
		return After
	}
	return Equal
}

func (r ref) String() string {
	ids := make([]string, 0, len(r))
	for k := range r {
		ids = append(ids, k)
	}
	sort.Strings(ids)
	parts := make([]string, len(ids))
	for i, id := range ids {
		parts[i] = fmt.Sprintf("%s:%d", id, r[id])
	}
	return "{" + strings.Join(parts, " ") + "}"
}

// vc builds a clock (on a private table) from (id string, count int) pairs.
func vc(pairs ...any) VC {
	v := New()
	for i := 0; i < len(pairs); i += 2 {
		v.Set(pairs[i].(string), uint64(pairs[i+1].(int)))
	}
	return v
}

func TestTickAndGet(t *testing.T) {
	v := New()
	if got := v.Get("a"); got != 0 {
		t.Fatalf("Get on empty clock = %d, want 0", got)
	}
	v.Tick("a")
	v.Tick("a")
	v.Tick("b")
	if got := v.Get("a"); got != 2 {
		t.Errorf("a = %d, want 2", got)
	}
	if got := v.Get("b"); got != 1 {
		t.Errorf("b = %d, want 1", got)
	}
	if got := (VC{}).Get("a"); got != 0 {
		t.Errorf("Get on the zero VC = %d, want 0", got)
	}
}

func TestTableIndexAndTickAt(t *testing.T) {
	tab := NewTable("c", "a", "b", "a")
	if len(tab.ids) != 3 || tab.Index("a") != 0 || tab.Index("c") != 2 || tab.Index("zz") != -1 {
		t.Fatalf("table = %v", tab.ids)
	}
	v := tab.New()
	v.TickAt(tab.Index("b")).TickAt(tab.Index("b"))
	if v.Get("b") != 2 || v.Table() != tab {
		t.Errorf("TickAt: %v on %p, want {b:2} on %p", v, v.Table(), tab)
	}
	// Ticking an ID outside the table re-homes this clock only.
	w := tab.New()
	v.Tick("bb")
	if v.Get("bb") != 1 || v.Get("b") != 2 || v.Table() == tab || w.Table() != tab || len(tab.ids) != 3 {
		t.Errorf("growth: v=%v w=%v tab=%v", v, w, tab.ids)
	}
}

func TestCompareTable(t *testing.T) {
	tests := []struct {
		name string
		a, b VC
		want Ordering
	}{
		{"both empty", VC{}, VC{}, Equal},
		{"zero VC vs empty", VC{}, New(), Equal},
		{"identical", vc("a", 1, "b", 2), vc("a", 1, "b", 2), Equal},
		{"simple before", vc("a", 1), vc("a", 2), Before},
		{"simple after", vc("a", 3), vc("a", 2), After},
		{"subset before", vc("a", 1), vc("a", 1, "b", 1), Before},
		{"superset after", vc("a", 1, "b", 1), vc("a", 1), After},
		{"concurrent disjoint", vc("a", 1), vc("b", 1), Concurrent},
		{"concurrent crossed", vc("a", 2, "b", 1), vc("a", 1, "b", 2), Concurrent},
		{"zero component equals absent", NewTable("a", "b").New().Tick("a"), vc("a", 1), Equal},
		{"zero VC before anything set", VC{}, vc("x", 1), Before},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.a.Compare(tt.b); got != tt.want {
				t.Errorf("Compare(%v, %v) = %v, want %v", tt.a, tt.b, got, tt.want)
			}
		})
	}
}

func TestCompareAntisymmetry(t *testing.T) {
	inverse := map[Ordering]Ordering{Equal: Equal, Before: After, After: Before, Concurrent: Concurrent}
	pairs := []struct{ a, b VC }{
		{vc("a", 1), vc("a", 2)},
		{vc("a", 1, "b", 5), vc("a", 2, "b", 3)},
		{VC{}, vc("x", 1)},
	}
	for _, p := range pairs {
		ab, ba := p.a.Compare(p.b), p.b.Compare(p.a)
		if inverse[ab] != ba {
			t.Errorf("Compare(%v,%v)=%v but Compare(%v,%v)=%v", p.a, p.b, ab, p.b, p.a, ba)
		}
	}
}

func TestMerge(t *testing.T) {
	a := vc("a", 3, "b", 1)
	b := vc("b", 4, "c", 2)
	a.Merge(b)
	want := vc("a", 3, "b", 4, "c", 2)
	if a.Compare(want) != Equal {
		t.Errorf("Merge = %v, want %v", a, want)
	}
	// b must be unchanged.
	if b.Compare(vc("b", 4, "c", 2)) != Equal {
		t.Errorf("Merge mutated argument: %v", b)
	}
	if a.Merge(VC{}).Compare(want) != Equal {
		t.Errorf("Merge of the zero VC changed the clock: %v", a)
	}
}

func TestCopyIndependence(t *testing.T) {
	a := vc("a", 1)
	c := a.Copy()
	c.Tick("a")
	if a.Get("a") != 1 {
		t.Errorf("Copy is aliased: original changed to %v", a)
	}
	if c.Table() != a.Table() {
		t.Error("Copy left the table")
	}
	(VC{}).Copy().Tick("a") // a copy of the zero VC is a usable clock
}

func TestDominatesOrEqual(t *testing.T) {
	if !vc("a", 2, "b", 1).DominatesOrEqual(vc("a", 2)) {
		t.Error("superset should dominate")
	}
	if vc("a", 1).DominatesOrEqual(vc("a", 2)) {
		t.Error("smaller clock must not dominate")
	}
	if vc("a", 1).DominatesOrEqual(vc("b", 1)) {
		t.Error("concurrent clocks must not dominate")
	}
}

func TestString(t *testing.T) {
	if got, want := vc("b", 2, "a", 1).String(), "{a:1 b:2}"; got != want {
		t.Errorf("String = %q, want %q", got, want)
	}
	if got, want := NewTable("a", "b", "c").New().Tick("b").String(), "{b:1}"; got != want {
		t.Errorf("String with zero components = %q, want %q", got, want)
	}
	if got, want := (VC{}).String(), "{}"; got != want {
		t.Errorf("empty String = %q, want %q", got, want)
	}
}

func TestOrderingString(t *testing.T) {
	for o, want := range map[Ordering]string{Equal: "equal", Before: "before", After: "after", Concurrent: "concurrent", Ordering(42): "Ordering(42)"} {
		if got := o.String(); got != want {
			t.Errorf("Ordering(%d).String() = %q, want %q", int(o), got, want)
		}
	}
}

func TestFromSorted(t *testing.T) {
	v, err := FromSorted([]string{"a", "c"}, []uint64{2, 5})
	if err != nil || v.String() != "{a:2 c:5}" {
		t.Fatalf("FromSorted = %v, %v", v, err)
	}
	for name, in := range map[string]struct {
		ids    []string
		counts []uint64
	}{
		"unsorted":  {[]string{"b", "a"}, []uint64{1, 1}},
		"duplicate": {[]string{"a", "a"}, []uint64{1, 2}},
		"zero":      {[]string{"a", "b"}, []uint64{1, 0}},
		"ragged":    {[]string{"a"}, []uint64{1, 2}},
	} {
		if _, err := FromSorted(in.ids, in.counts); err == nil {
			t.Errorf("%s entries accepted", name)
		}
	}
}

func TestJSON(t *testing.T) {
	for _, tt := range []struct {
		v    VC
		want string
	}{
		{VC{}, "null"},
		{New(), "{}"},
		{vc("b", 2, "a", 1), `{"a":1,"b":2}`},
		{NewTable("a", "b", "<c>").New().Tick("<c>"), `{"\u003cc\u003e":1}`}, // escaped exactly as a map key is
	} {
		got, err := json.Marshal(tt.v)
		if err != nil || string(got) != tt.want {
			t.Errorf("Marshal(%v) = %s, %v; want %s", tt.v, got, err, tt.want)
		}
		var back VC
		if err := json.Unmarshal(got, &back); err != nil || back.Compare(tt.v) != Equal || (back == VC{}) != (tt.v == VC{}) {
			t.Errorf("Unmarshal(%s) = %v, %v; want %v", got, back, err, tt.v)
		}
	}
	var v VC
	if err := json.Unmarshal([]byte(`{"b":3,"a":0,"b":4}`), &v); err != nil || v.String() != "{b:4}" {
		t.Errorf("duplicate/zero keys: %v, %v", v, err)
	}
	if err := json.Unmarshal([]byte(`{"a":-1}`), &v); err == nil {
		t.Error("negative count accepted")
	}
	if !(VC{}).IsZero() || !New().IsZero() || !NewTable("a").New().IsZero() || vc("a", 1).IsZero() {
		t.Error("IsZero disagrees with emptiness")
	}
}

// universe is the ID space the differential test draws from; the shared
// table covers the first four IDs only, so clocks on it meet IDs beyond
// their table too.
var universe = []string{"p0", "p1", "p2", "p3", "p4", "p5"}

// TestQuickDifferential drives random operation sequences against four
// dense clocks and their map reference models: two clocks share one table
// (the index-aligned fast path), one sits on an overlapping table and one
// starts on the empty table (the sorted-merge slow path WAL reload and the
// live backend's wire hit). After every operation every clock must agree
// with its model on String, JSON, Get and Compare against every other.
func TestQuickDifferential(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		shared := NewTable(universe[:4]...)
		vs := []VC{shared.New(), shared.New(), NewTable("p2", "p3", "p4").New(), New()}
		ms := []ref{{}, {}, {}, {}}
		for step := 0; step < 60; step++ {
			i, j := r.Intn(len(vs)), r.Intn(len(vs))
			id := universe[r.Intn(len(universe))]
			switch r.Intn(7) {
			case 0:
				vs[i].Tick(id)
				ms[i][id]++
			case 1:
				if k := vs[i].Table().Index(id); k >= 0 {
					vs[i].TickAt(k)
					ms[i][id]++
				}
			case 2:
				n := uint64(r.Intn(4))
				vs[i].Set(id, n)
				ms[i].set(id, n)
			case 3:
				vs[i].Merge(vs[j])
				ms[i].merge(ms[j])
			case 4:
				vs[i], ms[i] = vs[j].Copy(), ms[j].copy()
			case 5:
				b, err := json.Marshal(vs[j])
				if err != nil || json.Unmarshal(b, &vs[i]) != nil {
					return false
				}
				ms[i] = ms[j].copy()
			case 6:
				vs[i].Reset()
				ms[i] = ref{}
			}
			for a := range vs {
				wantJSON, _ := json.Marshal(map[string]uint64(ms[a]))
				gotJSON, _ := json.Marshal(vs[a])
				if vs[a].String() != ms[a].String() || string(gotJSON) != string(wantJSON) ||
					vs[a].IsZero() != (len(ms[a]) == 0) {
					t.Logf("seed %d step %d: clock %d = %v / %s, model %v / %s", seed, step, a, vs[a], gotJSON, ms[a], wantJSON)
					return false
				}
				for _, id := range universe {
					if vs[a].Get(id) != ms[a][id] {
						return false
					}
				}
				for b := range vs {
					if got, want := vs[a].Compare(vs[b]), ms[a].compare(ms[b]); got != want {
						t.Logf("seed %d step %d: Compare(%v, %v) = %v, want %v", seed, step, vs[a], vs[b], got, want)
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// randVC builds a small random clock for property-based tests: on the
// shared table or a private one, so the properties cover both paths.
func randVC(r *rand.Rand, shared *Table) VC {
	v := New()
	if r.Intn(2) == 1 {
		v = shared.New()
	}
	for _, id := range universe[:4] {
		if r.Intn(2) == 1 {
			v.Set(id, uint64(r.Intn(5)))
		}
	}
	return v
}

func TestQuickMergeIsLUB(t *testing.T) {
	// Property: Merge produces the least upper bound — it dominates both
	// inputs, and any clock dominating both inputs dominates the merge.
	shared := NewTable(universe[:4]...)
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b := randVC(r, shared), randVC(r, shared)
		m := a.Copy().Merge(b)
		if !m.DominatesOrEqual(a) || !m.DominatesOrEqual(b) {
			return false
		}
		// Upper bound u = merge plus arbitrary extra ticks.
		u := m.Copy()
		u.Tick("p0")
		return u.DominatesOrEqual(m)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickCompareConsistentWithDominates(t *testing.T) {
	shared := NewTable(universe[:4]...)
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b := randVC(r, shared), randVC(r, shared)
		switch a.Compare(b) {
		case Equal:
			return a.DominatesOrEqual(b) && b.DominatesOrEqual(a)
		case Before:
			return b.DominatesOrEqual(a) && !a.DominatesOrEqual(b)
		case After:
			return a.DominatesOrEqual(b) && !b.DominatesOrEqual(a)
		case Concurrent:
			return !a.DominatesOrEqual(b) && !b.DominatesOrEqual(a)
		}
		return false
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickTickStrictlyAfter(t *testing.T) {
	shared := NewTable(universe[:4]...)
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a := randVC(r, shared)
		before := a.Copy()
		a.Tick("p1")
		return before.Compare(a) == Before
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestSharedTableConcurrency has N goroutines tick, copy and merge clocks
// of their own that all share one ID table, exchanging snapshots through a
// channel — the live substrate's pattern. The table is the only shared
// state and is immutable, so the race detector must stay quiet, and every
// goroutine's clock must end up dominating everything it received.
func TestSharedTableConcurrency(t *testing.T) {
	const procs, rounds = 8, 200
	ids := make([]string, procs)
	for i := range ids {
		ids[i] = fmt.Sprintf("p%d", i)
	}
	tab := NewTable(ids...)
	inbox := make([]chan VC, procs)
	for i := range inbox {
		inbox[i] = make(chan VC, procs*rounds) // every send fits: no goroutine ever blocks
	}
	final := make([]VC, procs)
	var wg sync.WaitGroup
	for i := 0; i < procs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			own := tab.New()
			self := tab.Index(ids[i])
			for r := 0; r < rounds; r++ {
				own.TickAt(self)
				inbox[(i+r)%procs] <- own.Copy()
				select {
				case got := <-inbox[i]:
					own.Merge(got).Tick(ids[i])
				default:
				}
			}
			final[i] = own
		}(i)
	}
	wg.Wait()
	for i, v := range final {
		if v.Table() != tab {
			t.Errorf("p%d left the shared table", i)
		}
		if got := v.Get(ids[i]); got < rounds {
			t.Errorf("p%d own component = %d, want >= %d", i, got, rounds)
		}
	}
}

// TestArenaSnapshotsAreImmutable pins the snapshot contract: within a run a
// snapshot taken before a Tick is unchanged by it and by any number of later
// snapshots (including the ones that roll the arena over to further chunks);
// Rewind ends the run, and the snapshots of the next one — taken over the
// same memory, without allocating — are just as correct and just as
// disjoint.
func TestArenaSnapshotsAreImmutable(t *testing.T) {
	tab := NewTable("a", "b", "c")
	v := tab.New()
	var a Arena
	run := func() {
		t.Helper()
		var snaps []VC
		var want []string
		for i := 0; i < 2000; i++ { // several chunks of headers and of counts
			v.TickAt(i % 3)
			s := a.Snapshot(v)
			if s.Table() != tab || s.Compare(v) != Equal {
				t.Fatalf("snapshot %d = %v, want %v", i, s, v)
			}
			snaps, want = append(snaps, s), append(want, v.String())
		}
		for i, s := range snaps {
			if s.String() != want[i] {
				t.Fatalf("snapshot %d changed to %v, want %s", i, s, want[i])
			}
		}
	}
	run()
	a.Rewind()
	run() // other counts over the rewound chunks
	a.Rewind()
	v.Reset()
	// A snapshot that is (wrongly) grown must not spill into its neighbour.
	first, second := a.Snapshot(v.Tick("a")), a.Snapshot(v)
	first.Tick("zz")
	if second.String() != "{a:1}" {
		t.Errorf("growing one snapshot corrupted the next: %v", second)
	}
	// A clock wider than any chunk the arena grows by itself still gets a
	// snapshot.
	wide := make([]string, 10_000)
	for i := range wide {
		wide[i] = fmt.Sprintf("w%04d", i)
	}
	w := NewTable(wide...).New().Tick("w0000")
	if s := a.Snapshot(w); s.Compare(w) != Equal {
		t.Errorf("wide snapshot = %v", s)
	}
	warm := func() {
		a.Rewind()
		for i := 0; i < 2000; i++ {
			a.Snapshot(v)
		}
	}
	warm()
	if n := testing.AllocsPerRun(20, warm); n != 0 {
		t.Errorf("a warm run of 2000 snapshots allocates %.0f times, want 0", n)
	}
}

func TestLamport(t *testing.T) {
	var l Lamport
	if l.Now() != 0 {
		t.Fatalf("zero Lamport Now = %d", l.Now())
	}
	if l.Tick() != 1 || l.Tick() != 2 {
		t.Fatal("Tick sequence wrong")
	}
	if got := l.Witness(10); got != 11 {
		t.Errorf("Witness(10) = %d, want 11", got)
	}
	if got := l.Witness(3); got != 12 {
		t.Errorf("Witness(3) after 11 = %d, want 12", got)
	}
}

func TestLamportWitnessMonotonic(t *testing.T) {
	f := func(vals []uint16) bool {
		var l Lamport
		prev := uint64(0)
		for _, v := range vals {
			now := l.Witness(uint64(v))
			if now <= prev {
				return false
			}
			prev = now
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
