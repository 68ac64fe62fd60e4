package inject

import (
	"bytes"
	"math/rand"
	"testing"
)

// seen is everything the store can say about one from->to message at one
// tick, asked in the order given by ask.
type seen struct {
	Cut                bool
	Delay              uint64
	Drop, Dup, Corrupt bool
	Slow               uint64 // of the receiver
	Skewed             uint64 // the receiver's clock
}

// asSim asks the questions in the simulator's order: Send (delay, slow lag,
// dup), then delivery (partition, drop, corrupt), and the clock read.
func asSim(s *Store, rng *rand.Rand, from, to string, t uint64) (v seen) {
	v.Delay = s.Delay(rng, from, to, t)
	v.Slow = s.Slow(to, t)
	v.Dup = s.Hit(rng, Duplicate, from, to, t)
	v.Cut = s.Partitioned(from, to, t)
	v.Drop = s.Hit(rng, Drop, from, to, t)
	v.Corrupt = s.Hit(rng, Corrupt, from, to, t)
	v.Skewed = s.Skewed(to, t)
	return v
}

// asHub asks them in ChaosNet.route's order.
func asHub(s *Store, rng *rand.Rand, from, to string, t uint64) (v seen) {
	v.Cut = s.Partitioned(from, to, t)
	v.Delay = s.Delay(rng, from, to, t)
	v.Slow = s.Slow(to, t)
	v.Drop = s.Hit(rng, Drop, from, to, t)
	v.Dup = s.Hit(rng, Duplicate, from, to, t)
	v.Corrupt = s.Hit(rng, Corrupt, from, to, t)
	v.Skewed = s.Skewed(to, t)
	return v
}

// full is an injection of kind k with every field set: window [10, 20),
// aimed at b. What a kind does not read must not matter.
func full(k Kind) Injection {
	return Injection{Kind: k, Proc: "b", Group: []string{"b"}, At: 10, Until: 20,
		Extra: 7, Jitter: 3, Prob: 1, Skew: -4}
}

// TestKindSemantics is the table over [0, NumKinds): armed alone with every
// field set, a kind has exactly its own effect — inside its half-open
// window, on messages touching its target — and no other.
func TestKindSemantics(t *testing.T) {
	// What an a->b message at a tick inside the window sees, per kind;
	// outside the window, and for the control kinds (events for the backend,
	// not rules), nothing: the zero value with the receiver's clock unskewed.
	inside := [NumKinds]func(v *seen){
		Crash:     func(*seen) {},
		Restart:   func(*seen) {},
		Rollback:  func(*seen) {},
		Partition: func(v *seen) { v.Cut = true },
		Delay:     func(v *seen) { v.Delay = 7 },
		Reorder:   func(v *seen) { v.Delay = 7 }, // plus a draw from [0, 3], checked apart
		Duplicate: func(v *seen) { v.Dup = true },
		Drop:      func(v *seen) { v.Drop = true },
		Corrupt:   func(v *seen) { v.Corrupt = true },
		ClockSkew: func(v *seen) { v.Skewed -= 4 },
		SlowNode:  func(v *seen) { v.Slow = 7 },
	}
	for k := Kind(0); int(k) < NumKinds; k++ {
		if inside[k] == nil {
			t.Fatalf("%v: no expectation in this test's table", k)
		}
		if k.Class() == 0 || k.Class() >= numClasses {
			t.Fatalf("%v: class %d", k, k.Class())
		}
		var s Store
		s.Add(full(k))
		rng := rand.New(rand.NewSource(1))
		for _, tick := range []uint64{9, 10, 19, 20} {
			want := seen{Skewed: tick}
			if tick >= 10 && tick < 20 {
				inside[k](&want)
			}
			for _, ask := range []func(*Store, *rand.Rand, string, string, uint64) seen{asSim, asHub} {
				got := ask(&s, rng, "a", "b", tick)
				if k == Reorder && got.Delay >= want.Delay && got.Delay <= want.Delay+3 {
					got.Delay = want.Delay
				}
				if got != want {
					t.Errorf("%v at tick %d: a->b sees %+v, want %+v", k, tick, got, want)
				}
			}
		}
	}
	if Kind(NumKinds).Class() != 0 || Kind(-1).Class() != 0 {
		t.Error("an undeclared kind has a class")
	}
	var s Store
	s.Add(Injection{Kind: Kind(NumKinds), Until: 100, Prob: 1})
	s.Add(Injection{Kind: -1, Until: 100, Prob: 1})
	if got := asSim(&s, rand.New(rand.NewSource(1)), "a", "b", 5); got != (seen{Skewed: 5}) {
		t.Errorf("undeclared kinds armed something: %+v", got)
	}
}

// TestTargetMatching: a group matches either endpoint and an empty group
// every message; a partition cuts exactly the pairs it separates; a slow or
// skewed node is the named process only, and slow lags what it receives.
func TestTargetMatching(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, k := range []Kind{Delay, Reorder, Duplicate, Drop, Corrupt} {
		var scoped, all Store
		scoped.Add(Injection{Kind: k, Group: []string{"b", "x"}, Until: 100, Extra: 1, Prob: 1})
		all.Add(Injection{Kind: k, Until: 100, Extra: 1, Prob: 1})
		struck := func(s *Store, from, to string) bool {
			return asSim(s, rng, from, to, 5) != seen{Skewed: 5}
		}
		for _, c := range []struct {
			from, to string
			want     bool
		}{{"a", "b", true}, {"b", "a", true}, {"x", "x", true}, {"a", "c", false}} {
			if got := struck(&scoped, c.from, c.to); got != c.want {
				t.Errorf("%v on {b,x}: %s->%s struck=%v, want %v", k, c.from, c.to, got, c.want)
			}
			if !struck(&all, c.from, c.to) {
				t.Errorf("%v on everyone: %s->%s not struck", k, c.from, c.to)
			}
		}
	}
	var s Store
	s.Add(Injection{Kind: Partition, Group: []string{"b", "c"}, Until: 100})
	s.Add(Injection{Kind: Partition, Until: 100}) // nobody inside: cuts nothing
	for _, c := range []struct {
		from, to string
		want     bool
	}{{"a", "b", true}, {"c", "a", true}, {"b", "c", false}, {"a", "d", false}, {"b", "b", false}} {
		if got := s.Partitioned(c.from, c.to, 5); got != c.want {
			t.Errorf("partition {b,c}: %s->%s cut=%v, want %v", c.from, c.to, got, c.want)
		}
	}
	s.Add(Injection{Kind: SlowNode, Proc: "b", Until: 100, Extra: 9})
	s.Add(Injection{Kind: SlowNode, Proc: "b", At: 50, Until: 100, Extra: 1})
	s.Add(Injection{Kind: ClockSkew, Proc: "b", Until: 100, Skew: -30})
	if got := [4]uint64{s.Slow("b", 5), s.Slow("a", 5), s.Slow("b", 50), s.Skewed("a", 40)}; got != [4]uint64{9, 0, 10, 40} {
		t.Errorf("Slow(b,5), Slow(a,5), Slow(b,50), Skewed(a,40) = %v, want [9 0 10 40]", got)
	}
	if got := [2]uint64{s.Skewed("b", 40), s.Skewed("b", 20)}; got != [2]uint64{10, 0} {
		t.Errorf("Skewed(b,40), Skewed(b,20) under -30 = %v, want [10 0]: the clock clamps at 0", got)
	}
}

// TestDrawContract pins which calls consume the caller's rng, and how much —
// on the simulator the stream is the artifact.
func TestDrawContract(t *testing.T) {
	// ahead tells whether rng is exactly n Float64 draws ahead of a fresh twin.
	ahead := func(rng *rand.Rand, seed int64, n int) bool {
		twin := rand.New(rand.NewSource(seed))
		for i := 0; i < n; i++ {
			twin.Float64()
		}
		return rng.Int63() == twin.Int63()
	}
	var s Store
	s.Add(Injection{Kind: Delay, Until: 100, Extra: 5, Jitter: 1000}) // Delay ignores Jitter
	s.Add(Injection{Kind: SlowNode, Proc: "b", Until: 100, Extra: 5})
	s.Add(Injection{Kind: ClockSkew, Proc: "b", Until: 100, Skew: 5})
	s.Add(Injection{Kind: Partition, Group: []string{"b"}, Until: 100})
	s.Add(Injection{Kind: Drop, Group: []string{"zz"}, Until: 100, Prob: 1}) // touches nothing here
	rng := rand.New(rand.NewSource(3))
	if v := asSim(&s, rng, "a", "b", 5); v.Delay != 5 || !ahead(rng, 3, 0) {
		t.Errorf("delay, slow, skew, partition and an untouched drop rule: delay %d, want 5, and no draw", v.Delay)
	}
	// Every touching probabilistic rule draws, hit or not, whatever came before.
	for _, k := range []Kind{Duplicate, Drop, Corrupt} {
		var s Store
		s.Add(Injection{Kind: k, Until: 100, Prob: 1})
		s.Add(Injection{Kind: k, Until: 100, Prob: 0})
		s.Add(Injection{Kind: k, At: 50, Until: 100, Prob: 1}) // out of window: no draw
		rng := rand.New(rand.NewSource(4))
		if !s.Hit(rng, k, "a", "b", 5) || !ahead(rng, 4, 2) {
			t.Errorf("%v: want a hit and exactly two draws", k)
		}
	}
	var r Store
	r.Add(Injection{Kind: Reorder, Until: 100, Extra: 2, Jitter: 9})
	r.Add(Injection{Kind: Reorder, Until: 100}) // no jitter: no draw
	rng, twin := rand.New(rand.NewSource(5)), rand.New(rand.NewSource(5))
	if got, want := r.Delay(rng, "a", "b", 5), 2+uint64(twin.Int63n(10)); got != want || rng.Int63() != twin.Int63() {
		t.Errorf("reorder delay %d, want %d from one Int63n(jitter+1) draw", got, want)
	}
}

// TestSimAndHubAgree is the differential: the same injections and the same
// seeded rng, asked in the simulator's order and in the hub's, give every
// message the same verdict, kind by kind. (With several kinds armed the two
// orders interleave their draws differently; the hub is not replayable.)
func TestSimAndHubAgree(t *testing.T) {
	ids := []string{"a", "b", "c"}
	for k := Kind(0); int(k) < NumKinds; k++ {
		var s Store
		s.Add(Injection{Kind: k, Proc: "b", Group: []string{"b"}, At: 5, Until: 40, Extra: 3, Jitter: 6, Prob: 0.5, Skew: -9})
		s.Add(Injection{Kind: k, Proc: "c", At: 20, Until: 60, Extra: 1, Jitter: 2, Prob: 0.3, Skew: 4})
		sim, hub := rand.New(rand.NewSource(int64(k))), rand.New(rand.NewSource(int64(k)))
		pick := rand.New(rand.NewSource(99))
		for i := 0; i < 500; i++ {
			from, to, tick := ids[pick.Intn(3)], ids[pick.Intn(3)], uint64(pick.Intn(70))
			if a, b := asSim(&s, sim, from, to, tick), asHub(&s, hub, from, to, tick); a != b {
				t.Fatalf("%v: message %d %s->%s at %d: sim %+v, hub %+v", k, i, from, to, tick, a, b)
			}
		}
	}
}

// TestResetKeepsStorage: Reset disarms everything without freeing, so a
// pooled simulation re-arms its next run's rules without allocating.
func TestResetKeepsStorage(t *testing.T) {
	var s Store
	group := []string{"a"}
	arm := func() {
		s.Reset()
		for k := Kind(0); int(k) < NumKinds; k++ {
			s.Add(Injection{Kind: k, Proc: "a", Group: group, Until: 10, Extra: 1, Prob: 1, Skew: 1})
		}
	}
	arm()
	if n := testing.AllocsPerRun(20, arm); n != 0 {
		t.Errorf("Reset + Add of every kind allocates %v times, want 0", n)
	}
	s.Reset()
	if got := asSim(&s, rand.New(rand.NewSource(1)), "a", "a", 5); got != (seen{Skewed: 5}) {
		t.Errorf("after Reset the store still says %+v", got)
	}
}

func TestMutateChangesOneByte(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	orig := []byte("payload")
	for i := 0; i < 200; i++ {
		p := bytes.Clone(orig)
		Mutate(rng, p)
		diff := 0
		for j := range p {
			if p[j] != orig[j] {
				diff++
			}
		}
		if diff != 1 {
			t.Fatalf("mutation %d changed %d bytes: %q", i, diff, p)
		}
	}
}
