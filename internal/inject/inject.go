// Package inject is the data form of fault injection and its one evaluator.
// An Injection says what to perturb, where and when; a Store holds the armed
// ones and answers what a backend asks per message, timer and clock read.
// The simulator (internal/dsim) and the live hub (transport.ChaosNet) each
// keep a Store and ask it at their own call sites with their own seeded rng,
// so a kind means the same thing on both. internal/fault re-exports Kind and
// Injection under the names the tree uses; this leaf imports nothing of FixD.
package inject

import (
	"fmt"
	"math/rand"
	"slices"
)

// Kind classifies injected faults.
type Kind int

// Injected fault kinds.
const (
	Crash     Kind = iota // process stops executing
	Restart               // crashed process restarts from its checkpoint
	Partition             // network split for a time window
	Delay                 // fixed extra message latency in a window
	Reorder               // seeded latency jitter that reorders channels
	Duplicate             // probabilistic message duplication in a window
	Drop                  // probabilistic message loss in a window
	ClockSkew             // offset applied to one process's observed clock
	Rollback              // deliberate rollback to the latest checkpoint (new timeline epoch)
	Corrupt               // probabilistic deterministic payload mutation (byzantine corruption)
	SlowNode              // per-process handler slowdown (resource exhaustion)
)

// NumKinds is one past the highest declared Kind; kinds has one row for
// each, and chaos.TestKindTableComplete fails a kind left without one.
const NumKinds = int(SlowNode) + 1

// Class is how a kind acts, which is all a backend needs to know of it: a
// Control kind is a point event on Proc at At that the backend delivers to
// the process itself; every other class is a rule the Store evaluates. The
// zero Class is that of an undeclared kind, which arms nothing.
type Class uint8

const (
	_              Class = iota
	Control              // crash, restart, rollback
	classPartition       // Store.Partitioned
	classDelay           // Store.Delay
	classDrop            // Store.Hit(Drop)
	classDup             // Store.Hit(Duplicate)
	classCorrupt         // Store.Hit(Corrupt), then Mutate
	classSkew            // Store.Skewed
	classSlow            // Store.Slow
	numClasses
)

// kinds is the one row per kind: the stable lowercase name schedule
// artifacts and error messages print, the kind's class, and reads — an
// Injection with a 1 in each intensity field the kind's rule reads. Add
// zeroes the rest, which is all that tells a Delay (no jitter, no draw)
// from a Reorder.
var kinds = [NumKinds]struct {
	name  string
	class Class
	reads Injection
}{
	Crash:     {"crash", Control, Injection{}},
	Restart:   {"restart", Control, Injection{}},
	Partition: {"partition", classPartition, Injection{}},
	Delay:     {"delay", classDelay, Injection{Extra: 1}},
	Reorder:   {"reorder", classDelay, Injection{Extra: 1, Jitter: 1}},
	Duplicate: {"duplicate", classDup, Injection{Prob: 1}},
	Drop:      {"drop", classDrop, Injection{Prob: 1}},
	ClockSkew: {"clock-skew", classSkew, Injection{Skew: 1}},
	Rollback:  {"rollback", Control, Injection{}},
	Corrupt:   {"corrupt", classCorrupt, Injection{Prob: 1}},
	SlowNode:  {"slow-node", classSlow, Injection{Extra: 1}},
}

// String returns the kind name.
func (k Kind) String() string {
	if uint(k) < uint(NumKinds) {
		return kinds[k].name
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Class returns the kind's class, zero for a kind that is not declared.
func (k Kind) Class() Class {
	if uint(k) < uint(NumKinds) {
		return kinds[k].class
	}
	return 0
}

// Injection is one planned fault. Times are virtual ticks — the backend
// defines their duration — and windows are half-open: [At, Until).
type Injection struct {
	Kind   Kind
	Proc   string   // Crash/Restart/Rollback/ClockSkew/SlowNode target
	Group  []string // Partition group A; Delay/Reorder/Duplicate/Drop/Corrupt targets (empty = all messages)
	At     uint64   // virtual time (window start for windowed kinds)
	Until  uint64   // window end for windowed kinds
	Extra  uint64   // Delay/Reorder: fixed extra latency; SlowNode: per-event handler lag
	Jitter uint64   // Reorder: seeded extra latency in [0, Jitter]
	Prob   float64  // Duplicate/Drop/Corrupt: per-message probability
	Skew   int64    // ClockSkew: observed-clock offset
}

// covers reports whether t falls in the injection's window.
func (r *Injection) covers(t uint64) bool { return t >= r.At && t < r.Until }

// touches reports whether the rule applies to a from->to message at time t:
// t is in the window and either endpoint is in Group (empty = all). Schedules
// are normalized to <= 8 scenarios of <= 16 targets: a scan beats a set.
func (r *Injection) touches(from, to string, t uint64) bool {
	return r.covers(t) && (len(r.Group) == 0 || slices.Contains(r.Group, from) || slices.Contains(r.Group, to))
}

// Store is the rule set armed on one backend: per class, the injections in
// arm order. The zero Store is empty. It does no locking, and draws only
// from the rng its caller passes — on the simulator the order is a
// contract: one draw per matching rule, in arm order, hit or not.
type Store struct {
	rules [numClasses][]Injection
}

// Add arms inj, keeping only the fields its kind reads. inj.Group is
// retained, not copied: it must not change until Reset. Control and
// undeclared kinds are not rules; Add ignores them.
func (s *Store) Add(inj Injection) {
	c := inj.Kind.Class()
	if c <= Control {
		return
	}
	reads := &kinds[inj.Kind].reads
	inj.Extra, inj.Jitter = inj.Extra*reads.Extra, inj.Jitter*reads.Jitter
	inj.Prob, inj.Skew = inj.Prob*reads.Prob, inj.Skew*reads.Skew
	s.rules[c] = append(s.rules[c], inj)
}

// Reset disarms every rule, keeping the slices for the next run.
func (s *Store) Reset() {
	for c := range s.rules {
		s.rules[c] = s.rules[c][:0]
	}
}

// Partitioned reports whether a from->to message is cut at time t: some
// partition in its window has exactly one endpoint in its group.
func (s *Store) Partitioned(from, to string, t uint64) bool {
	for i := range s.rules[classPartition] {
		r := &s.rules[classPartition][i]
		if r.covers(t) && slices.Contains(r.Group, from) != slices.Contains(r.Group, to) {
			return true
		}
	}
	return false
}

// Delay sums the extra latency of every delay and reorder rule touching a
// from->to message sent at time t; each one with jitter draws from rng.
func (s *Store) Delay(rng *rand.Rand, from, to string, t uint64) uint64 {
	var d uint64
	for i := range s.rules[classDelay] {
		r := &s.rules[classDelay][i]
		if !r.touches(from, to, t) {
			continue
		}
		d += r.Extra
		if r.Jitter > 0 {
			d += uint64(rng.Int63n(int64(r.Jitter + 1)))
		}
	}
	return d
}

// Hit reports whether some rule of kind — Drop, Duplicate or Corrupt —
// strikes a from->to message at time t. Every touching rule consumes its
// draw, so evaluation does not depend on which rule hit first.
func (s *Store) Hit(rng *rand.Rand, kind Kind, from, to string, t uint64) bool {
	hit := false
	rules := s.rules[kind.Class()]
	for i := range rules {
		if r := &rules[i]; r.touches(from, to, t) && rng.Float64() < r.Prob {
			hit = true
		}
	}
	return hit
}

// Slow sums the handler lag of every slow-node rule covering proc at time
// t: what a delivery to proc, or one of proc's own timers, arrives late by.
func (s *Store) Slow(proc string, t uint64) uint64 {
	var d uint64
	for i := range s.rules[classSlow] {
		if r := &s.rules[classSlow][i]; r.Proc == proc && r.covers(t) {
			d += r.Extra
		}
	}
	return d
}

// Skewed returns the clock proc observes at time t: t plus every covering
// skew rule's offset, clamped at 0.
func (s *Store) Skewed(proc string, t uint64) uint64 {
	v := int64(t)
	for i := range s.rules[classSkew] {
		if r := &s.rules[classSkew][i]; r.Proc == proc && r.covers(t) {
			v += r.Skew
		}
	}
	return uint64(max(v, 0))
}

// Mutate is the corruption itself: one seeded byte of p, which must not be
// empty, xor'd with a seeded non-zero mask, so p always changes. Callers
// pass a copy — the original backs the sender's scroll record.
func Mutate(rng *rand.Rand, p []byte) {
	i := rng.Intn(len(p))
	p[i] ^= byte(1 + rng.Intn(255))
}
