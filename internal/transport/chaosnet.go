package transport

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/inject"
)

// ChaosNet interposes fault-injection rules on the live transport's send
// path, so the same chaos.Schedule that perturbs the simulator can perturb
// real goroutines exchanging real messages. The rules are an inject.Store —
// the one the simulator evaluates too — asked under the net's mutex with the
// net's seeded rng; the clock is supplied by the substrate (the live runtime
// maps virtual ticks onto wall time), and tick gives one virtual tick's real
// duration for delays.
//
// A single ChaosNet is shared by every node of a run: Wrap decorates each
// node's Transport so all sends flow through the same rule set and seeded
// RNG. Unlike the simulator the live network is inherently nondeterministic,
// so the RNG only shapes fault probability; it does not make runs
// replayable (see internal/substrate for the capability matrix).
type ChaosNet struct {
	now  func() uint64
	tick time.Duration

	mu     sync.Mutex
	rng    *rand.Rand
	rules  inject.Store
	closed bool
	timers map[uint64]*time.Timer // pending delayed deliveries, by id
	timerN uint64

	inflight atomic.Int64 // delayed sends not yet handed to the inner transport

	delivered  atomic.Uint64
	dropped    atomic.Uint64
	duplicated atomic.Uint64
	corrupted  atomic.Uint64

	tap func(msg Message, verdict string)
}

// NewChaosNet returns an empty rule set. now supplies the current virtual
// tick; tick is one virtual tick's real duration (used to realize injected
// delays); seed drives the fault probability draws.
func NewChaosNet(now func() uint64, tick time.Duration, seed int64) *ChaosNet {
	if tick <= 0 {
		tick = time.Millisecond
	}
	return &ChaosNet{now: now, tick: tick, rng: rand.New(rand.NewSource(seed)),
		timers: make(map[uint64]*time.Timer)}
}

// SetTap installs a delivery-tap callback invoked with every routed message
// and its verdict ("deliver", "drop", "partition", "dup", "corrupt"). The
// live substrate uses it to keep network stats and an injection audit trail.
func (n *ChaosNet) SetTap(tap func(msg Message, verdict string)) { n.tap = tap }

// Inject arms a rule. Message rules act on every send routed from now on;
// a slow node's deliveries are lagged here and its timers by the substrate,
// which asks Slow; a clock skew only answers Skewed.
func (n *ChaosNet) Inject(inj inject.Injection) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.rules.Add(inj)
}

// Slow returns the slow-node lag covering proc at tick t.
func (n *ChaosNet) Slow(proc string, t uint64) uint64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.rules.Slow(proc, t)
}

// Skewed returns the clock proc observes at tick t.
func (n *ChaosNet) Skewed(proc string, t uint64) uint64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.rules.Skewed(proc, t)
}

// InFlight returns the number of delayed sends not yet delivered — part of
// the live substrate's quiescence condition.
func (n *ChaosNet) InFlight() int64 { return n.inflight.Load() }

// Stats returns (delivered, dropped, duplicated) counters.
func (n *ChaosNet) Stats() (delivered, dropped, duplicated uint64) {
	return n.delivered.Load(), n.dropped.Load(), n.duplicated.Load()
}

// Corrupted returns how many routed payloads a corrupt rule mutated.
func (n *ChaosNet) Corrupted() uint64 { return n.corrupted.Load() }

// Wrap decorates a node Transport so its sends flow through the rule set.
// Register and Close pass through untouched.
func (n *ChaosNet) Wrap(inner Transport) Transport {
	return &chaosTransport{net: n, inner: inner}
}

// route applies the rules to one send. Drops return nil: a lost message is
// not a transport error.
func (n *ChaosNet) route(inner Transport, msg Message) error {
	t := n.now()
	n.mu.Lock()
	if n.rules.Partitioned(msg.From, msg.To, t) {
		n.mu.Unlock()
		n.dropped.Add(1)
		n.emit(msg, "partition")
		return nil
	}
	// Sender-side link delay, then the receiver's handler lag: a slow node
	// lags what it handles, not what it sends.
	lag := func() uint64 {
		return n.rules.Delay(n.rng, msg.From, msg.To, t) + n.rules.Slow(msg.To, t)
	}
	delay := lag()
	drop := n.rules.Hit(n.rng, inject.Drop, msg.From, msg.To, t)
	dup := n.rules.Hit(n.rng, inject.Duplicate, msg.From, msg.To, t)
	corrupt := n.rules.Hit(n.rng, inject.Corrupt, msg.From, msg.To, t) && len(msg.Payload) > 0
	if corrupt {
		// Mutate a copy: the caller's scroll record shares the original
		// payload's backing array.
		msg.Payload = append([]byte(nil), msg.Payload...)
		inject.Mutate(n.rng, msg.Payload)
	}
	dupDelay := delay
	if dup && delay > 0 {
		dupDelay = lag() // the copy takes its own jitter draws
	}
	n.mu.Unlock()

	if corrupt {
		n.corrupted.Add(1)
		n.emit(msg, "corrupt")
	}
	if drop {
		n.dropped.Add(1)
		n.emit(msg, "drop")
		return nil
	}
	if dup {
		n.duplicated.Add(1)
		n.emit(msg, "dup")
		n.dispatch(inner, msg, dupDelay)
	}
	return n.dispatch(inner, msg, delay)
}

// dispatch hands the message to the inner transport, after the injected
// delay if any. Delayed sends are counted in-flight until delivered; their
// eventual transport errors are swallowed (the run may already be over).
func (n *ChaosNet) dispatch(inner Transport, msg Message, delayTicks uint64) error {
	if delayTicks == 0 {
		n.delivered.Add(1)
		n.emit(msg, "deliver")
		return inner.Send(msg)
	}
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		n.dropped.Add(1)
		n.emit(msg, "drop")
		return nil
	}
	n.timerN++
	id := n.timerN
	n.inflight.Add(1)
	n.timers[id] = time.AfterFunc(time.Duration(delayTicks)*n.tick, func() {
		defer n.inflight.Add(-1)
		n.mu.Lock()
		delete(n.timers, id)
		closed := n.closed
		n.mu.Unlock()
		if closed {
			n.dropped.Add(1)
			n.emit(msg, "drop")
			return
		}
		n.delivered.Add(1)
		n.emit(msg, "deliver")
		inner.Send(msg) //nolint:errcheck // best effort after the delay window
	})
	n.mu.Unlock()
	return nil
}

// Close cancels pending delayed deliveries; subsequent delays drop. Call
// before closing the inner transport so no delayed send lands on it.
func (n *ChaosNet) Close() error {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.closed = true
	for id, t := range n.timers {
		if t.Stop() {
			n.inflight.Add(-1)
		}
		delete(n.timers, id)
	}
	return nil
}

func (n *ChaosNet) emit(msg Message, verdict string) {
	if n.tap != nil {
		n.tap(msg, verdict)
	}
}

// chaosTransport is the per-node decorator produced by Wrap.
type chaosTransport struct {
	net   *ChaosNet
	inner Transport
}

func (t *chaosTransport) Register(id string) (<-chan Message, error) { return t.inner.Register(id) }
func (t *chaosTransport) Send(msg Message) error                     { return t.net.route(t.inner, msg) }
func (t *chaosTransport) Close() error                               { return t.inner.Close() }
