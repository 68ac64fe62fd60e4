package dsim

import (
	"math/rand"
	"slices"
	"strconv"
	"testing"
)

// modelQueue is the event queue as it was before its heap carried keys: a
// heap of bare arena indices, ordered by reading the arena, whose pending
// timers are found by walking every queued event and comparing its owner's
// name. It is the reference the keyed queue must agree with, position by
// position.
type modelQueue struct {
	arena []event
	free  []int32
	heap  []int32
}

func (q *modelQueue) len() int { return len(q.heap) }

func (q *modelQueue) push(ev event) {
	var idx int32
	if n := len(q.free); n > 0 {
		idx = q.free[n-1]
		q.free = q.free[:n-1]
		q.arena[idx] = ev
	} else {
		idx = int32(len(q.arena))
		q.arena = append(q.arena, ev)
	}
	q.heap = append(q.heap, idx)
	q.up(len(q.heap) - 1)
}

func (q *modelQueue) pop() event {
	idx := q.heap[0]
	n := len(q.heap) - 1
	q.heap[0] = q.heap[n]
	q.heap = q.heap[:n]
	if n > 0 {
		q.down(0)
	}
	ev := q.arena[idx]
	q.arena[idx] = event{}
	q.free = append(q.free, idx)
	return ev
}

func (q *modelQueue) at(i int) *event { return &q.arena[q.heap[i]] }

// pendingTimer reports whether the event at heap position i is a live timer
// of the named process.
func (q *modelQueue) pendingTimer(i int, proc string) bool {
	e := q.at(i)
	return e.kind == evTimer && e.proc == proc && !e.dead
}

// timersOf lists proc's live timers in heap-array order, counting first so
// the list is built at its exact size, as takeCheckpoint did.
func (q *modelQueue) timersOf(proc string) []string {
	n := 0
	for i := range q.heap {
		if q.pendingTimer(i, proc) {
			n++
		}
	}
	timers := make([]string, 0, n)
	for i := range q.heap {
		if q.pendingTimer(i, proc) {
			timers = append(timers, q.at(i).timerName)
		}
	}
	return timers
}

func (q *modelQueue) less(i, j int) bool {
	a, b := &q.arena[q.heap[i]], &q.arena[q.heap[j]]
	if a.time != b.time {
		return a.time < b.time
	}
	return a.seq < b.seq
}

func (q *modelQueue) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !q.less(i, parent) {
			return
		}
		q.heap[i], q.heap[parent] = q.heap[parent], q.heap[i]
		i = parent
	}
}

func (q *modelQueue) down(i int) {
	n := len(q.heap)
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		min := l
		if r := l + 1; r < n && q.less(r, l) {
			min = r
		}
		if !q.less(min, i) {
			return
		}
		q.heap[i], q.heap[min] = q.heap[min], q.heap[i]
		i = min
	}
}

// queueOwners names the processes a queue walk schedules for; owner k is
// tagged k, as the k-th AddProcess of a run would be.
var queueOwners = []string{"coord", "p1", "p2", "p3"}

// walkQueues applies the operations ops encodes to a keyed queue and to the
// model, two bytes an operation, and checks after every one that both hold
// the same events in the same heap positions, list every owner's pending
// timers identically, and pop the same event:
//
//	op%6 0, 1: push a timer (op bit 3 clear) or a message, owned by or sent
//	           from queueOwners[op>>4%4], at time now + arg%8 (ties on time
//	           are the common case)
//	op%6 2, 3: pop
//	op%6 4:    kill the event at heap position arg
//	op%6 5:    kill every timer of queueOwners[arg%4]
func walkQueues(t *testing.T, ops []byte) {
	t.Helper()
	var q eventQueue
	var m modelQueue
	var now, seq uint64
	for ; len(ops) >= 2; ops = ops[2:] {
		op, arg := ops[0], ops[1]
		owner := int(op>>4) % len(queueOwners)
		switch op % 6 {
		case 0, 1:
			seq++
			ev := event{time: now + uint64(arg%8), seq: seq}
			var timerOf int32
			if op&8 == 0 {
				ev.kind, ev.proc, ev.timerName = evTimer, queueOwners[owner], "t"+strconv.FormatUint(seq, 10)
				timerOf = int32(owner) + 1
			} else {
				ev.kind, ev.from, ev.to = evMessage, queueOwners[owner], queueOwners[int(arg)%len(queueOwners)]
			}
			q.push(ev, timerOf)
			m.push(ev)
		case 2, 3:
			if q.len() == 0 {
				break
			}
			got, want := q.pop(), m.pop()
			if got.seq != want.seq || got.time != want.time || got.dead != want.dead {
				t.Fatalf("pop: got seq %d time %d dead %v, model seq %d time %d dead %v",
					got.seq, got.time, got.dead, want.seq, want.time, want.dead)
			}
			now = got.time
		case 4:
			if q.len() == 0 {
				break
			}
			i := int(arg) % q.len()
			q.kill(i)
			m.at(i).dead = true
		case 5:
			o := int(arg) % len(queueOwners)
			q.killTimers(int32(o) + 1)
			for i := range m.heap {
				if ev := m.at(i); ev.kind == evTimer && ev.proc == queueOwners[o] {
					ev.dead = true
				}
			}
		}
		if q.len() != m.len() {
			t.Fatalf("len %d, model %d", q.len(), m.len())
		}
		for i := range q.heap {
			if got, want := q.at(i), m.at(i); got.seq != want.seq || got.dead != want.dead {
				t.Fatalf("heap position %d: seq %d dead %v, model seq %d dead %v", i, got.seq, got.dead, want.seq, want.dead)
			}
		}
		for o, name := range queueOwners {
			want := m.timersOf(name)
			if n := q.countTimers(int32(o) + 1); n != len(want) {
				t.Fatalf("%s: %d pending timers, model %d", name, n, len(want))
			}
			if got := q.appendTimers(nil, int32(o)+1); !slices.Equal(got, want) {
				t.Fatalf("%s: pending timers %v, model %v", name, got, want)
			}
		}
	}
	for q.len() > 0 {
		if got, want := q.pop(), m.pop(); got.seq != want.seq {
			t.Fatalf("drain: seq %d, model %d", got.seq, want.seq)
		}
	}
}

// TestQueueMatchesModel: the keyed queue pops, kills and lists pending
// timers exactly as the arena-scanning model does, over random operation
// mixes from pushes-only to pops-mostly, with deep queues and ties on time.
func TestQueueMatchesModel(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		r := rand.New(rand.NewSource(seed))
		ops := make([]byte, 2*(50+r.Intn(1500)))
		r.Read(ops)
		// Bias some walks towards pushes so the queue grows deep, and some
		// towards pops and kills so it drains through dead events.
		for i := 0; i < len(ops); i += 2 {
			switch seed % 3 {
			case 0:
				ops[i] = ops[i]&^7 | byte(r.Intn(2))
			case 1:
				if r.Intn(3) == 0 {
					ops[i] = ops[i]&^7 | byte(2+r.Intn(4))
				}
			}
		}
		walkQueues(t, ops)
	}
}

// FuzzEventQueue: any operation sequence keeps the keyed queue and the
// model in step (walkQueues).
func FuzzEventQueue(f *testing.F) {
	f.Add([]byte{0, 3, 16, 3, 32, 0, 8, 1, 2, 0, 4, 1, 5, 0, 2, 0})
	f.Add([]byte{0, 0, 0, 0, 16, 0, 16, 0, 4, 0, 5, 1, 2, 0, 2, 0, 2, 0})
	f.Add([]byte{48, 7, 48, 1, 40, 2, 0, 5, 4, 2, 3, 0, 5, 3, 3, 0})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 4096 {
			return
		}
		walkQueues(t, ops)
	})
}

// TestEventPoolAllocs: the typed queue's arena and free-list must schedule
// and pop events with zero allocations once warm — the regression guard on
// the event pool itself (the old container/heap implementation boxed every
// event: two allocations per push) — and listing or killing a process's
// pending timers, which every checkpoint and restore does, allocates
// nothing either.
func TestEventPoolAllocs(t *testing.T) {
	var q eventQueue
	timers := make([]string, 0, 64)
	churn := func() {
		for i := 0; i < 64; i++ {
			q.push(event{time: uint64(64 - i), seq: uint64(i), kind: evTimer, timerName: "t"}, int32(i%4))
		}
		timers = q.appendTimers(timers[:0], 1)
		q.killTimers(2)
		for q.len() > 0 {
			q.pop()
		}
	}
	churn() // warm the arena to its high-water mark

	if allocs := testing.AllocsPerRun(100, churn); allocs > 0 {
		t.Fatalf("warm event queue allocates %.1f times per 64-event churn; want 0", allocs)
	}
}

// BenchmarkCheckpointTimers: collecting the checkpointing process's pending
// timers, the way takeCheckpoint does (count, then list at exact size),
// from a queue shaped like the guided search's at checkpoint time — 64
// queued events, 8 of them live timers of the checkpointing process, the
// rest other processes' timers and messages in flight. "keys" reads the
// keyed heap; "arena_scan" is the arena walk the model keeps for reference.
func BenchmarkCheckpointTimers(b *testing.B) {
	var q eventQueue
	var m modelQueue
	r := rand.New(rand.NewSource(11))
	for seq := uint64(1); seq <= 64; seq++ {
		ev := event{time: uint64(r.Intn(100)), seq: seq, timerName: "retry"}
		var timerOf int32
		switch owner := int(seq % 8); {
		case owner == 0:
			ev.kind, ev.proc, timerOf = evTimer, queueOwners[0], 1
		case owner < 4:
			ev.kind, ev.proc, timerOf = evTimer, queueOwners[owner], int32(owner)+1
		default:
			ev.kind, ev.from, ev.to = evMessage, queueOwners[owner%4], queueOwners[0]
		}
		q.push(ev, timerOf)
		m.push(ev)
	}
	timers := make([]string, 0, 64)
	b.Run("keys", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			if n := q.countTimers(1); n > 0 {
				timers = q.appendTimers(timers[:0], 1)
			}
		}
	})
	b.Run("arena_scan", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			n := 0
			for j := range m.heap {
				if m.pendingTimer(j, queueOwners[0]) {
					n++
				}
			}
			if n > 0 {
				timers = timers[:0]
				for j := range m.heap {
					if m.pendingTimer(j, queueOwners[0]) {
						timers = append(timers, m.at(j).timerName)
					}
				}
			}
		}
	})
	if len(timers) != 8 {
		b.Fatalf("%d pending timers, want 8", len(timers))
	}
}
