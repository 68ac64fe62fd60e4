package dsim

// eventQueue is the simulator's scheduling core: a binary min-heap ordered
// by (time, seq). The previous implementation was a container/heap of
// boxed *event values — one heap allocation per message, timer and control
// event, interface-boxed on every Push/Pop. Here events live in a flat
// arena addressed by index, popped slots go onto a free-list, and the heap
// stores a small pointer-free key per position (qkey), so a warm
// simulation schedules events with zero allocations (the arena grows to
// the high-water mark of in-flight events and is reused, including across
// Sim.Reset).
//
// A key carries everything the hot paths ask of a queued event: its
// ordering (time, seq), so sifts never touch the ~200-byte arena entries,
// and the owner of a live timer, so a checkpoint collects a process's
// pending timers from the compact heap array alone (appendTimers).
//
// Because (time, seq) is a total order (seq is unique), any correct heap
// pops events in the identical sequence the old implementation did —
// replay digests are unchanged. The heap array's own order matters too: it
// is the order a checkpoint lists, and a restore re-arms, pending timers
// in, so the sifts below must stay exactly these (TestQueueMatchesModel
// holds them to the arena-indexed heap they replaced).
//
// Events are addressed by index, never by retained pointer: the arena's
// backing array moves when it grows, so callers copy the event value out
// (pop returns a copy) or re-resolve positions (at).
type eventQueue struct {
	arena []event
	free  []int32
	heap  []qkey
}

// qkey is one heap position: the event's ordering and where it lives.
type qkey struct {
	time, seq uint64
	idx       int32 // the event's arena slot
	// timerOf is 1 + the owning process's tag (proc.tag) while the event is
	// a live timer, and 0 for every other event and for a killed timer.
	timerOf int32
}

// len returns the number of scheduled events (including dead ones).
func (q *eventQueue) len() int { return len(q.heap) }

// push stores a copy of ev in the arena and schedules it. timerOf is 1 + the
// owning process's tag when ev is a timer, 0 otherwise.
func (q *eventQueue) push(ev event, timerOf int32) {
	var idx int32
	if n := len(q.free); n > 0 {
		idx = q.free[n-1]
		q.free = q.free[:n-1]
		q.arena[idx] = ev
	} else {
		idx = int32(len(q.arena))
		q.arena = append(q.arena, ev)
	}
	q.heap = append(q.heap, qkey{time: ev.time, seq: ev.seq, idx: idx, timerOf: timerOf})
	q.up(len(q.heap) - 1)
}

// pop removes and returns a copy of the minimum event, releasing its arena
// slot to the free-list immediately (the returned copy stays valid).
func (q *eventQueue) pop() event {
	idx := q.heap[0].idx
	n := len(q.heap) - 1
	q.heap[0] = q.heap[n]
	q.heap = q.heap[:n]
	if n > 0 {
		q.down(0)
	}
	ev := q.arena[idx]
	q.arena[idx] = event{} // drop payload/clock references for the GC
	q.free = append(q.free, idx)
	return ev
}

// at returns the event stored at heap position i, for the rollback scans
// that decide what to kill. The pointer is valid only until the next push.
func (q *eventQueue) at(i int) *event { return &q.arena[q.heap[i].idx] }

// kill lazily deletes the event at heap position i: Resume discards it when
// it pops, and it no longer counts as anyone's pending timer.
func (q *eventQueue) kill(i int) {
	q.arena[q.heap[i].idx].dead = true
	q.heap[i].timerOf = 0
}

// killTimers kills every live timer of owner (1 + a process tag).
func (q *eventQueue) killTimers(owner int32) {
	for i := range q.heap {
		if q.heap[i].timerOf == owner {
			q.kill(i)
		}
	}
}

// countTimers returns how many live timers owner (1 + a process tag) has
// queued.
func (q *eventQueue) countTimers(owner int32) int {
	n := 0
	for i := range q.heap {
		if q.heap[i].timerOf == owner {
			n++
		}
	}
	return n
}

// appendTimers appends the names of owner's live timers to dst in
// heap-array order, reading the arena only for the timers it lists.
func (q *eventQueue) appendTimers(dst []string, owner int32) []string {
	for i := range q.heap {
		if q.heap[i].timerOf == owner {
			dst = append(dst, q.arena[q.heap[i].idx].timerName)
		}
	}
	return dst
}

// reset empties the queue, keeping the arena and free-list capacity.
func (q *eventQueue) reset() {
	clear(q.arena) // drop payload/clock references
	q.arena = q.arena[:0]
	q.free = q.free[:0]
	q.heap = q.heap[:0]
}

// less orders heap positions by (time, seq).
func (q *eventQueue) less(i, j int) bool {
	a, b := &q.heap[i], &q.heap[j]
	if a.time != b.time {
		return a.time < b.time
	}
	return a.seq < b.seq
}

func (q *eventQueue) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !q.less(i, parent) {
			return
		}
		q.heap[i], q.heap[parent] = q.heap[parent], q.heap[i]
		i = parent
	}
}

func (q *eventQueue) down(i int) {
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
