package dsim

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"

	"repro/internal/checkpoint"
	"repro/internal/scroll"
	"repro/internal/slab"
	"repro/internal/vclock"
)

// EpochFenceMsgID is the scroll MsgID under which the live backend records
// a delivery it fenced because the message was sent on a timeline a
// rollback has since abandoned (KindCustom; Replay steps over it, as over
// the backends' own checkpoint records). Recording the fence keeps replay
// and divergence checking aligned with the live history: the drop is part
// of the timeline, not an omission.
const EpochFenceMsgID = "fence:epoch"

// logMsgID marks a Context.Log note (KindCustom).
const logMsgID = "log"

// Kernel is one process as every Context holds it: its machine, heap,
// scroll, stable-storage cells, Lamport and vector clocks, whether it is
// down, and the memory its records and checkpoints are carved from. It
// writes the record of every Context call — its layout, its stamping, the
// durable record codecs — serves the calls whose outcome is the process's
// own (Self, Heap, Log, Halt, the Durable… calls, and the speculation calls
// only the simulator overrides), and does the process-local half of a
// checkpoint and of a restore, the same way on the simulator, the live
// substrate, the Investigator and replay. It also decides the process's
// lifecycle for both backends (lifecycle.go): crash, crash-restart, what a
// deliberate rollback abandons, and when the periodic policy checkpoints. A
// context embeds its kernel and declares only the calls that reach its
// world: Now, Random, Send, SetTimer, Fault and Checkpoint. A backend keeps
// event delivery, timers, locking, epochs and the write-ahead log. A Kernel
// is not safe for concurrent use.
type Kernel struct {
	id        string
	machine   Machine
	heap      *checkpoint.Heap
	scroll    *scroll.Scroll
	clock     vclock.VC // on the table of the backend's processes, which every merged clock shares
	self      int32     // this process's index in that table
	halted    bool
	crashed   bool
	snap      vclock.VC // cached clock snapshot, shared by records between ticks
	lamport   vclock.Lamport
	mem       *memory
	cells     checkpoint.Cells // stable storage (durable.go): no restore rewinds it
	delivered uint64           // messages delivered, for the periodic checkpoint policy
	ckptSkew  uint64           // where in that count the policy checkpoints (Stagger)
}

// NewKernel returns the kernel of process id running m. Its memory is its
// own and never rewound: what it carves lives as long as the process. Until
// Rehome its clock knows only id.
func NewKernel(id string, m Machine, heap *checkpoint.Heap, sc *scroll.Scroll) Kernel {
	return Kernel{id: id, machine: m, heap: heap, scroll: sc, clock: vclock.NewTable(id).New(), mem: &memory{}}
}

// memory is what kernels carve record payloads, clock snapshots and
// checkpoints from, with intern tables for what recurs. The simulator hands
// every kernel of a run the same one and rewinds it on Reset; a live
// process owns one that is never rewound.
type memory struct {
	// replay, when set, takes the kernel's records in place of its scroll:
	// each is compared with the recording being replayed (Replay), not kept.
	replay *replayCursor
	pay    slab.Slab[byte]                  // record payloads: 8-byte values, message bodies
	clocks vclock.Arena                     // clock snapshots (Kernel.ClockSnap)
	ckmem  checkpoint.Arena                 // state encodings, heap snapshots
	ckpts  slab.Slab[checkpoint.Checkpoint] // the checkpoints themselves
	// Intern tables: strings and payloads that recur identically run after
	// run. Bounded, shared read-only by records, and kept across rewind.
	labels   map[string][]byte        // checkpoint labels as record payloads
	timerRec map[string]timerRecParts // timer-record strings/payloads
}

// rewind invalidates everything carved so far; the intern tables stay.
func (m *memory) rewind() {
	m.pay.Rewind()
	m.clocks.Rewind()
	m.ckmem.Rewind()
	m.ckpts.Rewind()
}

// timerRecParts caches the per-timer-name record fields ("timer:x" MsgID
// and name payload). Timer fires are the single most frequent record in the
// chaos workloads; the cached strings and payload bytes are shared across
// records and runs — records never mutate them.
type timerRecParts struct {
	msgID   string
	payload []byte
}

// timerParts returns the cached record fields for a timer name.
func (m *memory) timerParts(name string) timerRecParts {
	if tr, ok := m.timerRec[name]; ok {
		return tr
	}
	if m.timerRec == nil {
		m.timerRec = make(map[string]timerRecParts)
	}
	tr := timerRecParts{msgID: "timer:" + name, payload: []byte(name)}
	m.timerRec[name] = tr
	return tr
}

// maxInternedLabels bounds the label intern table.
const maxInternedLabels = 64

// labelPayload returns label as a record payload, interned.
func (m *memory) labelPayload(label string) []byte {
	if b, ok := m.labels[label]; ok {
		return b
	}
	b := []byte(label)
	if len(m.labels) < maxInternedLabels {
		if m.labels == nil {
			m.labels = make(map[string][]byte)
		}
		m.labels[label] = b
	}
	return b
}

// u64 renders v little-endian into the payload slab and returns the 8-byte
// slice. Records retain these slices read-only.
func (m *memory) u64(v uint64) []byte {
	return m.pay.Keep(binary.LittleEndian.AppendUint64(m.pay.Tail(8), v))
}

// Self returns the process ID.
func (k *Kernel) Self() string { return k.id }

// Machine returns the process's implementation.
func (k *Kernel) Machine() Machine { return k.machine }

// Heap returns the process's checkpointable bulk store.
func (k *Kernel) Heap() *checkpoint.Heap { return k.heap }

// Scroll returns the process's recording.
func (k *Kernel) Scroll() *scroll.Scroll { return k.scroll }

// Halted reports whether the process stopped itself (Context.Halt) since
// its last restore.
func (k *Kernel) Halted() bool { return k.halted }

// Halt stops the process permanently (normal termination).
func (k *Kernel) Halt() { k.halted = true }

// errNoSpeculation is what the speculation calls return on every context
// but the simulator's: aborting a speculation recalls its messages from the
// network, which only a simulated network can do, and no recording says how
// one resolved.
var errNoSpeculation = errors.New("dsim: speculation requires the simulated substrate")

// Speculate fails: only the simulator's context speculates.
func (k *Kernel) Speculate(string) (string, error) { return "", errNoSpeculation }

// Commit fails: no speculation exists to commit.
func (k *Kernel) Commit(string) error { return errNoSpeculation }

// AbortSpec fails: no speculation exists to abort.
func (k *Kernel) AbortSpec(string, string) error { return errNoSpeculation }

// ClockSnap returns a snapshot of the process's vector clock that is shared
// by every record created until the clock next advances. Scroll records,
// messages, checkpoints and fault records all treat their clock as
// immutable (nothing in the tree mutates a Record.Clock in place), so one
// snapshot per tick serves them all — and lets the fingerprinter encode it
// once. Snapshots are carved from the kernel's memory, so on the simulator
// taking one allocates nothing. Every site that mutates k.clock must zero
// k.snap (tick does).
func (k *Kernel) ClockSnap() vclock.VC {
	if k.snap == (vclock.VC{}) {
		k.snap = k.mem.clocks.Snapshot(k.clock)
	}
	return k.snap
}

// tick advances the process's own component of its vector clock.
func (k *Kernel) tick() {
	k.clock.TickAt(int(k.self))
	k.snap = vclock.VC{}
}

// Rehome puts the process's clock, zeroed, on tab — the table of every
// process of the run — and continues both clocks past the records its
// scroll already holds (a scroll reopened from disk), so that nothing
// recorded next sorts before them.
func (k *Kernel) Rehome(tab *vclock.Table) {
	k.clock, k.self, k.snap = tab.New(), int32(tab.Index(k.id)), vclock.VC{}
	if k.scroll.Len() == 0 {
		return
	}
	var lam, own uint64
	for r := range k.scroll.All() {
		lam, own = max(lam, r.Lamport), max(own, r.Clock.Get(k.id))
	}
	k.lamport.Witness(lam)
	k.clock.Set(k.id, own)
}

// record appends r and returns its sequence — under replay, compares it
// with the recording instead and returns its position there. An error — an
// in-memory scroll's name table overflowing, a durable scroll's write
// failing — would leave a hole in the recording that replay runs into, so it
// panics.
func (k *Kernel) record(r *scroll.Record) uint64 {
	if c := k.mem.replay; c != nil {
		return c.compare(r)
	}
	seq, err := k.scroll.Append(*r)
	if err != nil {
		panic(err)
	}
	return seq
}

// The Record methods write the record of one Context call each, stamped
// with the process's Lamport time and clock snapshot.

// RecordTime records a clock read that returned t, and returns t.
func (k *Kernel) RecordTime(t uint64) uint64 {
	k.record(&scroll.Record{Kind: scroll.KindTime, Payload: k.mem.u64(t),
		Lamport: k.lamport.Now(), Clock: k.ClockSnap()})
	return t
}

// RecordRandom records a random draw of v, and returns v.
func (k *Kernel) RecordRandom(v uint64) uint64 {
	k.record(&scroll.Record{Kind: scroll.KindRandom, Payload: k.mem.u64(v),
		Lamport: k.lamport.Now(), Clock: k.ClockSnap()})
	return v
}

// RecordSend ticks both clocks and records the send of message id to peer.
// It returns the copy of payload the record holds — the message carries
// the same bytes — and the send's Lamport time and scroll sequence.
func (k *Kernel) RecordSend(id, to string, payload []byte) (body []byte, lamport, seq uint64) {
	k.tick()
	lamport = k.lamport.Tick()
	body = k.mem.pay.Copy(payload)
	return body, lamport, k.record(&scroll.Record{Kind: scroll.KindSend, MsgID: id, Peer: to,
		Payload: body, Lamport: lamport, Clock: k.ClockSnap()})
}

// RecordRecv merges the sender's clocks into the process's and records the
// delivery of message id; the record holds payload itself.
func (k *Kernel) RecordRecv(id, from string, payload []byte, lamport uint64, clock vclock.VC) {
	k.clock.Merge(clock)
	k.tick()
	lam := k.lamport.Witness(lamport)
	k.record(&scroll.Record{Kind: scroll.KindRecv, MsgID: id, Peer: from,
		Payload: payload, Lamport: lam, Clock: k.ClockSnap()})
}

// RecordTimer ticks both clocks and records the fire of the timer name.
func (k *Kernel) RecordTimer(name string) {
	k.tick()
	lam := k.lamport.Tick()
	tr := k.mem.timerParts(name)
	k.record(&scroll.Record{Kind: scroll.KindCustom, MsgID: tr.msgID,
		Payload: tr.payload, Lamport: lam, Clock: k.ClockSnap()})
}

// RecordDurablePut records a stable-storage write of key = value and
// writes the cell. Record and cell share one copy of value, which it
// returns together with the write's scroll position, for a backend that
// also logs the write.
func (k *Kernel) RecordDurablePut(key string, value []byte) (body []byte, seq uint64) {
	body, seq = k.recordPut(key, value)
	k.cells.Put(key, body)
	return body, seq
}

// recordPut records a stable-storage write of key = value without writing
// the cell, and returns the record's copy of value and its position.
func (k *Kernel) recordPut(key string, value []byte) (body []byte, seq uint64) {
	body = k.mem.pay.Copy(value)
	seq = k.record(&scroll.Record{Kind: scroll.KindEnv, MsgID: DurablePutMsgID, Peer: key,
		Payload: body, Lamport: k.lamport.Now(), Clock: k.ClockSnap()})
	return body, seq
}

// RecordDurableGet records a stable-storage read of key that found v (ok),
// and returns a copy of v for the machine.
func (k *Kernel) RecordDurableGet(key string, v []byte, ok bool) ([]byte, bool) {
	k.record(&scroll.Record{Kind: scroll.KindEnv, MsgID: DurableGetMsgID, Peer: key,
		Payload: EncodeDurableGet(v, ok), Lamport: k.lamport.Now(), Clock: k.ClockSnap()})
	if !ok {
		return nil, false
	}
	return append([]byte(nil), v...), true
}

// RecordDurableKeys records the sorted stable-storage key list, and returns
// it.
func (k *Kernel) RecordDurableKeys(keys []string) []string {
	k.record(&scroll.Record{Kind: scroll.KindEnv, MsgID: DurableKeysMsgID,
		Payload: EncodeDurableKeys(keys), Lamport: k.lamport.Now(), Clock: k.ClockSnap()})
	return keys
}

// Log records an informational note.
func (k *Kernel) Log(format string, args ...any) {
	k.record(&scroll.Record{Kind: scroll.KindCustom, MsgID: logMsgID,
		Payload: []byte(fmt.Sprintf(format, args...)), Lamport: k.lamport.Now(), Clock: k.ClockSnap()})
}

// RecordFault records a locally detected fault and returns its report,
// stamped with virtual time now.
func (k *Kernel) RecordFault(desc string, now uint64) FaultRecord {
	rec := FaultRecord{Proc: k.id, Desc: desc, Time: now, Clock: k.ClockSnap()}
	k.record(&scroll.Record{Kind: scroll.KindFault, Payload: k.mem.pay.Keep(append(k.mem.pay.Tail(len(desc)), desc...)),
		Lamport: k.lamport.Now(), Clock: k.ClockSnap()})
	return rec
}

// RecordFence records that message id from peer was dropped because it was
// sent at epoch, before the current timeline epoch.
func (k *Kernel) RecordFence(id, from string, epoch, current uint64) {
	k.record(&scroll.Record{Kind: scroll.KindCustom, MsgID: EpochFenceMsgID, Peer: from,
		Payload: []byte(fmt.Sprintf("%s epoch %d < %d", id, epoch, current)),
		Lamport: k.lamport.Now(), Clock: k.ClockSnap()})
}

// Checkpoint snapshots the process at virtual time now — heap, machine
// state, clock, scroll position and disk, with the names of the timers
// pending — files it in the backend's store and records it. label names
// the policy that took it.
func (k *Kernel) Checkpoint(store *checkpoint.Store, now uint64, label string, timers []string) *checkpoint.Checkpoint {
	snap := k.heap.Snapshot()
	extra, codec, err := k.mem.ckmem.Encode(k.machine.State())
	if err != nil {
		panic(fmt.Sprintf("dsim: state of %s not serializable: %v", k.id, err))
	}
	ck := k.mem.ckpts.Put(checkpoint.Checkpoint{
		Proc:      k.id,
		Clock:     k.ClockSnap(),
		ScrollSeq: uint64(k.scroll.Len()),
		Disk:      k.cells.Len(),
		Time:      now,
		Snap:      snap,
		Extra:     extra,
		Codec:     codec,
		Timers:    timers,
	})
	store.Put(ck)
	k.record(&scroll.Record{Kind: scroll.KindCkpt, MsgID: ck.ID, Payload: k.mem.labelPayload(label),
		Lamport: k.lamport.Now(), Clock: k.ClockSnap()})
	return ck
}

// Restore rewinds the process to ck: heap, machine state
// (Checkpoint.Restore), vector clock and scroll position, and lifts a Halt.
// The Lamport clock keeps counting. What else a restore means — queued
// events, timers, stable storage, counters — is the backend's.
func (k *Kernel) Restore(ck *checkpoint.Checkpoint) {
	k.heap.Restore(ck.Snap)
	if err := ck.Restore(k.machine.State()); err != nil {
		panic(fmt.Sprintf("dsim: restore state of %s: %v", k.id, err))
	}
	k.clock.Reset()
	k.clock = k.clock.Merge(ck.Clock)
	k.snap = vclock.VC{}
	k.scroll.Truncate(ck.ScrollSeq)
	k.halted = false
}

// Replace swaps the process's machine for m, loaded with state (JSON, as
// Healer mappers produce it) unless state is nil. m must accept the state
// (type safety: a mismatch is an error, and the update is refused).
func (k *Kernel) Replace(m Machine, state []byte) error {
	if state != nil {
		if err := checkpoint.RestoreState(state, m.State()); err != nil {
			return fmt.Errorf("dsim: update state of %s rejected: %w", k.id, err)
		}
	}
	k.machine = m
	return nil
}

// MachineState returns the JSON encoding of the machine's current state.
func (k *Kernel) MachineState() []byte {
	b, err := json.Marshal(k.machine.State())
	if err != nil {
		panic(fmt.Sprintf("dsim: state of %s not serializable: %v", k.id, err))
	}
	return b
}
