package dsim

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"strings"

	"repro/internal/checkpoint"
	"repro/internal/scroll"
	"repro/internal/vclock"
)

// ReplayResult summarizes an isolated re-execution of one process from its
// scroll (the liblog-style local playback of paper §2.3: the process is
// re-run "in the absence of the remote entities", which are black boxes
// defined only by the recorded interaction).
type ReplayResult struct {
	Events    int      // recv/timer events replayed
	Sends     int      // sends verified against the scroll
	Faults    []string // faults the machine re-reported
	HeapHash  uint64   // FNV hash of the replayed heap
	Halted    bool
	Diverged  bool   // replay took a different path than recorded
	DivergeAt uint64 // scroll position of the divergence
}

// replayCtx is the Context of a replay: a kernel whose records are compared
// with the recording instead of kept (memory.replay), fed the recorded
// outcome of every input the machine reads.
type replayCtx struct {
	Kernel
	cur    replayCursor
	mem    memory
	faults []string
	store  *checkpoint.Store // made by the first Checkpoint
}

// replayCursor is where the replay stands in the recording. The kernel's
// records arrive in order; each is compared with the recorded one at the
// cursor. A record past the recording's end is not compared: a recording
// that stops inside a handler replays as a prefix.
type replayCursor struct {
	recs     []scroll.Record
	pos      int
	sends    int  // sends that matched
	diverged bool // some record differed from the recording
	at       int  // the position of the first that did
}

// compare checks r against the recording at the cursor, moves past it, and
// returns its position. It compares what the machine decides: kind, peer,
// payload, and the message ID of every kind but sends and checkpoints,
// whose IDs the backend assigns. Clocks and Lamport times are the
// backend's too.
func (c *replayCursor) compare(r *scroll.Record) uint64 {
	pos := c.pos
	c.pos++
	if c.diverged || pos >= len(c.recs) {
		return uint64(pos)
	}
	want := &c.recs[pos]
	if want.Kind != r.Kind || want.Peer != r.Peer || !bytes.Equal(want.Payload, r.Payload) ||
		want.MsgID != r.MsgID && r.Kind != scroll.KindSend && r.Kind != scroll.KindCkpt {
		c.diverge(pos)
	} else if r.Kind == scroll.KindSend {
		c.sends++
	}
	return uint64(pos)
}

func (c *replayCursor) diverge(pos int) {
	if !c.diverged {
		c.diverged, c.at = true, pos
	}
}

// next returns the recorded record at the cursor, nil past the end.
func (c *replayCursor) next() *scroll.Record {
	if c.pos < len(c.recs) {
		return &c.recs[c.pos]
	}
	return nil
}

// outcome is the value the recorded record at the cursor holds if it is an
// 8-byte outcome of kind k, and 0 otherwise — the comparison then flags it.
func (c *replayCtx) outcome(k scroll.Kind) uint64 {
	if r := c.cur.next(); r != nil && r.Kind == k && len(r.Payload) == 8 {
		return binary.LittleEndian.Uint64(r.Payload)
	}
	return 0
}

// durableRead returns the payload of the recorded record at the cursor if
// it is the durable read msgID of key, and nil otherwise.
func (c *replayCtx) durableRead(msgID, key string) ([]byte, bool) {
	if r := c.cur.next(); r != nil && r.Kind == scroll.KindEnv && r.MsgID == msgID && r.Peer == key {
		return r.Payload, true
	}
	return nil, false
}

func (c *replayCtx) Now() uint64 { return c.RecordTime(c.outcome(scroll.KindTime)) }

func (c *replayCtx) Random() uint64 { return c.RecordRandom(c.outcome(scroll.KindRandom)) }

func (c *replayCtx) Send(to string, payload []byte) { c.RecordSend("", to, payload) }

func (c *replayCtx) SetTimer(string, uint64) {} // timer fires come from the recording

// DurablePut only records the write, for the comparison: replay feeds
// durable reads from the recording, so a cell would be read by nothing.
func (c *replayCtx) DurablePut(key string, value []byte) { c.recordPut(key, value) }

// DurableGet feeds the recorded read back. A damaged outcome decodes to a
// miss, which re-encodes differently: the comparison flags it.
func (c *replayCtx) DurableGet(key string) ([]byte, bool) {
	var v []byte
	ok := false
	if b, found := c.durableRead(DurableGetMsgID, key); found {
		v, ok, _ = DecodeDurableGet(b)
	}
	return c.RecordDurableGet(key, v, ok)
}

// DurableKeys feeds the recorded key list back; a damaged one is flagged
// as DurableGet's is.
func (c *replayCtx) DurableKeys() []string {
	var keys []string
	if b, found := c.durableRead(DurableKeysMsgID, ""); found {
		keys, _ = DecodeDurableKeys(b)
	}
	return c.RecordDurableKeys(keys)
}

func (c *replayCtx) Fault(desc string) {
	c.RecordFault(desc, 0)
	c.faults = append(c.faults, desc)
}

// Checkpoint takes a checkpoint for its record; the replay never restores
// it. The store, and the scroll whose length the kernel files as the
// checkpoint's position, are made on first use: most machines never call
// it.
func (c *replayCtx) Checkpoint(label string) string {
	if c.store == nil {
		c.store, c.scroll = checkpoint.NewStore(), scroll.NewMemory(c.id)
	}
	return c.Kernel.Checkpoint(c.store, 0, label, nil).ID
}

// replayRewindEvery is how many events a replay handles between rewinds of
// its kernel's memory. Nothing keeps what the kernel carves — its records
// are compared, not kept — so a replay of any length stays within the first
// chunks of its slabs (256 grew them to tens of kilobytes on long replays).
const replayRewindEvery = 16

// Replay re-executes machine m against the recorded scroll of process id.
// The machine must be a fresh instance in its initial state; heapSize and
// pageSize should match the original run's configuration. Each recorded
// delivery and timer fire is handed to the machine, and every record its
// handlers make is compared with the recording at the same position; the
// recorded clock reads, random draws and durable reads are fed back. The
// backends' own records — checkpoints and epoch fences — are stepped over
// between handlers; any other record there is one the machine did not
// make. Replay stops at the first divergence (reported in the result
// rather than as an error; errors are reserved for malformed scrolls).
func Replay(id string, m Machine, recs []scroll.Record, heapSize, pageSize int) (*ReplayResult, error) {
	if heapSize <= 0 {
		heapSize = checkpoint.DefaultHeapSize
	}
	if pageSize <= 0 {
		pageSize = checkpoint.DefaultPageSize
	}
	c := &replayCtx{cur: replayCursor{recs: recs}}
	c.Kernel = Kernel{id: id, machine: m, heap: checkpoint.NewHeapPages(heapSize, pageSize),
		clock: vclock.NewTable(id).New(), mem: &c.mem}
	c.mem.replay = &c.cur
	res := &ReplayResult{}
	m.Init(c)
	for !c.cur.diverged && !c.halted && c.cur.pos < len(recs) {
		rec := &recs[c.cur.pos]
		switch {
		case rec.Kind == scroll.KindRecv:
			c.RecordRecv(rec.MsgID, rec.Peer, rec.Payload, 0, vclock.VC{})
			m.OnMessage(c, rec.Peer, rec.Payload)
		case rec.Kind == scroll.KindCustom && strings.HasPrefix(rec.MsgID, "timer:"):
			name := rec.MsgID[len("timer:"):]
			c.RecordTimer(name)
			m.OnTimer(c, name)
		case rec.Kind == scroll.KindCkpt || rec.Kind == scroll.KindCustom && rec.MsgID == EpochFenceMsgID:
			c.cur.pos++
			continue
		case rec.Kind < scroll.KindRecv || rec.Kind > scroll.KindCustom:
			return nil, fmt.Errorf("dsim: replay: unknown record kind %v", rec.Kind)
		default:
			c.cur.diverge(c.cur.pos)
			continue
		}
		if res.Events++; res.Events%replayRewindEvery == 0 {
			c.mem.rewind()
			c.snap = vclock.VC{}
		}
	}
	res.Sends = c.cur.sends
	res.Faults = c.faults
	res.HeapHash = c.heap.Hash()
	res.Halted = c.halted
	res.Diverged, res.DivergeAt = c.cur.diverged, uint64(c.cur.at)
	return res, nil
}
