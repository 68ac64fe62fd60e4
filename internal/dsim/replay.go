package dsim

import (
	"encoding/binary"
	"errors"
	"fmt"
	"strings"

	"repro/internal/checkpoint"
	"repro/internal/scroll"
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

// replayCtx implements Context by feeding recorded outcomes back to the
// machine and verifying its outputs against the scroll.
type replayCtx struct {
	id      string
	rp      *scroll.Replayer
	heap    *checkpoint.Heap
	now     uint64
	faults  []string
	halted  bool
	openErr error // first divergence
	// badAt is 1 + the position of the record openErr rejects when the
	// replayer has moved past it, 0 otherwise.
	badAt int
}

func (c *replayCtx) fail(err error) {
	if c.openErr == nil {
		c.openErr = err
	}
}

func (c *replayCtx) Self() string { return c.id }

//fixd:nondeterm replayer consumes scroll records instead of producing them
func (c *replayCtx) Now() uint64 {
	if v, ok := c.outcome(scroll.KindTime); ok {
		return v
	}
	return c.now
}

//fixd:nondeterm replayer consumes scroll records instead of producing them
func (c *replayCtx) Random() uint64 {
	v, _ := c.outcome(scroll.KindRandom)
	return v
}

// outcome returns the 8-byte outcome the next record of kind k holds. A
// record whose payload is not 8 bytes long — a log damaged on disk, say —
// is a divergence at that record.
func (c *replayCtx) outcome(k scroll.Kind) (uint64, bool) {
	rec, err := c.rp.Next(k)
	if err == nil && len(rec.Payload) != 8 {
		err = fmt.Errorf("%w: %v outcome of %d bytes at seq %d", scroll.ErrReplayDiverged, k, len(rec.Payload), rec.Seq)
		if c.openErr == nil {
			c.badAt = c.rp.Pos()
		}
	}
	if err != nil {
		c.fail(err)
		return 0, false
	}
	return binary.LittleEndian.Uint64(rec.Payload), true
}

//fixd:nondeterm replayer consumes scroll records instead of producing them
func (c *replayCtx) Send(to string, payload []byte) {
	if err := c.rp.ExpectSend(to, payload); err != nil {
		c.fail(err)
	}
}

func (c *replayCtx) SetTimer(string, uint64) {} // timer fires come from the scroll

func (c *replayCtx) Heap() *checkpoint.Heap { return c.heap }

// DurablePut verifies the re-executed write against the recorded one —
// like ExpectSend, a differing durable write means the replay took a
// different path than the original run.
//
//fixd:nondeterm replayer consumes scroll records instead of producing them
func (c *replayCtx) DurablePut(key string, value []byte) {
	rec, err := c.rp.Next(scroll.KindEnv)
	if err != nil {
		c.fail(err)
		return
	}
	if rec.MsgID != DurablePutMsgID || rec.Peer != key || string(rec.Payload) != string(value) {
		c.fail(fmt.Errorf("%w: durable put %q differs from recorded %s %q at seq %d",
			scroll.ErrReplayDiverged, key, rec.MsgID, rec.Peer, rec.Seq))
	}
}

// DurableGet feeds the recorded read outcome back.
//
//fixd:nondeterm replayer consumes scroll records instead of producing them
func (c *replayCtx) DurableGet(key string) ([]byte, bool) {
	rec, err := c.rp.Next(scroll.KindEnv)
	if err != nil {
		c.fail(err)
		return nil, false
	}
	if rec.MsgID != DurableGetMsgID || rec.Peer != key {
		c.fail(fmt.Errorf("%w: durable get %q differs from recorded %s %q at seq %d",
			scroll.ErrReplayDiverged, key, rec.MsgID, rec.Peer, rec.Seq))
		return nil, false
	}
	v, ok, err := DecodeDurableGet(rec.Payload)
	if err != nil {
		c.fail(err)
		return nil, false
	}
	return v, ok
}

// DurableKeys feeds the recorded key list back.
//
//fixd:nondeterm replayer consumes scroll records instead of producing them
func (c *replayCtx) DurableKeys() []string {
	rec, err := c.rp.Next(scroll.KindEnv)
	if err != nil {
		c.fail(err)
		return nil
	}
	if rec.MsgID != DurableKeysMsgID {
		c.fail(fmt.Errorf("%w: durable keys read differs from recorded %s at seq %d",
			scroll.ErrReplayDiverged, rec.MsgID, rec.Seq))
		return nil
	}
	keys, err := DecodeDurableKeys(rec.Payload)
	if err != nil {
		c.fail(err)
		return nil
	}
	return keys
}

// Log consumes the note the original run recorded, so that what the
// handler does next lines up with the scroll.
func (c *replayCtx) Log(string, ...any) {
	rec, err := c.rp.Next(scroll.KindCustom)
	if err == nil && rec.MsgID != logMsgID {
		err = fmt.Errorf("%w: log where the scroll has %s at seq %d", scroll.ErrReplayDiverged, rec.MsgID, rec.Seq)
		if c.openErr == nil {
			c.badAt = c.rp.Pos()
		}
	}
	if err != nil {
		c.fail(err)
	}
}

func (c *replayCtx) Fault(desc string) { c.faults = append(c.faults, desc) }

func (c *replayCtx) Checkpoint(string) string { return "replay-ckpt" }

func (c *replayCtx) Speculate(string) (string, error) { return "replay-spec", nil }
func (c *replayCtx) Commit(string) error              { return nil }
func (c *replayCtx) AbortSpec(string, string) error   { return nil }
func (c *replayCtx) Halt()                            { c.halted = true }

// Replay re-executes machine m against the recorded scroll of process id.
// The machine must be a fresh instance in its initial state; heapSize and
// pageSize should match the original run's configuration. Replay stops at
// the first divergence (reported in the result rather than as an error;
// errors are reserved for malformed scrolls).
func Replay(id string, m Machine, recs []scroll.Record, heapSize, pageSize int) (*ReplayResult, error) {
	if heapSize <= 0 {
		heapSize = 64 << 10
	}
	if pageSize <= 0 {
		pageSize = checkpoint.DefaultPageSize
	}
	ctx := &replayCtx{
		id:   id,
		rp:   scroll.NewReplayer(recs),
		heap: checkpoint.NewHeapPages(heapSize, pageSize),
	}
	res := &ReplayResult{}
	m.Init(ctx)
	for ctx.openErr == nil && !ctx.halted {
		pos := ctx.rp.Pos()
		if pos >= len(recs) {
			break
		}
		rec := recs[pos]
		switch rec.Kind {
		case scroll.KindRecv:
			if _, err := ctx.rp.Next(scroll.KindRecv); err != nil {
				return nil, err
			}
			m.OnMessage(ctx, rec.Peer, rec.Payload)
			res.Events++
		case scroll.KindCustom:
			if _, err := ctx.rp.Next(scroll.KindCustom); err != nil {
				return nil, err
			}
			if name, ok := strings.CutPrefix(rec.MsgID, "timer:"); ok {
				m.OnTimer(ctx, name)
				res.Events++
			}
			// "log" and other custom records replay as no-ops.
		case scroll.KindCkpt, scroll.KindFault, scroll.KindSend:
			// Sends remaining at top level mean the original run sent a
			// message the replay has not reproduced yet; since all sends
			// happen inside handlers, an unconsumed send here is a
			// divergence.
			if rec.Kind == scroll.KindSend {
				ctx.fail(fmt.Errorf("%w: unconsumed send %s at seq %d", scroll.ErrReplayDiverged, rec.MsgID, rec.Seq))
				break
			}
			ctx.rp.Next(rec.Kind) // skip annotation
		case scroll.KindRandom, scroll.KindTime, scroll.KindEnv:
			// An outcome record at top level means the original handler
			// performed a read the replayed handler did not.
			ctx.fail(fmt.Errorf("%w: unconsumed %v at seq %d", scroll.ErrReplayDiverged, rec.Kind, rec.Seq))
		default:
			return nil, fmt.Errorf("dsim: replay: unknown record kind %v", rec.Kind)
		}
	}
	res.Sends = countSends(recs[:ctx.rp.Pos()])
	res.Faults = ctx.faults
	res.HeapHash = ctx.heap.Hash()
	res.Halted = ctx.halted
	if ctx.openErr != nil {
		if errors.Is(ctx.openErr, scroll.ErrReplayDiverged) {
			res.Diverged = true
			res.DivergeAt = uint64(ctx.rp.Pos())
			if ctx.badAt > 0 {
				res.DivergeAt = uint64(ctx.badAt - 1)
			}
		} else if !errors.Is(ctx.openErr, scroll.ErrReplayExhausted) {
			return res, ctx.openErr
		}
	}
	return res, nil
}

func countSends(recs []scroll.Record) int {
	n := 0
	for _, r := range recs {
		if r.Kind == scroll.KindSend {
			n++
		}
	}
	return n
}
