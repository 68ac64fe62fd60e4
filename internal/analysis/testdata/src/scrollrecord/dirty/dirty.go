// Package dirty holds a dsim.Context implementation that skips scroll
// appends on some return paths — the recording bugs scrollrecord exists
// to catch, each of which would surface later as a replay divergence. One
// of them is on a type the implementation only embeds.
package dirty

import (
	"encoding/binary"

	"repro/internal/checkpoint"
	"repro/internal/dsim"
	"repro/internal/scroll"
)

type leakyCtx struct {
	*disk
	id  string
	sc  *scroll.Scroll
	now uint64
	rng uint64
}

var _ dsim.Context = (*leakyCtx)(nil)

func (c *leakyCtx) record(k scroll.Kind, payload []byte) {
	c.sc.Append(scroll.Record{Proc: c.id, Kind: k, Payload: payload})
}

func (c *leakyCtx) Self() string { return c.id }

// Now skips the scroll append entirely: replay cannot feed this read back.
func (c *leakyCtx) Now() uint64 { return c.now }

// Random records on the even branch only — the odd-path draw is invisible
// to replay.
func (c *leakyCtx) Random() uint64 {
	c.rng++
	if c.rng%2 == 0 {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], c.rng)
		c.record(scroll.KindRandom, b[:])
		return c.rng
	}
	return c.rng
}

// Send falls off the end of a void method without recording.
func (c *leakyCtx) Send(to string, payload []byte) {
	_ = to
	_ = payload
}

func (c *leakyCtx) SetTimer(string, uint64) {}
func (c *leakyCtx) Heap() *checkpoint.Heap  { return nil }

func (c *leakyCtx) DurablePut(key string, value []byte) {
	c.record(scroll.KindEnv, value)
}

func (c *leakyCtx) DurableKeys() []string {
	c.record(scroll.KindEnv, nil)
	return nil
}

func (c *leakyCtx) Log(string, ...any)               {}
func (c *leakyCtx) Fault(string)                     {}
func (c *leakyCtx) Checkpoint(string) string         { return "" }
func (c *leakyCtx) Speculate(string) (string, error) { return "", nil }
func (c *leakyCtx) Commit(string) error              { return nil }
func (c *leakyCtx) AbortSpec(string, string) error   { return nil }
func (c *leakyCtx) Halt()                            {}

// disk is not a Context itself: leakyCtx takes DurableGet from it.
type disk struct {
	cells map[string][]byte
}

// DurableGet skips the scroll append: replay cannot feed this read back.
func (d *disk) DurableGet(key string) ([]byte, bool) {
	v, ok := d.cells[key]
	return v, ok
}
