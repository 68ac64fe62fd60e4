// Package clean is the silent twin of the scrollrecord dirty fixture: a
// Context implementation that appends a scroll record on every return
// path of every recorded operation, plus one method excused by the
// method-level annotation escape.
package clean

import (
	"encoding/binary"

	"repro/internal/checkpoint"
	"repro/internal/dsim"
	"repro/internal/scroll"
)

type tightCtx struct {
	id  string
	sc  *scroll.Scroll
	now uint64
	rng uint64
}

var _ dsim.Context = (*tightCtx)(nil)

func (c *tightCtx) record(k scroll.Kind, payload []byte) {
	c.sc.Append(scroll.Record{Proc: c.id, Kind: k, Payload: payload})
}

func u64(v uint64) []byte {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	return b[:]
}

func (c *tightCtx) Self() string { return c.id }

func (c *tightCtx) Now() uint64 {
	c.record(scroll.KindTime, u64(c.now))
	return c.now
}

// Random records before either branch returns.
func (c *tightCtx) Random() uint64 {
	c.rng++
	c.record(scroll.KindRandom, u64(c.rng))
	if c.rng%2 == 0 {
		return c.rng
	}
	return c.rng + 1
}

func (c *tightCtx) Send(to string, payload []byte) {
	c.record(scroll.KindSend, payload)
	_ = to
}

func (c *tightCtx) SetTimer(string, uint64) {}
func (c *tightCtx) Heap() *checkpoint.Heap  { return nil }

func (c *tightCtx) DurablePut(key string, value []byte) {
	c.record(scroll.KindEnv, value)
	_ = key
}

// DurableGet is excused by the method-level escape bench/'s tracing
// decorator uses.
//
//fixd:nondeterm fixture: leaves the read to another context, mirroring bench/'s tracedCtx
func (c *tightCtx) DurableGet(key string) ([]byte, bool) {
	_ = key
	return nil, false
}

func (c *tightCtx) DurableKeys() []string {
	c.record(scroll.KindEnv, nil)
	return nil
}

func (c *tightCtx) Log(string, ...any)               {}
func (c *tightCtx) Fault(string)                     {}
func (c *tightCtx) Checkpoint(string) string         { return "" }
func (c *tightCtx) Speculate(string) (string, error) { return "", nil }
func (c *tightCtx) Commit(string) error              { return nil }
func (c *tightCtx) AbortSpec(string, string) error   { return nil }
func (c *tightCtx) Halt()                            {}
