package apps

import (
	"bytes"
	"encoding/binary"
	"strconv"
)

// Every application speaks "verb|field|field": text on the wire, so a
// scroll reads in scrollcat and a corrupted byte stays a parse problem.
// This file is the whole payload path. It leans on the dsim.Context
// contract — Send and DurablePut copy what they are given, OnMessage's
// payload is borrowed for the call — so a handler formats into scratch its
// machine owns and parses sub-slices of the payload it was lent, and
// neither direction allocates.

// wire is a machine's payload scratch. It sits in the machine struct beside
// the state, not in it: no checkpoint sees it, and a fresh machine costs no
// extra allocation. Both backends run a machine's handlers one at a time,
// which is all the synchronisation a per-machine buffer needs.
type wire struct {
	buf  [48]byte
	keys map[string]string
}

// payload is a message under construction in a wire's scratch, valid until
// the wire's next verb. One longer than the scratch spills to the heap.
type payload []byte

// verb starts a payload: fmt.Sprintf("%s", v).
func (w *wire) verb(v string) payload { return append(w.buf[:0], v...) }

// str, raw, int and uint append one "|field".
func (p payload) str(s string) payload  { return append(append(p, '|'), s...) }
func (p payload) raw(b []byte) payload  { return append(append(p, '|'), b...) }
func (p payload) int(v int64) payload   { return strconv.AppendInt(append(p, '|'), v, 10) }
func (p payload) uint(v uint64) payload { return strconv.AppendUint(append(p, '|'), v, 10) }

// tagged appends the field fmt.Sprintf("|%s%d", tag, v) — "k12", "v7".
func (p payload) tagged(tag string, v int) payload {
	return strconv.AppendInt(p.str(tag), int64(v), 10)
}

// cell renders a versioned stable-storage cell — 8-byte LE version, then
// the value — for DurablePut, in the same scratch.
func (w *wire) cell(ver uint64, val []byte) []byte {
	return append(binary.LittleEndian.AppendUint64(w.buf[:0], ver), val...)
}

// intern returns string(b), allocating it only the first time this machine
// sees those bytes. State maps are keyed by strings that arrive as payload
// fields over and over (a kv key, a request id); a lookup m[string(b)] is
// free, but a store needs a real string, and a Go map does not hand back
// the key it already holds.
func (w *wire) intern(b []byte) string {
	if s, ok := w.keys[string(b)]; ok {
		return s
	}
	if w.keys == nil {
		w.keys = make(map[string]string)
	}
	s := string(b)
	w.keys[s] = s
	return s
}

// cut splits p around its first '|', as strings.Cut(string(p), "|") does.
func cut(p []byte) (before, after []byte, found bool) {
	if i := bytes.IndexByte(p, '|'); i >= 0 {
		return p[:i], p[i+1:], true
	}
	return p, nil, false
}

// fields cuts p at every '|' — the same cuts strings.Split(string(p), "|")
// makes — stores the leading len(dst) fields in dst as sub-slices of p, and
// returns how many fields there are in all. Numbers go through
// strconv.Atoi(string(f)) and verbs through switch string(f), neither of
// which copies, so what a handler accepts is what the standard library
// accepts.
func fields(p []byte, dst [][]byte) int {
	for n := 0; ; n++ {
		f, rest, more := cut(p)
		if n < len(dst) {
			dst[n] = f
		}
		if !more {
			return n + 1
		}
		p = rest
	}
}
