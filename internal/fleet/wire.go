package fleet

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"slices"
	"sync"

	"repro/internal/chaos"
)

// ProtoVersion is the fleet wire-protocol version carried in Hello. A
// coordinator rejects workers speaking a different version — mixed-build
// fleets would break byte-identity silently otherwise.
const ProtoVersion = 1

// maxFrameBody caps a frame body so a corrupt or hostile length prefix
// cannot force an arbitrary allocation.
const maxFrameBody = 16 << 20

// FrameType discriminates fleet protocol frames.
type FrameType uint8

const (
	// FrameHello is the worker's opening frame.
	FrameHello FrameType = 1
	// FrameLease carries work from coordinator to worker: either a batch
	// of candidate schedules to evaluate or one failing schedule to shrink.
	FrameLease FrameType = 2
	// FrameResult answers a lease.
	FrameResult FrameType = 3
	// FrameDone tells a worker the search is complete.
	FrameDone FrameType = 4
)

// Hello identifies a worker to the coordinator.
type Hello struct {
	Proto int
	Name  string `json:",omitempty"`
}

// WireCandidate is one candidate schedule inside a run lease, tagged with
// its global execution index so results land in admission order.
type WireCandidate struct {
	Index    int
	Schedule chaos.Schedule
}

// ShrinkJob asks a worker to minimize one failing schedule. Result is the
// failing run's outcome as found; the worker reruns chaos.Shrink and
// artifact capture locally — both deterministic — so the returned failure
// is byte-identical to what an in-process search would have produced.
type ShrinkJob struct {
	Schedule chaos.Schedule
	Result   *chaos.RunResult
}

// Lease is one unit of leased work. The runner parameters (App, Buggy,
// Seed, CheckEvery) let the stateless worker reconstruct the exact
// chaos.Runner the coordinator's frontier binds; byte-identity of the
// fleet report depends on that reconstruction.
type Lease struct {
	ID         uint64
	DeadlineMS int64 // advisory: the coordinator reissues after this many milliseconds
	App        string
	Buggy      bool   `json:",omitempty"`
	Seed       int64  `json:",omitempty"`
	CheckEvery uint64 `json:",omitempty"`
	// ShrinkBudget bounds a shrink lease's executions (negative disables
	// shrinking, matching chaos.SearchConfig.ShrinkBudget).
	ShrinkBudget int             `json:",omitempty"`
	Candidates   []WireCandidate `json:",omitempty"` // run lease
	Shrink       *ShrinkJob      `json:",omitempty"` // shrink lease
}

// Result answers a lease: Runs aligns with the lease's Candidates, Failure
// answers a shrink lease, and a non-empty Error reports a worker-side
// failure (the coordinator reissues the lease elsewhere).
type Result struct {
	LeaseID uint64
	Error   string               `json:",omitempty"`
	Runs    []*chaos.RunResult   `json:",omitempty"`
	Failure *chaos.SearchFailure `json:",omitempty"`
}

// Done ends a worker's session.
type Done struct {
	Reason string `json:",omitempty"`
}

// Frame is one decoded protocol frame: Type plus exactly one non-nil
// payload field matching it.
type Frame struct {
	Type   FrameType
	Hello  *Hello  `json:",omitempty"`
	Lease  *Lease  `json:",omitempty"`
	Result *Result `json:",omitempty"`
	Done   *Done   `json:",omitempty"`
}

// payload returns the frame's payload for its declared type.
func (f *Frame) payload() (any, error) {
	switch f.Type {
	case FrameHello:
		if f.Hello != nil {
			return f.Hello, nil
		}
	case FrameLease:
		if f.Lease != nil {
			return f.Lease, nil
		}
	case FrameResult:
		if f.Result != nil {
			return f.Result, nil
		}
	case FrameDone:
		if f.Done != nil {
			return f.Done, nil
		}
	default:
		return nil, fmt.Errorf("fleet: unknown frame type %d", f.Type)
	}
	return nil, fmt.Errorf("fleet: frame type %d with nil payload", f.Type)
}

// frameBufMax is the largest frame buffer kept for the next frame: a
// buffer a bigger frame grew is dropped after its frame.
const frameBufMax = 64 << 10

// frameBuf is a reusable frame buffer. WriteFrame encodes a frame's header
// and body into it, ReadFrame reads a frame into it; the decoder copies
// whatever it keeps, so nothing decoded aliases the buffer.
type frameBuf struct {
	buf []byte
	enc *json.Encoder // writes into buf
}

// Write appends p to the buffer (the encoder's destination).
func (fb *frameBuf) Write(p []byte) (int, error) {
	fb.buf = append(fb.buf, p...)
	return len(p), nil
}

var frameBufs = sync.Pool{New: func() any {
	fb := new(frameBuf)
	fb.enc = json.NewEncoder(fb)
	return fb
}}

// release returns the buffer to the pool unless a large frame grew it.
func (fb *frameBuf) release() {
	if cap(fb.buf) <= frameBufMax {
		frameBufs.Put(fb)
	}
}

// EncodeFrame renders the frame to its wire form.
func EncodeFrame(f *Frame) ([]byte, error) {
	var b bytes.Buffer
	if err := WriteFrame(&b, f); err != nil {
		return nil, err
	}
	return b.Bytes(), nil
}

// DecodeFrame parses one frame from exactly the given bytes. It never
// panics on arbitrary input (FuzzFleetFrameDecode), and a decoded frame
// re-encodes to a frame that decodes equal — the round-trip property the
// coordinator relies on when it journals and replays wire payloads.
func DecodeFrame(b []byte) (*Frame, error) {
	f, n, err := decodeFramePrefix(b)
	if err != nil {
		return nil, err
	}
	if n != len(b) {
		return nil, fmt.Errorf("fleet: %d trailing bytes after frame", len(b)-n)
	}
	return f, nil
}

// decodeFramePrefix parses one frame from the front of b and returns how
// many bytes it consumed.
func decodeFramePrefix(b []byte) (*Frame, int, error) {
	if len(b) < 5 {
		return nil, 0, errors.New("fleet: short frame header")
	}
	length := binary.BigEndian.Uint32(b[1:5])
	if length > maxFrameBody {
		return nil, 0, fmt.Errorf("fleet: frame body %d exceeds cap %d", length, maxFrameBody)
	}
	if uint32(len(b)-5) < length {
		return nil, 0, fmt.Errorf("fleet: frame body truncated: have %d of %d bytes", len(b)-5, length)
	}
	body := b[5 : 5+length]
	f := &Frame{Type: FrameType(b[0])}
	var p any
	switch f.Type {
	case FrameHello:
		f.Hello = &Hello{}
		p = f.Hello
	case FrameLease:
		f.Lease = &Lease{}
		p = f.Lease
	case FrameResult:
		f.Result = &Result{}
		p = f.Result
	case FrameDone:
		f.Done = &Done{}
		p = f.Done
	default:
		return nil, 0, fmt.Errorf("fleet: unknown frame type %d", b[0])
	}
	if err := json.Unmarshal(body, p); err != nil {
		return nil, 0, fmt.Errorf("fleet: bad frame body: %w", err)
	}
	return f, 5 + int(length), nil
}

// WriteFrame encodes the frame, header and body, into a reused buffer and
// writes it in one Write.
func WriteFrame(w io.Writer, f *Frame) error {
	p, err := f.payload()
	if err != nil {
		return err
	}
	fb := frameBufs.Get().(*frameBuf)
	defer fb.release()
	fb.buf = append(fb.buf[:0], byte(f.Type), 0, 0, 0, 0)
	// An Encoder writes what json.Marshal returns, and then a newline.
	if err := fb.enc.Encode(p); err != nil {
		return fmt.Errorf("fleet: encode frame: %w", err)
	}
	out := fb.buf[:len(fb.buf)-1]
	body := len(out) - 5
	if body > maxFrameBody {
		return fmt.Errorf("fleet: frame body %d exceeds cap %d", body, maxFrameBody)
	}
	binary.BigEndian.PutUint32(out[1:5], uint32(body))
	_, err = w.Write(out)
	return err
}

// ReadFrame reads and decodes one frame from the stream.
func ReadFrame(r io.Reader) (*Frame, error) {
	fb := frameBufs.Get().(*frameBuf)
	defer fb.release()
	fb.buf = append(fb.buf[:0], 0, 0, 0, 0, 0)
	if _, err := io.ReadFull(r, fb.buf); err != nil {
		return nil, err
	}
	length := binary.BigEndian.Uint32(fb.buf[1:5])
	if length > maxFrameBody {
		return nil, fmt.Errorf("fleet: frame body %d exceeds cap %d", length, maxFrameBody)
	}
	fb.buf = slices.Grow(fb.buf, int(length))[:5+length]
	if _, err := io.ReadFull(r, fb.buf[5:]); err != nil {
		return nil, err
	}
	return DecodeFrame(fb.buf)
}
