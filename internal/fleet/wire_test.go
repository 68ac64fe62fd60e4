package fleet

import (
	"bytes"
	"encoding/hex"
	"flag"
	"fmt"
	"math"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/chaos"
	"repro/internal/fault"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata golden files")

// goldenFrames is the canonical frame set the wire fixture pins: one of
// every frame type, with the optional payload fields exercised.
func goldenFrames() []*Frame {
	sched := chaos.Schedule{
		{Kind: fault.Reorder, Targets: []int{1, 2},
			Window:    chaos.Window{From: 10, To: 80},
			Intensity: chaos.Intensity{Jitter: 25}},
		{Kind: fault.Crash, Targets: []int{0},
			Window: chaos.Window{From: 40, To: 90}},
	}
	run := &chaos.RunResult{
		Digest: "d1", Shape: "s1",
		Violations: []string{"inv: conserved"},
		Procs:      []string{"p0", "p1", "p2"},
	}
	return []*Frame{
		{Type: FrameHello, Hello: &Hello{Proto: ProtoVersion, Name: "worker/0"}},
		{Type: FrameLease, Lease: &Lease{
			ID: 7, DeadlineMS: 15000, App: "kvstore", Buggy: true, Seed: 3,
			CheckEvery: 64, ShrinkBudget: 200,
			Candidates: []WireCandidate{{Index: 12, Schedule: sched}, {Index: 13}},
		}},
		{Type: FrameLease, Lease: &Lease{
			ID: 8, DeadlineMS: 15000, App: "kvstore", Seed: 3, ShrinkBudget: 200,
			Shrink: &ShrinkJob{Schedule: sched, Result: run},
		}},
		{Type: FrameResult, Result: &Result{LeaseID: 7, Runs: []*chaos.RunResult{run, {Digest: "d2", Shape: "s2"}}}},
		{Type: FrameResult, Result: &Result{LeaseID: 8, Failure: &chaos.SearchFailure{
			Schedule: sched, Violations: run.Violations, Shrunk: sched[:1], ShrinkRuns: 9, Minimal: true,
		}}},
		{Type: FrameResult, Result: &Result{LeaseID: 9, Error: "apps: unknown application \"nope\""}},
		{Type: FrameDone, Done: &Done{Reason: "search complete"}},
	}
}

// TestWireGolden pins the exact wire bytes of the canonical frames to a
// committed fixture: an accidental frame-layout or JSON-shape change —
// which would silently break mixed-version fleets — fails this test
// instead. Regenerate deliberately with -update (and bump ProtoVersion if
// the change is real).
func TestWireGolden(t *testing.T) {
	var b strings.Builder
	for _, f := range goldenFrames() {
		enc, err := EncodeFrame(f)
		if err != nil {
			t.Fatalf("encode type %d: %v", f.Type, err)
		}
		fmt.Fprintf(&b, "%s\n", hex.EncodeToString(enc))
	}
	path := filepath.Join("testdata", "frames.golden")
	if *updateGolden {
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := b.String(); got != string(want) {
		t.Errorf("wire encoding drifted from %s (re-run with -update only if the protocol change is intended, and bump ProtoVersion)\ngot:\n%swant:\n%s",
			path, got, want)
	}
}

// TestWireRoundTrip: encode → decode recovers the frame, and the decoded
// frame re-encodes to identical bytes (the stability property the fuzz
// target checks on arbitrary input).
func TestWireRoundTrip(t *testing.T) {
	for _, f := range goldenFrames() {
		enc, err := EncodeFrame(f)
		if err != nil {
			t.Fatalf("encode type %d: %v", f.Type, err)
		}
		dec, err := DecodeFrame(enc)
		if err != nil {
			t.Fatalf("decode type %d: %v", f.Type, err)
		}
		if !reflect.DeepEqual(f, dec) {
			t.Errorf("frame type %d did not round-trip:\n%+v\n%+v", f.Type, f, dec)
		}
		re, err := EncodeFrame(dec)
		if err != nil {
			t.Fatalf("re-encode type %d: %v", f.Type, err)
		}
		if !bytes.Equal(enc, re) {
			t.Errorf("frame type %d re-encodes differently", f.Type)
		}
	}
}

// TestWireDecodeErrors: malformed input is rejected with an error, never a
// panic or a bogus frame.
func TestWireDecodeErrors(t *testing.T) {
	valid, err := EncodeFrame(&Frame{Type: FrameDone, Done: &Done{}})
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string][]byte{
		"empty":          nil,
		"short header":   {1, 0, 0},
		"unknown type":   {9, 0, 0, 0, 2, '{', '}'},
		"zero type":      {0, 0, 0, 0, 2, '{', '}'},
		"truncated body": {1, 0, 0, 0, 10, '{', '}'},
		"oversize cap":   {1, 0xff, 0xff, 0xff, 0xff},
		"bad json":       {1, 0, 0, 0, 1, 'x'},
		"trailing bytes": append(append([]byte{}, valid...), 'x'),
	}
	for name, b := range cases {
		if f, err := DecodeFrame(b); err == nil {
			t.Errorf("%s: decoded to %+v, want error", name, f)
		}
	}
}

// TestWireEncodeRejectsMalformedFrames: a frame whose payload does not
// match its type cannot be put on the wire.
func TestWireEncodeRejectsMalformedFrames(t *testing.T) {
	for _, f := range []*Frame{
		{Type: FrameHello},                             // nil payload
		{Type: FrameLease, Hello: &Hello{}},            // wrong payload
		{Type: 0},                                      // unknown type
		{Type: 77, Done: &Done{}},                      // unknown type with payload
		{Type: FrameDone, Result: &Result{LeaseID: 1}}, // payload/type mismatch
	} {
		if b, err := EncodeFrame(f); err == nil {
			t.Errorf("frame %+v encoded to %d bytes, want error", f, len(b))
		}
	}
}

// TestWireReadWrite pushes every canonical frame through a real pipe —
// the ReadFrame/WriteFrame streaming layer the sessions use. One reader
// reads them all into its reused buffer, so a decoded frame that aliased
// the buffer would change under the frames read after it: each one must
// still equal a fresh decode of its own bytes once the last is read.
func TestWireReadWrite(t *testing.T) {
	client, server := net.Pipe()
	defer client.Close()
	defer server.Close()
	frames := goldenFrames()
	go func() {
		for _, f := range frames {
			WriteFrame(client, f)
		}
	}()
	got := make([]*Frame, len(frames))
	for i, want := range frames {
		f, err := ReadFrame(server)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !reflect.DeepEqual(want, f) {
			t.Errorf("frame %d mutated in transit:\n%+v\n%+v", i, want, f)
		}
		got[i] = f
	}
	for i, f := range got {
		enc, err := EncodeFrame(frames[i])
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := DecodeFrame(enc)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(fresh, f) {
			t.Errorf("frame %d changed after later frames were read:\n%+v\n%+v", i, fresh, f)
		}
	}
}

// resultFrame is a Result frame of n runs, each with violations, the
// kind of frame a worker answers a run lease with.
func resultFrame(n int) *Frame {
	runs := make([]*chaos.RunResult, n)
	for i := range runs {
		runs[i] = &chaos.RunResult{
			Digest:     fmt.Sprintf("%064x", i),
			Shape:      fmt.Sprintf("%016x", i*7),
			Violations: []string{"inv: conserved", "inv: single leader"},
			Procs:      []string{"p0", "p1", "p2", "probe"},
		}
	}
	return &Frame{Type: FrameResult, Result: &Result{LeaseID: 41, Runs: runs}}
}

// bytesAllocated returns the fewest bytes one call of fn allocated over
// several calls: the steady state, past a pooled buffer a garbage
// collection emptied.
func bytesAllocated(fn func()) uint64 {
	best := uint64(math.MaxUint64)
	var before, after runtime.MemStats
	for range 64 {
		runtime.ReadMemStats(&before)
		fn()
		runtime.ReadMemStats(&after)
		best = min(best, after.TotalAlloc-before.TotalAlloc)
	}
	return best
}

// TestFrameRoundTripAllocatesNoBody: a Result frame's WriteFrame/ReadFrame
// round trip allocates no buffer the size of its body. Beyond what decoding
// the same bytes already in hand allocates (the frame's own values), the
// round trip may allocate less than half a body; while each frame was
// marshaled, copied into its framed form and read into a fresh buffer, it
// allocated three bodies more.
func TestFrameRoundTripAllocatesNoBody(t *testing.T) {
	f := resultFrame(16)
	enc, err := EncodeFrame(f)
	if err != nil {
		t.Fatal(err)
	}
	var stream bytes.Buffer
	stream.Grow(2 * len(enc))
	roundTrip := bytesAllocated(func() {
		stream.Reset()
		if err := WriteFrame(&stream, f); err != nil {
			t.Fatal(err)
		}
		if _, err := ReadFrame(&stream); err != nil {
			t.Fatal(err)
		}
	})
	decode := bytesAllocated(func() {
		if _, err := DecodeFrame(enc); err != nil {
			t.Fatal(err)
		}
	})
	body := uint64(len(enc) - 5)
	if extra := int64(roundTrip) - int64(decode); extra >= int64(body/2) {
		t.Fatalf("a %d-byte Result frame's round trip allocates %d B, %d B more than decoding it; want < %d (a frame buffer is allocated per frame)",
			body, roundTrip, extra, body/2)
	}
}

// BenchmarkFrameRoundTrip times one Result frame of 16 runs written with
// WriteFrame and read back with ReadFrame, through an in-memory stream.
func BenchmarkFrameRoundTrip(b *testing.B) {
	f := resultFrame(16)
	var stream bytes.Buffer
	b.ReportAllocs()
	for range b.N {
		stream.Reset()
		if err := WriteFrame(&stream, f); err != nil {
			b.Fatal(err)
		}
		if _, err := ReadFrame(&stream); err != nil {
			b.Fatal(err)
		}
	}
}

// FuzzFleetFrameDecode: the decoder never panics on arbitrary bytes, and
// anything it accepts re-encodes stably (decode → encode → decode →
// encode produces identical bytes both times).
func FuzzFleetFrameDecode(f *testing.F) {
	for _, fr := range goldenFrames() {
		enc, err := EncodeFrame(fr)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(enc)
	}
	f.Add([]byte{})
	f.Add([]byte{1, 0, 0, 0, 0})
	f.Add([]byte{4, 0, 0, 0, 2, '{', '}'})
	f.Add([]byte{2, 0, 0, 0, 4, 'n', 'u', 'l', 'l'})
	f.Fuzz(func(t *testing.T, data []byte) {
		fr, err := DecodeFrame(data)
		if err != nil {
			return
		}
		enc, err := EncodeFrame(fr)
		if err != nil {
			t.Fatalf("decoded frame does not re-encode: %v", err)
		}
		fr2, err := DecodeFrame(enc)
		if err != nil {
			t.Fatalf("re-encoded frame does not decode: %v", err)
		}
		enc2, err := EncodeFrame(fr2)
		if err != nil {
			t.Fatalf("second re-encode failed: %v", err)
		}
		if !bytes.Equal(enc, enc2) {
			t.Fatalf("re-encoding is unstable:\n%x\n%x", enc, enc2)
		}
	})
}
