package scroll

import (
	"bytes"
	"encoding/hex"
	"testing"
	"unsafe"

	"repro/internal/vclock"
)

// goldenClock builds a clock from parallel id/count lists in the order
// given — deliberately not sorted, the encoder must not care.
func goldenClock(ids []string, counts []uint64) vclock.VC {
	v := vclock.New()
	for i, id := range ids {
		v.Set(id, counts[i])
	}
	return v
}

// goldenRecords are three hand-written records and the hex of their
// encode() output as produced by the map-clock implementation this
// representation replaced (generated at the parent commit): the scroll
// encoding — and with it every digest, WAL record and artifact — must not
// move when the clock's in-memory shape does.
var goldenRecords = []struct {
	rec Record
	hex string
}{
	{Record{Proc: "node-3", Seq: 42, Kind: KindRecv, MsgID: "m-17", Peer: "node-1", Payload: []byte("hello world"),
		Lamport: 99, Clock: goldenClock([]string{"node-3", "node-1"}, []uint64{12, 7})},
		"0163000000000000002a00000000000000066e6f64652d33046d2d3137066e6f64652d310b68656c6c6f20776f726c6402066e6f64652d3107066e6f64652d330c"},
	{Record{Proc: "zzprobe", Seq: 0, Kind: KindCustom, MsgID: "timer:tick", Payload: []byte("tick"), Lamport: 1},
		"0801000000000000000000000000000000077a7a70726f62650a74696d65723a7469636b00047469636b00"},
	{Record{Proc: "b", Seq: 300, Kind: KindCkpt, MsgID: "b#2", Payload: []byte{0, 0xff, 0x80},
		Lamport: 1 << 40, Clock: goldenClock([]string{"c", "a", "b"}, []uint64{1, 1 << 33, 129})},
		"0600000000000100002c01000000000000016203622332000300ff80030161808080802001628101016301"},
}

const goldenDigest = "d684bd9862e95dda6082cddfb80004d0cc4e858308aaea037cae2a78d084aee8"

// goldenShapeSet is a multi-process, multi-window record set for the shape
// golden: three processes (one named twice as often as the others), kinds 0
// and 200 beside the named ones, Lamport times that revisit earlier windows,
// and per-bucket counts spread over several log2 buckets.
func goldenShapeSet() []Record {
	procs := []string{"node-3", "b", "node-3", "zzprobe"}
	kinds := []Kind{KindRecv, KindSend, 0, KindCkpt, 200, KindRecv}
	var recs []Record
	for i := range 300 {
		recs = append(recs, Record{
			Proc:    procs[i%len(procs)],
			Seq:     uint64(i),
			Kind:    kinds[(i/3)%len(kinds)],
			Lamport: uint64(i*i) % 211,
		})
	}
	return recs
}

// goldenShapes pins Shape over the golden records and the golden set. The
// values were produced by the map-keyed accumulator the run-based one
// replaced: the signature must not move when its implementation does.
var goldenShapes = []struct {
	name   string
	recs   []Record
	bucket uint64
	want   string
}{
	{"golden records, bucket 16", goldenRecordSlice(), 16, "bede942c365c5ddc"},
	{"golden records, bucket 0", goldenRecordSlice(), 0, "a7ba0623f5e08a8e"},
	{"golden set, bucket 1", goldenShapeSet(), 1, "e7b150fe0ad28f02"},
	{"golden set, bucket 16", goldenShapeSet(), 16, "6886ad144fd3762a"},
	{"golden set, bucket 64", goldenShapeSet(), 64, "2202c19eb199624a"},
}

func goldenRecordSlice() []Record {
	recs := make([]Record, len(goldenRecords))
	for i, g := range goldenRecords {
		recs[i] = g.rec
	}
	return recs
}

func TestGoldenShape(t *testing.T) {
	for _, g := range goldenShapes {
		if got := Shape(g.recs, g.bucket); got != g.want {
			t.Errorf("%s: Shape = %s, want %s", g.name, got, g.want)
		}
		if got := shapeModel(g.recs, g.bucket); got != g.want {
			t.Errorf("%s: the reference model gives %s, want %s", g.name, got, g.want)
		}
	}
}

func TestGoldenRecordEncoding(t *testing.T) {
	recs := goldenRecordSlice()
	for i, g := range goldenRecords {
		if got := hex.EncodeToString(g.rec.encode()); got != g.hex {
			t.Errorf("record %d encodes to\n %s, want\n %s", i, got, g.hex)
		}
		// A clock on a wider table (zero components) encodes the same.
		wide := g.rec
		wide.Clock = vclock.NewTable("a", "aa", "node-2", "zz").New().Merge(g.rec.Clock)
		if got := hex.EncodeToString(wide.encode()); got != g.hex {
			t.Errorf("record %d on a wider table encodes to\n %s, want\n %s", i, got, g.hex)
		}
		raw, _ := hex.DecodeString(g.hex)
		back, err := decodeRecord(raw)
		if err != nil || !bytes.Equal(back.encode(), raw) || back.Clock.Compare(g.rec.Clock) != vclock.Equal {
			t.Errorf("record %d does not survive decode: %+v, %v", i, back, err)
		}
	}
	if got := Digest(recs); got != goldenDigest {
		t.Errorf("Digest = %s, want %s", got, goldenDigest)
	}
	if got := digestModel(recs); got != goldenDigest {
		t.Errorf("the reference model digests to %s, want %s", got, goldenDigest)
	}
}

// A scroll stores an entry per record, and entries are a large share of
// what a long run allocates; a Record is what every copy out of a scroll
// costs. The clock in both must stay one machine word.
func TestRecordSizeDoesNotGrow(t *testing.T) {
	const parent = 13 * unsafe.Sizeof(uintptr(0)) // 104 bytes on 64-bit, as with the map clock
	if got := unsafe.Sizeof(Record{}); got > parent {
		t.Errorf("unsafe.Sizeof(Record{}) = %d, want <= %d", got, parent)
	}
	if got := unsafe.Sizeof(entry{}); got > 56 {
		t.Errorf("unsafe.Sizeof(entry{}) = %d, want <= 56", got)
	}
	if got := unsafe.Sizeof(vclock.VC{}); got != unsafe.Sizeof(uintptr(0)) {
		t.Errorf("unsafe.Sizeof(vclock.VC{}) = %d, want one word", got)
	}
}

// TestDecodeRejectsHostileClocks: clock entries no writer produces —
// unsorted, duplicated or zero-valued — are corrupt, not canonicalised.
func TestDecodeRejectsHostileClocks(t *testing.T) {
	enc := (&Record{Proc: "p", Kind: KindEnv}).encode()
	prefix := enc[:len(enc)-1] // all but the zero clock's entry count
	entry := func(id string, n byte) []byte { return append(append([]byte{byte(len(id))}, id...), n) }
	for name, clock := range map[string][]byte{
		"unsorted":        append(append([]byte{2}, entry("b", 1)...), entry("a", 1)...),
		"duplicate":       append(append([]byte{2}, entry("a", 1)...), entry("a", 2)...),
		"zero value":      append([]byte{1}, entry("a", 0)...),
		"count past end":  append([]byte{3}, entry("a", 1)...),
		"count overflows": {0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01},
	} {
		if rec, err := decodeRecord(append(bytes.Clone(prefix), clock...)); err == nil {
			t.Errorf("%s clock accepted as %v", name, rec.Clock)
		}
	}
	ok := append(append([]byte{2}, entry("a", 1)...), entry("b", 2)...)
	if rec, err := decodeRecord(append(bytes.Clone(prefix), ok...)); err != nil || rec.Clock.String() != "{a:1 b:2}" {
		t.Errorf("canonical clock rejected: %v, %v", rec.Clock, err)
	}
}

// FuzzRecordDecode feeds decodeRecord arbitrary bytes: it must never
// panic, and whatever it accepts must be a fixed point of decode → encode
// → decode with a stable digest.
func FuzzRecordDecode(f *testing.F) {
	for _, g := range goldenRecords {
		raw, _ := hex.DecodeString(g.hex)
		f.Add(raw)
		f.Add(raw[:len(raw)-1])
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, b []byte) {
		rec, err := decodeRecord(b)
		if err != nil {
			return
		}
		enc := rec.encode()
		again, err := decodeRecord(enc)
		if err != nil {
			t.Fatalf("re-encoded record does not decode: %v\n in  %x\n enc %x", err, b, enc)
		}
		if enc2 := again.encode(); !bytes.Equal(enc, enc2) {
			t.Fatalf("encode is not a fixed point:\n %x\n %x", enc, enc2)
		}
		if d1, d2 := Digest([]Record{rec}), Digest([]Record{again}); d1 != d2 {
			t.Fatalf("digest moved across a round trip: %s vs %s", d1, d2)
		}
	})
}
