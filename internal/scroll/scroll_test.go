package scroll

import (
	"bytes"
	"encoding/binary"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/vclock"
)

func TestKindString(t *testing.T) {
	for k, want := range map[Kind]string{
		KindRecv: "recv", KindSend: "send", KindRandom: "random", KindTime: "time",
		KindEnv: "env", KindCkpt: "ckpt", KindFault: "fault", KindCustom: "custom",
		Kind(99): "Kind(99)",
	} {
		if got := k.String(); got != want {
			t.Errorf("Kind %d String = %q, want %q", k, got, want)
		}
	}
}

func TestAppendAssignsSeq(t *testing.T) {
	s := NewMemory("p1")
	for i := 0; i < 3; i++ {
		seq, err := s.Append(Record{Kind: KindRandom, Payload: []byte{byte(i)}})
		if err != nil {
			t.Fatal(err)
		}
		if seq != uint64(i) {
			t.Errorf("seq = %d, want %d", seq, i)
		}
	}
	recs := s.Records()
	if len(recs) != 3 {
		t.Fatalf("len = %d", len(recs))
	}
	for i, r := range recs {
		if r.Proc != "p1" || r.Seq != uint64(i) {
			t.Errorf("record %d: proc=%q seq=%d", i, r.Proc, r.Seq)
		}
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	r := Record{
		Proc: "node-3", Seq: 42, Kind: KindRecv, MsgID: "m-17", Peer: "node-1",
		Payload: []byte("hello world"), Lamport: 99,
		Clock: vclock.New(),
	}
	r.Clock.Set("node-1", 7)
	r.Clock.Set("node-3", 12)
	got, err := decodeRecord(r.encode())
	if err != nil {
		t.Fatal(err)
	}
	if got.Proc != r.Proc || got.Seq != r.Seq || got.Kind != r.Kind ||
		got.MsgID != r.MsgID || got.Peer != r.Peer || got.Lamport != r.Lamport {
		t.Errorf("round trip mismatch: %+v vs %+v", got, r)
	}
	if !bytes.Equal(got.Payload, r.Payload) {
		t.Errorf("payload = %q, want %q", got.Payload, r.Payload)
	}
	if got.Clock.Compare(r.Clock) != vclock.Equal {
		t.Errorf("clock = %v, want %v", got.Clock, r.Clock)
	}
}

func TestDecodeErrors(t *testing.T) {
	if _, err := decodeRecord([]byte{1, 2}); err == nil {
		t.Error("short record should fail")
	}
	r := Record{Proc: "p", Kind: KindEnv, Payload: []byte("abcdef")}
	enc := r.encode()
	if _, err := decodeRecord(enc[:len(enc)-10]); err == nil {
		t.Error("truncated record should fail")
	}
}

func TestQuickEncodeDecode(t *testing.T) {
	f := func(proc, msgID, peer string, payload []byte, lamport uint64, kindSeed uint8) bool {
		r := Record{
			Proc: proc, Kind: Kind(kindSeed%8 + 1), MsgID: msgID, Peer: peer,
			Payload: payload, Lamport: lamport,
			Clock: vclock.New(),
		}
		r.Clock.Set("a", uint64(kindSeed))
		r.Clock.Set(proc, lamport%17)
		got, err := decodeRecord(r.encode())
		if err != nil {
			return false
		}
		return got.Proc == r.Proc && got.MsgID == r.MsgID && got.Peer == r.Peer &&
			bytes.Equal(got.Payload, r.Payload) && got.Lamport == r.Lamport &&
			got.Clock.Compare(r.Clock) == vclock.Equal
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestDurableScrollSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenDurable("px", dir)
	if err != nil {
		t.Fatal(err)
	}
	s.Append(Record{Kind: KindRecv, MsgID: "m1", Peer: "py", Payload: []byte("data"), Lamport: 5})
	s.Append(Record{Kind: KindRandom, Payload: binary.LittleEndian.AppendUint64(nil, 777)})
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := OpenDurable("px", dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	recs := s2.Records()
	if len(recs) != 2 {
		t.Fatalf("reopened scroll has %d records, want 2", len(recs))
	}
	if recs[0].MsgID != "m1" || string(recs[0].Payload) != "data" {
		t.Errorf("record 0 = %+v", recs[0])
	}
	if binary.LittleEndian.Uint64(recs[1].Payload) != 777 {
		t.Errorf("record 1 payload = %v", recs[1].Payload)
	}
	// New appends continue the sequence.
	seq, _ := s2.Append(Record{Kind: KindEnv, Payload: []byte("v")})
	if seq != 2 {
		t.Errorf("continued seq = %d, want 2", seq)
	}
}

func TestTruncate(t *testing.T) {
	s := NewMemory("p")
	for i := 0; i < 5; i++ {
		s.Append(Record{Kind: KindRandom})
	}
	s.Truncate(2)
	if s.Len() != 2 {
		t.Fatalf("len after truncate = %d, want 2", s.Len())
	}
	seq, _ := s.Append(Record{Kind: KindRandom})
	if seq != 2 {
		t.Errorf("seq after truncate = %d, want 2", seq)
	}
	s.Truncate(10) // beyond end: no-op
	if s.Len() != 3 {
		t.Errorf("len = %d, want 3", s.Len())
	}
}

// TestShape: the event-shape signature aliases nearby interleavings
// (that is its job) but separates structurally different executions.
func TestShape(t *testing.T) {
	mk := func(proc string, kind Kind, lamports ...uint64) []Record {
		var recs []Record
		for _, l := range lamports {
			recs = append(recs, Record{Proc: proc, Kind: kind, Lamport: l})
		}
		return recs
	}
	base := append(mk("a", KindRecv, 1, 2, 3), mk("b", KindSend, 5, 6)...)

	// Record order must not matter: the signature is canonical.
	shuffled := append(mk("b", KindSend, 6, 5), mk("a", KindRecv, 2, 1, 3)...)
	if Shape(base, 64) != Shape(shuffled, 64) {
		t.Error("shape depends on record order")
	}
	// Small timing shifts inside one window bucket alias.
	shifted := append(mk("a", KindRecv, 2, 3, 4), mk("b", KindSend, 7, 8)...)
	if Shape(base, 64) != Shape(shifted, 64) {
		t.Error("within-bucket Lamport shifts should alias")
	}
	// Counts alias at log2 granularity ([2^k, 2^(k+1)) buckets): 4 and 7
	// deliveries share a bucket, 4 and 8 do not.
	if Shape(mk("a", KindRecv, 1, 2, 3, 4), 64) != Shape(mk("a", KindRecv, 1, 2, 3, 4, 5, 6, 7), 64) {
		t.Error("4 vs 7 records should share a log2 count bucket")
	}
	if Shape(mk("a", KindRecv, 1, 2, 3, 4), 64) == Shape(mk("a", KindRecv, 1, 2, 3, 4, 5, 6, 7, 8), 64) {
		t.Error("4 vs 8 records should differ")
	}
	// Different processes, kinds, or phases separate.
	for name, other := range map[string][]Record{
		"proc":  append(mk("c", KindRecv, 1, 2, 3), mk("b", KindSend, 5, 6)...),
		"kind":  append(mk("a", KindEnv, 1, 2, 3), mk("b", KindSend, 5, 6)...),
		"phase": append(mk("a", KindRecv, 1001, 1002, 1003), mk("b", KindSend, 5, 6)...),
	} {
		if Shape(base, 64) == Shape(other, 64) {
			t.Errorf("%s difference did not change the shape", name)
		}
	}
	// A zero bucket defaults instead of dividing by zero, and the empty
	// stream has a stable signature.
	if Shape(base, 0) == "" || Shape(nil, 64) != Shape(nil, 64) {
		t.Error("degenerate inputs broke Shape")
	}
}

func TestMergeGlobalOrder(t *testing.T) {
	a := NewMemory("a")
	b := NewMemory("b")
	a.Append(Record{Kind: KindSend, MsgID: "m1", Peer: "b", Lamport: 1})
	b.Append(Record{Kind: KindRecv, MsgID: "m1", Peer: "a", Lamport: 2})
	b.Append(Record{Kind: KindSend, MsgID: "m2", Peer: "a", Lamport: 3})
	a.Append(Record{Kind: KindRecv, MsgID: "m2", Peer: "b", Lamport: 4})
	merged := Merge(a, b)
	if len(merged) != 4 {
		t.Fatalf("merged len = %d", len(merged))
	}
	for i := 1; i < len(merged); i++ {
		if merged[i-1].Lamport > merged[i].Lamport {
			t.Errorf("merge out of order at %d", i)
		}
	}
	if merged[0].MsgID != "m1" || merged[0].Kind != KindSend {
		t.Errorf("first = %+v", merged[0])
	}
}

// TestInTransit: the messages in transit across a cut are the sends before
// their sender's cut with no receive before their receiver's, in process
// order and then scroll order.
func TestInTransit(t *testing.T) {
	a, b, c := NewMemory("a"), NewMemory("b"), NewMemory("c")
	a.Append(Record{Kind: KindSend, MsgID: "m1", Peer: "b"}) // a:0
	a.Append(Record{Kind: KindSend, MsgID: "m2", Peer: "c"}) // a:1, dropped on the way
	a.Append(Record{Kind: KindRecv, MsgID: "m4", Peer: "b"}) // a:2
	a.Append(Record{Kind: KindSend, MsgID: "m3", Peer: "b"}) // a:3, duplicated on the way
	b.Append(Record{Kind: KindRecv, MsgID: "m1", Peer: "a"}) // b:0
	b.Append(Record{Kind: KindSend, MsgID: "m4", Peer: "a"}) // b:1
	b.Append(Record{Kind: KindRecv, MsgID: "m3", Peer: "a"}) // b:2, the first copy
	b.Append(Record{Kind: KindRecv, MsgID: "m3", Peer: "a"}) // b:3, the second
	c.Append(Record{Kind: KindRandom})                       // c:0
	c.Append(Record{Kind: KindSend, MsgID: "m5", Peer: "a"}) // c:1, never received
	for _, tc := range []struct {
		name string
		cut  map[string]uint64
		want []string
	}{
		{"full lengths: a dropped send is in transit", nil, []string{"m2", "m5"}},
		{"b at its initial state has received nothing", map[string]uint64{"b": 0}, []string{"m1", "m2", "m3", "m5"}},
		{"a at its initial state has sent nothing", map[string]uint64{"a": 0}, []string{"m4", "m5"}},
		{"one receive settles both copies of a duplicate", map[string]uint64{"b": 3}, []string{"m2", "m5"}},
		{"no receive of either copy", map[string]uint64{"b": 2}, []string{"m2", "m3", "m5"}},
		{"process order, then scroll order", map[string]uint64{"a": 2, "c": 0}, []string{"m2", "m4"}},
		{"a cut past the end is the full length", map[string]uint64{"a": 9, "b": 9, "c": 9}, []string{"m2", "m5"}},
	} {
		var got []string
		for r := range InTransit([]*Scroll{a, b, c}, tc.cut) {
			if r.Kind != KindSend {
				t.Errorf("%s: yielded a %s record", tc.name, r.Kind)
			}
			got = append(got, r.MsgID)
		}
		if !slices.Equal(got, tc.want) {
			t.Errorf("%s: in transit %v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestToTraceCutAnalysis: merged scrolls carry what cut analysis needs — a
// receive names its send (MsgID), the send is causally before it, and a cut
// (a prefix of each scroll) that keeps the receive but not the send is
// recognisably an orphan.
func TestToTraceCutAnalysis(t *testing.T) {
	a := NewMemory("a")
	b := NewMemory("b")
	va := vclock.New().Tick("a")
	a.Append(Record{Kind: KindSend, MsgID: "m1", Peer: "b", Lamport: 1, Clock: va.Copy()})
	vb := va.Copy().Tick("b")
	b.Append(Record{Kind: KindRecv, MsgID: "m1", Peer: "a", Lamport: 2, Clock: vb})
	recs := Merge(a, b)
	if len(recs) != 2 || recs[0].Kind != KindSend || recs[1].Kind != KindRecv {
		t.Fatalf("merge = %v, want the send then its receive", recs)
	}
	if recs[0].Clock.Compare(recs[1].Clock) != vclock.Before {
		t.Error("the send must happen before its receive")
	}
	orphans := func(cut map[string]uint64) int {
		sent, n := map[string]bool{}, 0
		for _, r := range recs {
			if r.Kind == KindSend && r.Seq < cut[r.Proc] {
				sent[r.MsgID] = true
			}
		}
		for _, r := range recs {
			if r.Kind == KindRecv && r.Seq < cut[r.Proc] && !sent[r.MsgID] {
				n++
			}
		}
		return n
	}
	// Orphan cut: b received m1 but a's send excluded.
	if orphans(map[string]uint64{"a": 0, "b": 1}) != 1 {
		t.Error("orphan cut should be inconsistent")
	}
	// Full cut is consistent.
	if orphans(map[string]uint64{"a": 1, "b": 1}) != 0 {
		t.Error("full cut should be consistent")
	}
}

func TestDurableTruncatePersists(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenDurable("p", dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		s.Append(Record{Kind: KindRecv, MsgID: "m", Payload: []byte{byte(i)}})
	}
	s.Truncate(2)
	// Appends after truncation resume at the cut.
	s.Append(Record{Kind: KindEnv, Payload: []byte("after")})
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := OpenDurable("p", dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	recs := s2.Records()
	if len(recs) != 3 {
		t.Fatalf("reopened records = %d, want 3 (2 kept + 1 appended)", len(recs))
	}
	if recs[0].Payload[0] != 0 || recs[1].Payload[0] != 1 {
		t.Errorf("kept prefix wrong: %v", recs[:2])
	}
	if string(recs[2].Payload) != "after" {
		t.Errorf("post-truncate append = %q", recs[2].Payload)
	}
}
