package checkpoint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/vclock"
)

// roundTrip captures state the way dsim.takeCheckpoint does and reads it
// back the way every consumer does.
func roundTrip(t *testing.T, a *Arena, state any) (got []byte, codec *StateCodec) {
	t.Helper()
	extra, codec, err := a.Encode(state)
	if err != nil {
		t.Fatalf("Encode(%T): %v", state, err)
	}
	got, err = (&Checkpoint{Extra: extra, Codec: codec}).StateJSON()
	if err != nil {
		t.Fatalf("StateJSON(%T): %v", state, err)
	}
	return got, codec
}

type inner struct {
	Key string
	Ver uint64
}

type named map[string]uint64

type plain struct {
	Values   map[string]string
	Versions named
	Counts   map[string]int
	Flags    map[string]bool
	ByID     map[int32]inner     // reflect map path, integer keys
	Sets     map[string]struct{} // reflect map path, zero-width values
	Nested   map[string][]string
	Reads    []inner
	Nums     []int64 // bulk-copied
	Blob     []byte
	Grid     [3]uint16
	Next     *inner
	PP       **int
	B        bool
	I8       int8
	U        uint
	F32      float32
	F64      float64
	S        string
	D        time.Duration
	Renamed  int    `json:"renamed,omitempty"`
	Quoted   int64  `json:",string"`
	Hidden   string `json:"-"`
	Dash     int    `json:"-,"`
	Num      json.Number
}

// TestStateCodecMatchesJSON: for plain types a checkpoint's JSON, produced
// at the boundary from the binary encoding, is byte-for-byte what
// json.Marshal(State()) was at capture time — nil and empty maps and
// slices, nil pointers and invalid UTF-8 included.
func TestStateCodecMatchesJSON(t *testing.T) {
	seven := 7
	p7 := &seven
	cases := []any{
		&plain{},
		&plain{
			Values: map[string]string{}, Versions: named{}, Counts: map[string]int{}, Flags: map[string]bool{},
			ByID: map[int32]inner{}, Sets: map[string]struct{}{}, Nested: map[string][]string{},
			Reads: []inner{}, Nums: []int64{}, Blob: []byte{},
		},
		&plain{
			Values:   map[string]string{"a": "1", "b": "", "bad\xffutf8": "\xfe"},
			Versions: named{"a": 1, "b": math.MaxUint64},
			Counts:   map[string]int{"x": -3, "y": math.MinInt},
			Flags:    map[string]bool{"t": true, "f": false},
			ByID:     map[int32]inner{-1: {"k", 2}, 9: {}},
			Sets:     map[string]struct{}{"in": {}},
			Nested:   map[string][]string{"nil": nil, "empty": {}, "two": {"a", "b"}},
			Reads:    []inner{{"k1", 1}, {"k2", 2}},
			Nums:     []int64{1, -2, math.MaxInt64},
			Blob:     []byte("\x00\x01binary"),
			Grid:     [3]uint16{1, 2, 65535},
			Next:     &inner{"n", 3},
			PP:       &p7,
			B:        true, I8: -128, U: math.MaxUint, F32: 1.5, F64: -math.MaxFloat64,
			S: "héllo\x80", D: time.Second, Renamed: 4, Quoted: -5, Hidden: "not in JSON", Dash: 6, Num: "12.50",
		},
		&struct{}{},
		&[]string{"top-level", "slice"},
		&map[string]int{"top-level": 1},
		new(*inner),
	}
	var a Arena
	for _, state := range cases {
		want, err := json.Marshal(state)
		if err != nil {
			t.Fatal(err)
		}
		got, codec := roundTrip(t, &a, state)
		if codec == nil {
			t.Errorf("%T: took the JSON path, want a codec", state)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%T:\n got %s\nwant %s", state, got, want)
		}
	}
}

// randomType draws a type from the grammar the codec accepts, built with
// reflect so that shapes no one wrote by hand get exercised.
func randomType(rng *rand.Rand, depth int) reflect.Type {
	leaves := []reflect.Type{
		reflect.TypeFor[bool](), reflect.TypeFor[int](), reflect.TypeFor[int8](), reflect.TypeFor[int16](),
		reflect.TypeFor[int32](), reflect.TypeFor[int64](), reflect.TypeFor[uint](), reflect.TypeFor[uint8](),
		reflect.TypeFor[uint16](), reflect.TypeFor[uint32](), reflect.TypeFor[uint64](),
		reflect.TypeFor[float32](), reflect.TypeFor[float64](), reflect.TypeFor[string](),
	}
	if depth == 0 {
		return leaves[rng.Intn(len(leaves))]
	}
	switch rng.Intn(8) {
	case 0:
		return reflect.SliceOf(randomType(rng, depth-1))
	case 1:
		return reflect.ArrayOf(rng.Intn(4), randomType(rng, depth-1))
	case 2:
		return reflect.PointerTo(randomType(rng, depth-1))
	case 3, 4:
		keys := []reflect.Type{reflect.TypeFor[string](), reflect.TypeFor[string](), reflect.TypeFor[int](), reflect.TypeFor[uint8]()}
		return reflect.MapOf(keys[rng.Intn(len(keys))], randomType(rng, depth-1))
	case 5, 6:
		fields := make([]reflect.StructField, 1+rng.Intn(5))
		for i := range fields {
			fields[i] = reflect.StructField{Name: fmt.Sprintf("F%d", i), Type: randomType(rng, depth-1)}
		}
		return reflect.StructOf(fields)
	default:
		return leaves[rng.Intn(len(leaves))]
	}
}

// TestStateCodecQuick is the differential property over random plain struct
// types and random values of them: StateJSON == json.Marshal.
func TestStateCodecQuick(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	var a Arena
	codecs := 0
	for i := 0; i < 300; i++ {
		typ := reflect.StructOf([]reflect.StructField{
			{Name: "A", Type: randomType(rng, 3)},
			{Name: "B", Type: randomType(rng, 3)},
			{Name: "C", Type: randomType(rng, 2)},
		})
		for j := 0; j < 4; j++ {
			v, ok := quick.Value(typ, rng)
			if !ok {
				t.Fatalf("quick.Value(%s) failed", typ)
			}
			state := reflect.New(typ)
			state.Elem().Set(v)
			want, err := json.Marshal(state.Interface())
			if err != nil {
				t.Fatalf("%s: %v", typ, err)
			}
			got, codec := roundTrip(t, &a, state.Interface())
			if !bytes.Equal(got, want) {
				t.Fatalf("%s:\n got %s\nwant %s", typ, got, want)
			}
			if codec != nil {
				codecs++
			}
		}
	}
	// A slice of zero-width elements keeps the JSON path; nearly nothing
	// else the grammar produces does.
	if codecs < 1000 {
		t.Errorf("only %d of 1200 random states went through a codec", codecs)
	}
}

type textKey struct{ A, B int }

func (k textKey) MarshalText() ([]byte, error) { return fmt.Appendf(nil, "%d/%d", k.A, k.B), nil }
func (k *textKey) UnmarshalText(b []byte) error {
	_, err := fmt.Sscanf(string(b), "%d/%d", &k.A, &k.B)
	return err
}

type ptrMarshaler struct{ N int }

func (p *ptrMarshaler) MarshalJSON() ([]byte, error) { return fmt.Appendf(nil, `{"n":%d}`, p.N), nil }

type onlyUnmarshaler struct{ N int }

func (u *onlyUnmarshaler) UnmarshalJSON(b []byte) error { return json.Unmarshal(b, &u.N) }

type recursive struct {
	V    int
	Next *recursive
}

type embedder struct {
	inner
	X int
}

// TestStateCodecFallback lists what must keep the eager json.Marshal path:
// everything encoding/json treats specially, or whose exact JSON the codec
// could not rebuild.
func TestStateCodecFallback(t *testing.T) {
	clock := vclock.NewTable("a", "b").New()
	clock.Set("a", 3)
	var a Arena
	for name, state := range map[string]any{
		"not a pointer":          plain{S: "by value"},
		"nil":                    nil,
		"unexported field":       &struct{ A, b int }{1, 2},
		"blank field":            &struct{ A, _ int }{A: 1},
		"embedded struct":        &embedder{inner{"k", 1}, 2},
		"interface field":        &struct{ V any }{V: 1},
		"json.Marshaler field":   &struct{ Clock vclock.VC }{clock},
		"json.Marshaler state":   &ptrMarshaler{N: 4},
		"json.Unmarshaler field": &struct{ U onlyUnmarshaler }{onlyUnmarshaler{5}},
		"json.RawMessage":        &struct{ R json.RawMessage }{json.RawMessage(`{"x":1}`)},
		"TextMarshaler field":    &struct{ T time.Time }{time.Unix(1, 0).UTC()},
		"TextMarshaler key":      &struct{ M map[textKey]int }{map[textKey]int{{1, 2}: 3}},
		"recursive type":         &recursive{1, &recursive{2, nil}},
		"zero-width elements":    &struct{ S []struct{} }{make([]struct{}, 3)},
		"uintptr":                &struct{ P uintptr }{7},
	} {
		if CodecFor(state) != nil {
			t.Errorf("%s (%T): got a codec, want the JSON path", name, state)
		}
		want, err := json.Marshal(state)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got, _ := roundTrip(t, &a, state); !bytes.Equal(got, want) {
			t.Errorf("%s:\n got %s\nwant %s", name, got, want)
		}
	}
	// A nil state of a type that has a codec is still captured as JSON ("null").
	if got, codec := roundTrip(t, &a, (*plain)(nil)); codec != nil || string(got) != "null" {
		t.Errorf("nil *plain: captured as %s with codec %v, want null and no codec", got, codec)
	}
	// What encoding/json refuses stays refused, at capture time.
	for name, state := range map[string]any{
		"float map key": &struct{ M map[float64]int }{map[float64]int{1: 1}},
		"channel":       &struct{ C chan int }{make(chan int)},
		"NaN":           &struct{ F float64 }{math.NaN()},
		"+Inf float32":  &struct{ F float32 }{float32(math.Inf(1))},
	} {
		if _, _, err := a.Encode(state); err == nil {
			t.Errorf("%s: Encode succeeded; json.Marshal fails on it", name)
		}
	}
}

// kvShaped mirrors the application states the hot path encodes.
type kvShaped struct {
	Values   map[string]string
	Versions map[string]uint64
	Reads    []inner
	Applied  int
}

func newKVShaped() *kvShaped {
	return &kvShaped{
		Values:   map[string]string{"k0": "v0", "k1": "v1", "k2": "v2", "k3": "v3"},
		Versions: map[string]uint64{"k0": 1, "k1": 2, "k2": 3, "k3": 4},
		Reads:    []inner{{"k0", 1}, {"k1", 2}},
		Applied:  9,
	}
}

// TestStateArena: within a run encodings are immutable once handed out —
// later states and chunk rollover leave them alone, a state larger than a
// whole chunk gets room of its own — and after Rewind the arena carves the
// next run's encodings, just as correct and just as disjoint, out of the
// same memory: a warm capture allocates nothing.
func TestStateArena(t *testing.T) {
	var a Arena
	big := &kvShaped{Values: map[string]string{"big": string(make([]byte, 100<<10))}}
	bigWant, _ := json.Marshal(big)
	type capture struct {
		extra []byte
		codec *StateCodec
		want  []byte
	}
	run := func(applied int) {
		t.Helper()
		st := newKVShaped()
		var caps []capture
		for i := 0; i < 100; i++ {
			st.Applied = applied + i
			want, _ := json.Marshal(st)
			extra, codec, err := a.Encode(st)
			if err != nil || codec == nil {
				t.Fatalf("Encode: codec %v, err %v", codec, err)
			}
			if cap(extra) != len(extra) {
				t.Fatalf("encoding has spare capacity %d: an append would run into the next state", cap(extra)-len(extra))
			}
			caps = append(caps, capture{extra, codec, want})
			if i == 50 {
				if got, _ := roundTrip(t, &a, big); !bytes.Equal(got, bigWant) {
					t.Error("a state larger than a chunk did not round-trip")
				}
			}
		}
		for i, c := range caps {
			got, err := (&Checkpoint{Extra: c.extra, Codec: c.codec}).StateJSON()
			if err != nil || !bytes.Equal(got, c.want) {
				t.Fatalf("encoding %d changed under later use of the arena:\n got %s (%v)\nwant %s", i, got, err, c.want)
			}
		}
	}
	run(0)
	a.Rewind()
	run(1000) // other contents over the rewound chunks

	st := newKVShaped()
	warm := func() {
		a.Rewind()
		for i := 0; i < 500; i++ {
			a.Encode(st)
		}
	}
	warm()
	if allocs := testing.AllocsPerRun(20, warm); allocs != 0 {
		t.Errorf("a warm run of 500 captures allocates %.0f times, want 0: Rewind did not hand it the memory of the last", allocs)
	}
}

// TestStateDecodeRejectsCorruption: bytes no encoder produced come back as
// an error — truncation anywhere, trailing bytes, length prefixes larger
// than the input, invalid booleans and non-finite floats.
func TestStateDecodeRejectsCorruption(t *testing.T) {
	var a Arena
	st := &plain{
		Values: map[string]string{"a": "1"}, ByID: map[int32]inner{1: {"k", 2}},
		Reads: []inner{{"k", 1}}, Nums: []int64{1, 2}, Next: &inner{"n", 3}, B: true, F64: 1,
	}
	good, codec, err := a.Encode(st)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := codec.Decode(good); err != nil {
		t.Fatalf("the encoder's own bytes: %v", err)
	}
	for cut := 0; cut < len(good); cut++ {
		if _, err := codec.Decode(good[:cut]); err == nil {
			t.Fatalf("truncated to %d of %d bytes: decoded", cut, len(good))
		}
	}
	if _, err := codec.Decode(append(bytes.Clone(good), 0)); err == nil {
		t.Error("trailing byte: decoded")
	}
	huge := CodecFor(&[]string{})
	if _, err := huge.Decode([]byte{0xff, 0xff, 0xff, 0xff, 0x0f}); err == nil {
		t.Error("a 4-billion-element slice backed by no bytes: decoded")
	}
	if _, err := CodecFor(new(bool)).Decode([]byte{2}); err == nil {
		t.Error("boolean 2: decoded")
	}
	nan := make([]byte, 8)
	for i := range nan {
		nan[i] = 0xff
	}
	if _, err := CodecFor(new(float64)).Decode(nan); err == nil {
		t.Error("NaN: decoded")
	}
}

// BenchmarkStateEncode is the capture cost the hot path pays, against the
// json.Marshal it replaced.
func BenchmarkStateEncode(b *testing.B) {
	st := newKVShaped()
	b.Run("codec", func(b *testing.B) {
		var a Arena
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			a.Encode(st)
		}
	})
	b.Run("json", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			json.Marshal(st)
		}
	})
}
