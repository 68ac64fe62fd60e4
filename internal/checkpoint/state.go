package checkpoint

import (
	"encoding"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"reflect"
	"sync"
	"unsafe"

	"repro/internal/slab"
)

// StateCodec is the compiled binary codec of one machine-state type: the
// pointer type a Machine's State() returns. It exists for types whose
// every value round-trips exactly — decode(encode(x)) marshals to the JSON
// x marshals to — which is what lets a checkpoint keep the compact form
// and produce JSON only when asked (Checkpoint.StateJSON). The bytes are an
// in-process format: native byte order, no field names, never hashed,
// compared or persisted.
type StateCodec struct {
	typ  reflect.Type // *T
	root *node        // codec of T
}

// nodeKind selects how one value of a compiled type is encoded.
type nodeKind uint8

const (
	kindBool    nodeKind = iota // one byte, 0 or 1
	kindRaw                     // fixed-size integer: its bytes as they sit in memory
	kindFloat32                 // like kindRaw, but NaN and ±Inf refuse to encode (as encoding/json refuses them)
	kindFloat64
	kindString // uvarint length, bytes
	kindSlice  // uvarint length+1 (0 = nil), elements
	kindArray  // elements
	kindPtr    // one byte (0 = nil), pointee
	kindMap    // uvarint length+1 (0 = nil), key/value pairs in map order
	kindStruct // fields in declaration order
)

// node is the codec of one type inside a state type.
type node struct {
	kind   nodeKind
	typ    reflect.Type
	size   uintptr // in-memory size of the value
	min    int     // fewest bytes an encoded value takes: bounds decoded lengths
	n      int     // kindArray: length
	elem   *node   // slice, array, pointer and map element
	key    *node   // map key
	fields []field // kindStruct
	// encMap is the native-iteration encoder of the common map types
	// (string keys, scalar or string values); other maps go through reflect.
	encMap func(b []byte, p unsafe.Pointer) []byte
}

type field struct {
	off uintptr
	n   *node
}

var (
	codecs sync.Map // reflect.Type -> *StateCodec (a nil one: the type takes the JSON path)

	jsonMarshalerType   = reflect.TypeFor[json.Marshaler]()
	jsonUnmarshalerType = reflect.TypeFor[json.Unmarshaler]()
	textMarshalerType   = reflect.TypeFor[encoding.TextMarshaler]()
	textUnmarshalerType = reflect.TypeFor[encoding.TextUnmarshaler]()
)

// CodecFor returns the codec of state's type, compiling it on first use,
// or nil when the type keeps the JSON path: state is not a pointer, or
// somewhere inside it sits something encoding/json treats specially or the
// codec cannot rebuild — a custom json or encoding.Text (un)marshaler, an
// unexported or embedded field, an interface, a recursive type, a map
// keyed by anything but strings and integers.
func CodecFor(state any) *StateCodec {
	t := reflect.TypeOf(state)
	if t == nil {
		return nil
	}
	if c, ok := codecs.Load(t); ok {
		return c.(*StateCodec)
	}
	var c *StateCodec
	if t.Kind() == reflect.Pointer && !customMarshal(t) {
		if root := (&compiler{nodes: map[reflect.Type]*node{}}).compile(t.Elem()); root != nil {
			c = &StateCodec{typ: t, root: root}
		}
	}
	actual, _ := codecs.LoadOrStore(t, c)
	return actual.(*StateCodec)
}

// customMarshal reports whether encoding/json would hand t (or *t) to a
// method instead of walking it.
func customMarshal(t reflect.Type) bool {
	for _, typ := range []reflect.Type{t, reflect.PointerTo(t)} {
		if typ.Implements(jsonMarshalerType) || typ.Implements(jsonUnmarshalerType) ||
			typ.Implements(textMarshalerType) || typ.Implements(textUnmarshalerType) {
			return true
		}
	}
	return false
}

// compiler builds the node tree of one state type. A type met again while
// it is still being compiled (nodes holds nil for it) is recursive.
type compiler struct {
	nodes map[reflect.Type]*node
}

// compile returns t's node, or nil if t keeps the JSON path.
func (c *compiler) compile(t reflect.Type) *node {
	if n, seen := c.nodes[t]; seen {
		return n
	}
	c.nodes[t] = nil
	n := c.build(t)
	c.nodes[t] = n
	return n
}

func (c *compiler) build(t reflect.Type) *node {
	if customMarshal(t) {
		return nil
	}
	n := &node{typ: t, size: t.Size()}
	switch t.Kind() {
	case reflect.Bool:
		n.kind, n.min = kindBool, 1
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		n.kind, n.min = kindRaw, int(n.size)
	case reflect.Float32:
		n.kind, n.min = kindFloat32, 4
	case reflect.Float64:
		n.kind, n.min = kindFloat64, 8
	case reflect.String:
		n.kind, n.min = kindString, 1
	case reflect.Slice:
		n.kind, n.min = kindSlice, 1
		// A zero-width element would let a few input bytes claim any length.
		if n.elem = c.compile(t.Elem()); n.elem == nil || n.elem.min == 0 {
			return nil
		}
	case reflect.Array:
		n.kind, n.n = kindArray, t.Len()
		if n.elem = c.compile(t.Elem()); n.elem == nil {
			return nil
		}
		n.min = n.n * n.elem.min
	case reflect.Pointer:
		n.kind, n.min = kindPtr, 1
		if n.elem = c.compile(t.Elem()); n.elem == nil {
			return nil
		}
	case reflect.Map:
		n.kind, n.min = kindMap, 1
		n.key, n.elem = c.compile(t.Key()), c.compile(t.Elem())
		if n.key == nil || n.elem == nil || (n.key.kind != kindString && n.key.kind != kindRaw) {
			return nil
		}
		n.encMap = nativeMapEncoder(t)
	case reflect.Struct:
		n.kind = kindStruct
		for i := range t.NumField() {
			f := t.Field(i)
			if !f.IsExported() || f.Anonymous {
				return nil
			}
			if f.Tag.Get("json") == "-" {
				continue // encoding/json neither writes nor reads it
			}
			fn := c.compile(f.Type)
			if fn == nil {
				return nil
			}
			n.fields = append(n.fields, field{off: f.Offset, n: fn})
			n.min += fn.min
		}
	default: // interfaces, channels, funcs, complex numbers, uintptr, unsafe pointers
		return nil
	}
	return n
}

// nativeMapEncoder returns the encoder that ranges over the map itself for
// the map types application state is made of, nil for any other.
func nativeMapEncoder(t reflect.Type) func([]byte, unsafe.Pointer) []byte {
	if t.Key() != reflect.TypeFor[string]() {
		return nil
	}
	switch t.Elem() {
	case reflect.TypeFor[string]():
		return encodeStringMap(appendString)
	case reflect.TypeFor[uint64]():
		return encodeStringMap(appendRaw[uint64])
	case reflect.TypeFor[int]():
		return encodeStringMap(appendRaw[int])
	case reflect.TypeFor[bool]():
		return encodeStringMap(appendRaw[bool])
	}
	return nil
}

func encodeStringMap[V any](appendValue func([]byte, V) []byte) func([]byte, unsafe.Pointer) []byte {
	return func(b []byte, p unsafe.Pointer) []byte {
		m := *(*map[string]V)(p)
		if m == nil {
			return append(b, 0)
		}
		b = binary.AppendUvarint(b, uint64(len(m))+1)
		//fixd:nondeterm the bytes are only ever decoded back into a map — never hashed, compared or written out — so pair order cannot be observed
		for k, v := range m {
			b = appendValue(appendString(b, k), v)
		}
		return b
	}
}

func appendString(b []byte, s string) []byte {
	return append(binary.AppendUvarint(b, uint64(len(s))), s...)
}

// appendRaw appends a fixed-size scalar as it sits in memory (kindBool,
// kindRaw).
func appendRaw[V bool | int | uint64](b []byte, v V) []byte {
	return append(b, unsafe.Slice((*byte)(unsafe.Pointer(&v)), unsafe.Sizeof(v))...)
}

// errNonFinite mirrors encoding/json's refusal of NaN and ±Inf.
var errNonFinite = errors.New("checkpoint: non-finite float in machine state")

// encode appends the value of n's type at p.
func encode(n *node, b []byte, p unsafe.Pointer) ([]byte, error) {
	switch n.kind {
	case kindBool, kindRaw:
		return append(b, unsafe.Slice((*byte)(p), n.size)...), nil
	case kindFloat32, kindFloat64:
		if !finite(n, p) {
			return b, errNonFinite
		}
		return append(b, unsafe.Slice((*byte)(p), n.size)...), nil
	case kindString:
		return appendString(b, *(*string)(p)), nil
	case kindSlice:
		s := (*sliceHeader)(p)
		if s.data == nil {
			return append(b, 0), nil
		}
		b = binary.AppendUvarint(b, uint64(s.len)+1)
		if n.elem.kind == kindRaw {
			return append(b, unsafe.Slice((*byte)(s.data), uintptr(s.len)*n.elem.size)...), nil
		}
		return encodeSeq(n.elem, b, s.data, s.len)
	case kindArray:
		return encodeSeq(n.elem, b, p, n.n)
	case kindPtr:
		q := *(*unsafe.Pointer)(p)
		if q == nil {
			return append(b, 0), nil
		}
		return encode(n.elem, append(b, 1), q)
	case kindMap:
		if n.encMap != nil {
			return n.encMap(b, p), nil
		}
		return encodeMap(n, b, reflect.NewAt(n.typ, p).Elem())
	default: // kindStruct
		var err error
		for _, f := range n.fields {
			if b, err = encode(f.n, b, unsafe.Add(p, f.off)); err != nil {
				return b, err
			}
		}
		return b, nil
	}
}

// finite reports whether the float of n's kind at p is neither NaN nor ±Inf.
func finite(n *node, p unsafe.Pointer) bool {
	var f float64
	if n.kind == kindFloat32 {
		f = float64(*(*float32)(p))
	} else {
		f = *(*float64)(p)
	}
	return !math.IsNaN(f) && !math.IsInf(f, 0)
}

// sliceHeader is the memory layout of a slice value.
type sliceHeader struct {
	data     unsafe.Pointer
	len, cap int
}

func encodeSeq(elem *node, b []byte, p unsafe.Pointer, count int) ([]byte, error) {
	var err error
	for i := range count {
		if b, err = encode(elem, b, unsafe.Add(p, uintptr(i)*elem.size)); err != nil {
			return b, err
		}
	}
	return b, nil
}

// encodeMap is the reflect path for map types without a native encoder;
// the two scratch values it ranges through are its only allocations.
func encodeMap(n *node, b []byte, m reflect.Value) ([]byte, error) {
	if m.IsNil() {
		return append(b, 0), nil
	}
	b = binary.AppendUvarint(b, uint64(m.Len())+1)
	k, v := reflect.New(n.key.typ), reflect.New(n.elem.typ)
	var err error
	//fixd:nondeterm the bytes are only ever decoded back into a map — never hashed, compared or written out — so pair order cannot be observed
	for it := m.MapRange(); it.Next(); {
		k.Elem().SetIterKey(it)
		v.Elem().SetIterValue(it)
		if b, err = encode(n.key, b, k.UnsafePointer()); err != nil {
			return b, err
		}
		if b, err = encode(n.elem, b, v.UnsafePointer()); err != nil {
			return b, err
		}
	}
	return b, nil
}

// errCorrupt reports state bytes no encoder produced.
var errCorrupt = errors.New("checkpoint: corrupt machine-state encoding")

// decoder consumes an encoding front to back.
type decoder struct{ b []byte }

// take returns the next n bytes.
func (d *decoder) take(n uintptr) ([]byte, error) {
	if uintptr(len(d.b)) < n {
		return nil, errCorrupt
	}
	out := d.b[:n]
	d.b = d.b[n:]
	return out, nil
}

// flag reads a one-byte boolean; any byte but 0 and 1 is corruption.
func (d *decoder) flag() (bool, error) {
	raw, err := d.take(1)
	if err != nil || raw[0] > 1 {
		return false, errCorrupt
	}
	return raw[0] == 1, nil
}

// length reads a length prefix (biased by one when nilable) and refuses one
// that the bytes left could not back at min bytes an element, so a decode
// never allocates more than a constant factor of its input.
func (d *decoder) length(nilable bool, min int) (n int, isNil bool, err error) {
	u, w := binary.Uvarint(d.b)
	if w <= 0 {
		return 0, false, errCorrupt
	}
	d.b = d.b[w:]
	if nilable {
		if u == 0 {
			return 0, true, nil
		}
		u--
	}
	if u > uint64(len(d.b)/min) {
		return 0, false, errCorrupt
	}
	return int(u), false, nil
}

// decode fills the zero value of n's type at p.
func (d *decoder) decode(n *node, p unsafe.Pointer) error {
	switch n.kind {
	case kindBool:
		set, err := d.flag()
		if err != nil {
			return err
		}
		*(*bool)(p) = set
	case kindRaw, kindFloat32, kindFloat64:
		raw, err := d.take(n.size)
		if err != nil {
			return err
		}
		copy(unsafe.Slice((*byte)(p), n.size), raw)
		if n.kind != kindRaw && !finite(n, p) {
			return errCorrupt
		}
	case kindString:
		l, _, err := d.length(false, 1)
		if err != nil {
			return err
		}
		raw, _ := d.take(uintptr(l))
		*(*string)(p) = string(raw)
	case kindSlice:
		l, isNil, err := d.length(true, n.elem.min)
		if err != nil || isNil {
			return err
		}
		s := reflect.MakeSlice(n.typ, l, l)
		reflect.NewAt(n.typ, p).Elem().Set(s)
		if n.elem.kind == kindRaw {
			raw, _ := d.take(uintptr(l) * n.elem.size)
			copy(unsafe.Slice((*byte)(s.UnsafePointer()), len(raw)), raw)
			return nil
		}
		return d.decodeSeq(n.elem, s.UnsafePointer(), l)
	case kindArray:
		return d.decodeSeq(n.elem, p, n.n)
	case kindPtr:
		set, err := d.flag()
		if err != nil {
			return err
		}
		if set {
			q := reflect.New(n.elem.typ)
			reflect.NewAt(n.typ, p).Elem().Set(q)
			return d.decode(n.elem, q.UnsafePointer())
		}
	case kindMap:
		l, isNil, err := d.length(true, n.key.min+n.elem.min)
		if err != nil || isNil {
			return err
		}
		m := reflect.MakeMapWithSize(n.typ, l)
		reflect.NewAt(n.typ, p).Elem().Set(m)
		for range l {
			k, v := reflect.New(n.key.typ), reflect.New(n.elem.typ)
			if err := d.decode(n.key, k.UnsafePointer()); err != nil {
				return err
			}
			if err := d.decode(n.elem, v.UnsafePointer()); err != nil {
				return err
			}
			m.SetMapIndex(k.Elem(), v.Elem())
		}
	case kindStruct:
		for _, f := range n.fields {
			if err := d.decode(f.n, unsafe.Add(p, f.off)); err != nil {
				return err
			}
		}
	}
	return nil
}

func (d *decoder) decodeSeq(elem *node, p unsafe.Pointer, count int) error {
	for i := range count {
		if err := d.decode(elem, unsafe.Add(p, uintptr(i)*elem.size)); err != nil {
			return err
		}
	}
	return nil
}

// Decode rebuilds the encoded state into a fresh value and returns the
// pointer to it (the codec's own *T). Input no encoder produced is an
// error, never a panic, and never allocates beyond a constant factor of
// len(b).
func (c *StateCodec) Decode(b []byte) (any, error) {
	v := reflect.New(c.typ.Elem())
	d := decoder{b: b}
	if err := d.decode(c.root, v.UnsafePointer()); err != nil {
		return nil, fmt.Errorf("%w (%s)", err, c.typ)
	}
	if len(d.b) != 0 {
		return nil, fmt.Errorf("%w (%s: %d trailing bytes)", errCorrupt, c.typ, len(d.b))
	}
	return v.Interface(), nil
}

// Encode asks the state slab for room before it encodes: at least
// minStateRoom (application states encode to 50-110 bytes), at most
// maxStateRoom, so that one outsized state does not make every later
// capture skip to a chunk with that much left.
const (
	minStateRoom = 128
	maxStateRoom = 4096
)

// Arena is the run-scoped memory checkpoints are carved from: machine-state
// encodings, and the Snapshot headers and page tables of the heaps it
// creates (NewHeap). A warm arena allocates nothing. Rewind invalidates
// everything carved so far — encodings, and every Snapshot of every heap
// of the arena — and hands the memory to what is carved next. The zero
// Arena is ready to use; it is not safe for concurrent use.
type Arena struct {
	states slab.Slab[byte]
	// room is the size of the largest encoding so far, within
	// [minStateRoom, maxStateRoom]. Encode asks the slab for that much, so the
	// encoder appends in place; only a state larger than any before it, or
	// than maxStateRoom, may be encoded into an array of its own first and
	// then copied into a chunk that holds it.
	room   int
	snaps  slab.Slab[Snapshot]
	tables slab.Slab[*page]
}

// Rewind ends the run the arena served. The arena's heaps must be Reset
// before they are used again.
func (a *Arena) Rewind() {
	a.states.Rewind()
	a.snaps.Rewind()
	a.tables.Rewind()
}

// NewHeap is NewHeapPages for a heap whose snapshots are carved from the
// arena.
func (a *Arena) NewHeap(size, pageSize int) *Heap {
	h := NewHeapPages(size, pageSize)
	h.snaps, h.tables = &a.snaps, &a.tables
	return h
}

// Encode captures *state — a Machine's State() pointer. For a type with a
// codec it returns the binary encoding, carved from the arena, and that
// codec; for any other it returns json.Marshal(state) and a nil codec.
func (a *Arena) Encode(state any) ([]byte, *StateCodec, error) {
	c := CodecFor(state)
	p := reflect.ValueOf(state)
	if c == nil || p.IsNil() {
		b, err := json.Marshal(state)
		return b, nil, err
	}
	a.room = max(a.room, minStateRoom)
	out, err := encode(c.root, a.states.Tail(a.room), p.UnsafePointer())
	if err != nil {
		return nil, nil, err
	}
	a.room = max(a.room, min(len(out), maxStateRoom))
	return a.states.Keep(out), c, nil
}
