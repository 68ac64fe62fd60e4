package scroll

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/vclock"
	"repro/internal/wal"
)

// storePeers are the peers FuzzScrollStore draws from: none, the scroll's
// own process, and more names than a recording has.
var storePeers = func() []string {
	peers := []string{"", "p"}
	for i := range 38 {
		peers = append(peers, fmt.Sprintf("q%d", i))
	}
	return peers
}()

// storePayload returns a payload of the given form: nil, empty, or n fresh
// bytes (an appended payload is shared and must not change afterwards).
func storePayload(form, n int, fill byte) []byte {
	switch form {
	case 0:
		return nil
	case 1:
		return []byte{}
	}
	return slices.Repeat([]byte{fill}, 1+n)
}

// storeModel drives one scroll and a plain []Record model of it side by
// side.
type storeModel struct {
	t     *testing.T
	s     *Scroll
	model []Record
	lam   uint64
	clock vclock.VC
}

// append appends r to both, with the Proc and Seq the scroll assigns.
func (m *storeModel) append(r Record) {
	seq, err := m.s.Append(r)
	if err != nil || seq != uint64(len(m.model)) {
		m.t.Fatalf("append %d: seq %d, err %v", len(m.model), seq, err)
	}
	r.Proc, r.Seq = "p", seq
	m.model = append(m.model, r)
}

// reload writes the model to a WAL, with the records the mask picks under
// another process's name, and loads it as the scroll "p". The model becomes
// what the log decodes to: a clock on a table of its own, and no array
// behind an empty payload.
func (m *storeModel) reload(mask byte) {
	dir := m.t.TempDir()
	w, err := wal.Open(dir, wal.Options{})
	if err != nil {
		m.t.Fatal(err)
	}
	for i := range m.model {
		if mask>>(i%8)&1 != 0 {
			m.model[i].Proc = fmt.Sprintf("x%d", i%3)
		}
		enc := m.model[i].encode()
		if err := w.Append(enc); err != nil {
			m.t.Fatal(err)
		}
		if m.model[i], err = decodeRecord(enc); err != nil {
			m.t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		m.t.Fatal(err)
	}
	m.s.Close()
	if m.s, err = OpenDurable("p", dir); err != nil {
		m.t.Fatal(err)
	}
}

// check compares every read path of the scroll with the model.
func (m *storeModel) check(what string) {
	t, s := m.t, m.s
	t.Helper()
	if got := s.Records(); !reflect.DeepEqual(got, m.model) && len(got)+len(m.model) > 0 {
		t.Fatalf("%s: Records() differs from the model", what)
	}
	var all []Record
	for r := range s.All() {
		all = append(all, r)
	}
	if !reflect.DeepEqual(all, m.model) && len(all)+len(m.model) > 0 {
		t.Fatalf("%s: All() differs from the model", what)
	}
	merged := slices.Clone(m.model)
	slices.SortStableFunc(merged, func(a, b Record) int {
		return cmp.Or(cmp.Compare(a.Lamport, b.Lamport), strings.Compare(a.Proc, b.Proc), cmp.Compare(a.Seq, b.Seq))
	})
	if got := Merge(s); !reflect.DeepEqual(got, merged) && len(got)+len(merged) > 0 {
		t.Fatalf("%s: Merge differs from the model's", what)
	}
	var fp Fingerprinter
	for _, bucket := range []uint64{1, 16} {
		if d, sh := fp.Fingerprint([]*Scroll{s}, bucket); d != Digest(merged) || sh != Shape(merged, bucket) {
			t.Fatalf("%s, bucket %d: Fingerprint differs from Digest and Shape over the model", what, bucket)
		}
	}
	other := NewMemory("p")
	for _, r := range m.model {
		other.Append(r)
	}
	want := Digest(merged) == Digest(Merge(other))
	for i, o := range append([]*Scroll{other}, reordered([]*Scroll{other})...) {
		if Equal([]*Scroll{s}, []*Scroll{o}) != want {
			t.Fatalf("%s: Equal with the model appended again (name table reversed: %v) is %v, the digests say %v", what, i == 1, !want, want)
		}
	}
}

// FuzzScrollStore is the differential for the scroll's storage against a
// plain []Record model. Every five bytes are an operation: an append (any
// kind; a nil, empty or non-empty payload; one of 40 peers; a Lamport step
// that may go back), a run of appends long enough to cross segments, a
// truncation, or a reload of the model from a WAL with some of its records
// under other processes' names. Records, All, Merge, Fingerprint and Equal
// must agree with the model after every truncation and reload, and at the
// end.
func FuzzScrollStore(f *testing.F) {
	f.Add([]byte{0, 1, 2, 2, 1, 0, 8, 1, 0, 1, 1, 3, 0, 3, 0})
	f.Add([]byte{3, 200, 0, 0, 0, 2, 0, 4, 0, 0, 0, 2, 1, 1, 2, 4, 0x5a, 0, 0, 0, 1, 6, 5, 2, 255})
	f.Add([]byte{3, 130, 0, 0, 0, 4, 0xff, 0, 0, 0, 2, 0, 0, 4, 0, 0, 7, 1, 3, 1, 3, 40, 0, 0, 0})
	f.Add([]byte{0, 1, 0, 0, 0, 0, 2, 1, 1, 1, 0, 3, 2, 2, 1, 0, 4, 3, 3, 1})
	f.Fuzz(func(t *testing.T, b []byte) {
		if len(b) > 5*64 {
			return
		}
		m := &storeModel{t: t, s: NewMemory("p"), clock: vclock.NewTable("p", "q0").New()}
		defer func() { m.s.Close() }()
		for op := 0; len(b) >= 5; op, b = op+1, b[5:] {
			switch b[0] % 5 {
			case 0, 1: // one record
				if b[4] == 255 {
					m.lam /= 2
				} else {
					m.lam += uint64(b[4] % 3)
				}
				m.clock.Set("q0", m.lam)
				m.append(Record{Kind: Kind(b[1] % 10), MsgID: fmt.Sprintf("m%d", b[1]%7),
					Peer: storePeers[int(b[2])%len(storePeers)], Payload: storePayload(int(b[3]%4), int(b[3]/4), b[1]),
					Lamport: m.lam, Clock: m.clock.Copy()})
			case 2: // a run of records, peers cycling over 8 names
				for i := range 1 + int(b[1])*8 {
					m.lam += uint64(i % 2)
					m.append(Record{Kind: Kind(1 + i%8), MsgID: "run", Peer: storePeers[(int(b[2])+i)%8],
						Payload: storePayload(i%3, i%5, byte(i)), Lamport: m.lam})
				}
			case 3:
				cut := int(binary.LittleEndian.Uint16(b[1:3])) % (len(m.model) + 1)
				m.s.Truncate(uint64(cut))
				m.model = m.model[:cut]
				m.check(fmt.Sprintf("op %d: truncated to %d", op, cut))
			case 4:
				m.reload(b[1])
				m.check(fmt.Sprintf("op %d: reloaded", op))
			}
		}
		m.check("end")
	})
}

// A scroll keeps a peer per distinct name past 65,536 of them — a durable
// key is a peer, and a store's keys have no bound — and reads every record
// back with its name. A table that large is indexed; truncating to nothing
// empties it, and the scroll's own process keeps slot 0. Only a record's
// process is limited to the first 65,536 slots, which only a log loaded under
// other names reaches: OpenDurable refuses it.
func TestNameTableGrows(t *testing.T) {
	s := NewMemory("p")
	var model []Record
	for i := range 100_000 {
		r := Record{Kind: KindEnv, MsgID: "put", Peer: fmt.Sprintf("k%d", i), Lamport: uint64(i)}
		if i%3 == 0 {
			r.Peer = fmt.Sprintf("k%d", i/2) // seen before
		}
		if _, err := s.Append(r); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
		r.Proc, r.Seq = "p", uint64(i)
		model = append(model, r)
	}
	if got := s.Records(); !reflect.DeepEqual(got, model) {
		t.Fatal("Records() differs from the appended records")
	}
	var fp Fingerprinter
	if d, _ := fp.Fingerprint([]*Scroll{s}, 16); d != Digest(model) {
		t.Fatal("Fingerprint differs from Digest over the appended records")
	}
	if n := len(s.names); n <= math.MaxUint16+1 || len(s.index) != n-nameScan {
		t.Fatalf("%d names, %d indexed: want more than 65,536, all but the first %d indexed", n, len(s.index), nameScan)
	}

	s.Truncate(0)
	for _, peer := range []string{"k1", "p", "k1", "p", ""} {
		s.Append(Record{Peer: peer})
	}
	if !slices.Equal(s.names, []string{"p", "", "k1"}) || len(s.index) != 0 {
		t.Fatalf("names after truncating to nothing and appending again: %q, %d indexed", s.names, len(s.index))
	}
	if got := s.Records(); got[1].Peer != "p" || got[2].Peer != "k1" || got[4].Peer != "" {
		t.Fatalf("records after truncating to nothing: %+v", got)
	}

	loading := NewMemory("p")
	for i := len(loading.names); i <= math.MaxUint16; i++ {
		loading.name(fmt.Sprintf("n%d", i))
	}
	rec := Record{Proc: "p", Peer: "new"}
	if err := loading.load([][]byte{rec.encode()}); err != nil {
		t.Fatalf("a log naming a 65,537th peer: %v", err)
	}
	rec.Proc, rec.Peer, rec.Seq = "other", "", 1
	if err := loading.load([][]byte{rec.encode()}); err == nil || !strings.Contains(err.Error(), "first 65536") {
		t.Fatalf("a log under a process past slot 65,535: err %v", err)
	}
}
