package checkpoint

import (
	"bytes"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// cellsModel is the plain-map reference the cell map is checked against: a
// put overwrites, a fence deletes by write position, a snapshot filters by
// it. (substrate's TestDurableStoreInvalidate runs the same walk through the
// WAL-backed wrapper, with reopens.)
type cellsModel map[string]struct {
	Value    string
	WriteSeq uint64
}

// put mirrors Cells.Put.
func (m cellsModel) put(key, value string, writeSeq uint64) {
	m[key] = struct {
		Value    string
		WriteSeq uint64
	}{value, writeSeq}
}

// fence mirrors Cells.Fence.
func (m cellsModel) fence(seq uint64) []string {
	var fenced []string
	for k, c := range m {
		if c.WriteSeq >= seq {
			fenced = append(fenced, k)
			delete(m, k)
		}
	}
	sort.Strings(fenced)
	return fenced
}

// check compares everything Cells can be asked against the model.
func (m cellsModel) check(t *testing.T, c Cells, probes []string, seqs []uint64) {
	t.Helper()
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	if got := c.Keys(); !reflect.DeepEqual(got, keys) {
		t.Fatalf("Keys = %v, want %v", got, keys)
	}
	for _, k := range probes {
		v, ok := c.Get(k)
		if want, present := m[k]; ok != present || string(v) != want.Value {
			t.Fatalf("Get(%q) = %q, %v; want %q, %v", k, v, ok, want.Value, present)
		}
	}
	at := func(seq uint64) map[string][]byte {
		var out map[string][]byte
		for k, cl := range m {
			if cl.WriteSeq < seq {
				if out == nil {
					out = map[string][]byte{}
				}
				out[k] = []byte(cl.Value)
			}
		}
		return out
	}
	if got, want := c.Snapshot(), at(^uint64(0)); !reflect.DeepEqual(got, want) {
		t.Fatalf("Snapshot = %v, want %v", got, want)
	}
	for _, seq := range seqs {
		if got, want := c.SnapshotAt(seq), at(seq); !reflect.DeepEqual(got, want) {
			t.Fatalf("SnapshotAt(%d) = %v, want %v", seq, got, want)
		}
	}
}

// TestCellsAgainstModel drives random puts, fences and reads through the
// zero-value cell map and the reference side by side.
func TestCellsAgainstModel(t *testing.T) {
	keys := []string{"a", "b", "c", "d", "e", "never"}
	for seed := int64(0); seed < 50; seed++ {
		r := rand.New(rand.NewSource(seed))
		var c Cells
		m := cellsModel{}
		m.check(t, c, keys, []uint64{0, 1}) // the zero value reads as empty
		seq := uint64(0)
		for step := 0; step < 200; step++ {
			switch op := r.Intn(10); {
			case op < 6:
				seq += uint64(r.Intn(3)) // several writes may share a position
				k, v := keys[r.Intn(5)], string(rune('A'+r.Intn(26)))
				m.put(k, v, seq)
				buf := []byte(v)
				c.Put(k, buf, seq)
				if got, _ := c.Get(k); &got[0] != &buf[0] {
					t.Fatalf("seed %d: cell holds a copy of %q: want the caller's own copy, kept", seed, v)
				}
			case op < 8:
				at := uint64(r.Intn(int(seq) + 2))
				if got, want := c.Fence(at), m.fence(at); !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d: Fence(%d) = %v, want %v", seed, at, got, want)
				}
				seq = min(seq, at) // the writer's scroll was truncated to the line
			default:
				m.check(t, c, keys, []uint64{0, seq / 2, seq, seq + 1})
			}
		}
		m.check(t, c, keys, []uint64{0, seq / 2, seq, seq + 1})
		// Snapshots are deep copies.
		if snap := c.Snapshot(); len(snap) > 0 {
			for k, v := range snap {
				v[0] = '!'
				if got, _ := c.Get(k); bytes.Equal(got, v) {
					t.Fatalf("seed %d: Snapshot aliases cell %q", seed, k)
				}
			}
		}
		clear(c)
		cellsModel{}.check(t, c, keys, []uint64{0, 1})
	}
}
