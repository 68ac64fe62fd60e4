package checkpoint

import (
	"bytes"
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

// cellsModel is the reference the store is checked against: the ordered
// list of puts, nothing else. The disk after the first n puts is their
// fold; a fence keeps the first n puts and changes the keys the others
// put. (substrate's TestDurableStoreInvalidate runs the same walk through
// the WAL-backed wrapper, with reopens.)
type cellsModel [][2]string // key, value

// at folds the first n puts (nil when there is no key).
func (m cellsModel) at(n int) map[string][]byte {
	var out map[string][]byte
	for _, p := range m[:min(n, len(m))] {
		if out == nil {
			out = map[string][]byte{}
		}
		out[p[0]] = []byte(p[1])
	}
	return out
}

// fence mirrors Cells.Fence.
func (m *cellsModel) fence(n int) []string {
	var changed []string
	for _, p := range (*m)[min(n, len(*m)):] {
		changed = append(changed, p[0])
	}
	*m = (*m)[:min(n, len(*m))]
	slices.Sort(changed)
	return slices.Compact(changed)
}

// check compares everything Cells can be asked against the model, At at
// every count included.
func (m cellsModel) check(t *testing.T, c Cells, probes []string) {
	t.Helper()
	now := m.at(len(m))
	var keys []string
	for k := range now {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	if got := c.Keys(); len(got)+len(keys) > 0 && !reflect.DeepEqual(got, keys) {
		t.Fatalf("Keys = %v, want %v", got, keys)
	}
	for _, k := range probes {
		v, ok := c.Get(k)
		if want, present := now[k]; ok != present || string(v) != string(want) {
			t.Fatalf("Get(%q) = %q, %v; want %q, %v", k, v, ok, want, present)
		}
	}
	if got := c.Len(); got != len(m) {
		t.Fatalf("Len = %d, want %d", got, len(m))
	}
	for n := 0; n <= len(m)+1; n++ {
		if got, want := c.At(n), m.at(n); !reflect.DeepEqual(got, want) {
			t.Fatalf("At(%d) = %v, want %v", n, got, want)
		}
	}
}

// TestCellsAgainstModel drives random puts, fences and reads through the
// zero-value store and the reference side by side.
func TestCellsAgainstModel(t *testing.T) {
	keys := []string{"a", "b", "c", "d", "e", "never"}
	for seed := int64(0); seed < 50; seed++ {
		r := rand.New(rand.NewSource(seed))
		var c Cells
		var m cellsModel
		m.check(t, c, keys) // the zero value reads as empty
		for step := 0; step < 200; step++ {
			switch op := r.Intn(10); {
			case op < 6:
				k, v := keys[r.Intn(5)], string(rune('A'+r.Intn(26)))
				m = append(m, [2]string{k, v})
				buf := []byte(v)
				c.Put(k, buf)
				if got, _ := c.Get(k); &got[0] != &buf[0] {
					t.Fatalf("seed %d: cell holds a copy of %q: want the caller's own copy, kept", seed, v)
				}
			case op < 8:
				at := r.Intn(len(m) + 2)
				if got, want := c.Fence(at), m.fence(at); !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d: Fence(%d) = %v, want %v", seed, at, got, want)
				}
			default:
				m.check(t, c, keys)
			}
		}
		m.check(t, c, keys)
		// Snapshots are deep copies.
		if snap := c.At(c.Len()); len(snap) > 0 {
			for k, v := range snap {
				v[0] = '!'
				if got, _ := c.Get(k); bytes.Equal(got, v) {
					t.Fatalf("seed %d: At aliases cell %q", seed, k)
				}
			}
		}
		c.Reset()
		cellsModel{}.check(t, c, keys)
	}
}

// TestCellsCloneIsolates: a put to a clone never shows in the store it was
// cloned from, or in a sibling clone, though they share the puts before it.
func TestCellsCloneIsolates(t *testing.T) {
	var parent Cells
	for _, v := range []string{"1", "2", "3"} {
		parent.Put("k", []byte(v))
	}
	a, b := parent.Clone(), parent.Clone()
	a.Put("k", []byte("a"))
	b.Put("k", []byte("b"))
	for _, tc := range []struct {
		c    *Cells
		want string
	}{{&parent, "3"}, {&a, "a"}, {&b, "b"}} {
		if got, _ := tc.c.Get("k"); string(got) != tc.want {
			t.Errorf("k = %q, want %q", got, tc.want)
		}
		if got := tc.c.At(2)["k"]; string(got) != "2" {
			t.Errorf("k as of 2 puts = %q, want 2", got)
		}
	}
}
