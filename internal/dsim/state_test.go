package dsim

import (
	"reflect"
	"testing"

	"repro/internal/checkpoint"
)

// setMachine keeps a set of the payloads it has received.
type setMachine struct {
	st struct {
		Seen  map[string]bool
		Count int
	}
}

func (m *setMachine) State() any   { return &m.st }
func (m *setMachine) Init(Context) { m.st.Seen = map[string]bool{} }
func (m *setMachine) OnMessage(_ Context, _ string, payload []byte) {
	m.st.Seen[string(payload)] = true
	m.st.Count++
}
func (m *setMachine) OnTimer(Context, string)          {}
func (m *setMachine) OnRollback(Context, RollbackInfo) {}

// sendOnce sends one payload to "set" per timer fire.
type sendOnce struct {
	st   struct{ Sent int }
	msgs []string
}

func (m *sendOnce) State() any       { return &m.st }
func (m *sendOnce) Init(ctx Context) { ctx.SetTimer("send", 1) }
func (m *sendOnce) OnTimer(ctx Context, _ string) {
	if m.st.Sent < len(m.msgs) {
		ctx.Send("set", []byte(m.msgs[m.st.Sent]))
		m.st.Sent++
		ctx.SetTimer("send", 20)
	}
}
func (m *sendOnce) OnMessage(Context, string, []byte) {}
func (m *sendOnce) OnRollback(Context, RollbackInfo)  {}

// TestRestoreOverlaysLiveMaps pins a bug this repository's digests depend
// on (ROADMAP item 1): restoreProc unmarshals the checkpoint's JSON INTO
// the live state, and encoding/json reuses a non-nil map, "keeping existing
// entries". A rolled-back or crash-restarted process therefore keeps the map
// keys it wrote after the checkpoint — checkpoint {a}, write b, restore
// gives {a, b}, not {a} — while scalars are restored exactly. An exact
// restore changes the digest of crash and rollback cells of the chaos
// matrix (issue 15 counted 74 of the 672 crash cells at 96 seeds), so
// fixing it means regenerating every committed fixture and the bench's rep
// hashes; until then the overlay must survive any change to how state is
// captured.
func TestRestoreOverlaysLiveMaps(t *testing.T) {
	s := New(Config{Seed: 1, MinLatency: 1, MaxLatency: 1})
	set := &setMachine{}
	s.AddProcess("set", set)
	s.AddProcess("src", &sendOnce{msgs: []string{"a", "b"}})
	var ckID string
	s.SetStepMonitor(1, func() bool {
		if ckID == "" && set.st.Count == 1 {
			ckID = s.takeCheckpoint(s.procs["set"], "", "after-a").ID
		}
		return false
	})
	s.Run()
	if ckID == "" || !reflect.DeepEqual(set.st.Seen, map[string]bool{"a": true, "b": true}) || set.st.Count != 2 {
		t.Fatalf("before the rollback: checkpoint %q, state %+v", ckID, set.st)
	}
	ckJSON, err := s.Store().Get(ckID).StateJSON()
	if err != nil || string(ckJSON) != `{"Seen":{"a":true},"Count":1}` {
		t.Fatalf("checkpoint holds %s (%v), want Seen {a} and Count 1", ckJSON, err)
	}
	if err := s.RollbackTo(map[string]string{"set": ckID}); err != nil {
		t.Fatal(err)
	}
	if set.st.Count != 1 {
		t.Errorf("Count = %d after the rollback, want the checkpoint's 1", set.st.Count)
	}
	if want := (map[string]bool{"a": true, "b": true}); !reflect.DeepEqual(set.st.Seen, want) {
		t.Errorf("Seen = %v after the rollback, want %v: the post-checkpoint key survives the restore "+
			"(if this was fixed on purpose, regenerate the fixtures and update ROADMAP item 1)", set.st.Seen, want)
	}
}

// TestRestoreStateTable spells out, field kind by field kind, what the one
// restore helper (checkpoint.RestoreState — every restore path loads through
// it) does to a live value: scalars, slices and nil maps take the
// checkpoint's value exactly; a non-nil map keeps its later keys (the overlay
// above); a field the checkpoint omits keeps its live value; bytes the
// state's type does not accept are an error.
func TestRestoreStateTable(t *testing.T) {
	type state struct {
		N     int
		Name  string
		List  []int
		Set   map[string]bool
		Inner struct{ Votes map[string]int }
	}
	live := func() *state {
		st := &state{N: 9, Name: "late", List: []int{7, 8, 9}, Set: map[string]bool{"a": true, "late": true}}
		st.Inner.Votes = map[string]int{"a": 2, "late": 1}
		return st
	}
	for _, tc := range []struct {
		name, ckpt string
		into       *state
		want       func(*state)
		fails      bool
	}{
		{name: "scalars and slices restore exactly", ckpt: `{"N":1,"Name":"early","List":[1]}`, into: live(),
			want: func(st *state) { st.N, st.Name, st.List = 1, "early", []int{1} }},
		{name: "a null slice empties the live one", ckpt: `{"List":null}`, into: live(),
			want: func(st *state) { st.List = nil }},
		{name: "a live map keeps its later keys", ckpt: `{"Set":{"a":true},"Inner":{"Votes":{"a":1}}}`, into: live(),
			want: func(st *state) { st.Inner.Votes["a"] = 1 }},
		{name: "a null map empties the live one", ckpt: `{"Set":null}`, into: live(),
			want: func(st *state) { st.Set = nil }},
		{name: "a nil map restores exactly", ckpt: `{"Set":{"a":true}}`, into: &state{},
			want: func(st *state) { st.Set = map[string]bool{"a": true} }},
		{name: "an omitted field keeps its live value", ckpt: `{}`, into: live(), want: func(*state) {}},
		{name: "a mistyped field is refused", ckpt: `{"N":"one"}`, into: live(), fails: true},
		{name: "truncated bytes are refused", ckpt: `{"N":1`, into: live(), fails: true},
		{name: "no bytes are refused", ckpt: ``, into: live(), fails: true},
	} {
		want := live()
		if tc.into.Set == nil {
			want = &state{}
		}
		err := checkpoint.RestoreState([]byte(tc.ckpt), tc.into)
		if tc.fails {
			if err == nil {
				t.Errorf("%s: accepted %q", tc.name, tc.ckpt)
			}
			continue
		}
		if tc.want(want); err != nil || !reflect.DeepEqual(tc.into, want) {
			t.Errorf("%s: restored %+v (%v), want %+v", tc.name, tc.into, err, want)
		}
	}
}

// TestCheckpointStateAllocs: on a recycled simulation a checkpoint costs
// nothing at all — not the state (a process whose state holds maps and one
// whose state is empty are captured alike, into the arena), and not the
// Checkpoint, its timer list, its heap snapshot, its ID, its scroll record's
// label or the store's bookkeeping, which the previous run left behind.
func TestCheckpointStateAllocs(t *testing.T) {
	const checkpoints = 48 // and as many displaced heap pages: fewer than a heap keeps
	s := New(Config{Seed: 1})
	set := &setMachine{}
	set.st.Seen = map[string]bool{"a": true, "b": true, "c": true}
	recycled := func(id string) *proc {
		s.Reset(Config{Seed: 1})
		s.AddProcess("set", set)
		s.AddProcess("empty", &emptyMachine{})
		p := s.procs[id]
		p.ctx.SetTimer("pending", 5) // a timer for the checkpoints to list
		return p
	}
	checkpoint := func(p *proc) {
		s.takeCheckpoint(p, "", "t")
		p.heap.WriteUint64(0, s.stats.Checkpoints) // a page for the next one to find dirty
	}
	for _, id := range []string{"set", "empty"} {
		p := recycled(id)
		for range checkpoints + 1 { // the run that leaves everything behind
			checkpoint(p)
		}
		n := testing.AllocsPerRun(3, func() { // AllocsPerRun rounds down: count whole runs
			p = recycled(id)
			for range checkpoints {
				checkpoint(p)
			}
		})
		if n != 0 {
			t.Errorf("recycling the simulation and %d warm checkpoints of %q allocate %.0f times, want 0", checkpoints, id, n)
		}
	}
}

type emptyMachine struct{ st struct{} }

func (m *emptyMachine) State() any                        { return &m.st }
func (m *emptyMachine) Init(Context)                      {}
func (m *emptyMachine) OnMessage(Context, string, []byte) {}
func (m *emptyMachine) OnTimer(Context, string)           {}
func (m *emptyMachine) OnRollback(Context, RollbackInfo)  {}
