package fault_test

import (
	"encoding/json"
	"sort"
	"testing"

	"repro/internal/apps"
	"repro/internal/dsim"
	"repro/internal/fault"
)

// quiescedKV runs the correct kvstore to quiescence.
func quiescedKV(t *testing.T) (*dsim.Sim, []fault.GlobalInvariant) {
	t.Helper()
	spec, err := apps.Lookup("kvstore")
	if err != nil {
		t.Fatal(err)
	}
	cfg := spec.Config(false)
	cfg.Seed = 7
	s := dsim.New(cfg)
	ms := spec.Make(false)
	ids := make([]string, 0, len(ms))
	for id := range ms {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		s.AddProcess(id, ms[id])
	}
	s.Run()
	return s, append(spec.Invariants(false), apps.KVConvergence())
}

// TestMonitorCheckAllocs: a warm Monitor.Check over the simulator reads the
// machines' states in place — no JSON, no copy of the process list, no
// allocation at all.
func TestMonitorCheckAllocs(t *testing.T) {
	s, invs := quiescedKV(t)
	mon := fault.NewMonitor(invs...)
	if v := mon.Check(s); len(v) != 0 {
		t.Fatalf("quiesced kvstore violates %v", v)
	}
	if allocs := testing.AllocsPerRun(100, func() { mon.Check(s) }); allocs != 0 {
		t.Errorf("warm Monitor.Check allocates %.0f times, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(100, func() { mon.AnyViolated(s) }); allocs != 0 {
		t.Errorf("warm Monitor.AnyViolated allocates %.0f times, want 0", allocs)
	}
}

// rawOnly hides the simulator's in-place view, leaving what the live
// substrate offers: serialized state on request.
type rawOnly struct {
	s     *dsim.Sim
	reads map[string]int
}

func (r rawOnly) Procs() []string { return r.s.Procs() }
func (r rawOnly) Now() uint64     { return r.s.Now() }
func (r rawOnly) MachineState(id string) []byte {
	r.reads[id]++
	return r.s.MachineState(id)
}

// TestStatesViews: the three backings of a States view — live pointers,
// a serializing source read lazily, and StatesFromRaw — answer Has, Raw and
// Get alike, and Get hands out the machine's own state only when the types
// match.
func TestStatesViews(t *testing.T) {
	s, _ := quiescedKV(t)
	type kvCounts struct{ Applied, Stale int } // a foreign type, read by field name
	var seen int
	probe := fault.GlobalInvariant{Name: "probe", Holds: func(states *fault.States) bool {
		seen++
		if !states.Has(apps.KVPrimaryName) || states.Has("nobody") || states.Raw("nobody") != nil {
			t.Errorf("Has/Raw disagree with the process list %v", states.Procs())
		}
		if _, err := fault.Get[kvCounts](states, "nobody"); err == nil {
			t.Error("Get of an absent process succeeded")
		}
		want := s.MachineState(apps.KVPrimaryName)
		if got := states.Raw(apps.KVPrimaryName); string(got) != string(want) {
			t.Errorf("Raw = %s, want %s", got, want)
		}
		var fromRaw kvCounts
		if err := json.Unmarshal(want, &fromRaw); err != nil {
			t.Fatal(err)
		}
		got, err := fault.Get[kvCounts](states, apps.KVPrimaryName)
		if err != nil || *got != fromRaw || fromRaw.Applied == 0 {
			t.Errorf("Get[kvCounts] = %+v, %v; want %+v", got, err, fromRaw)
		}
		if _, err := fault.Get[[]int](states, apps.KVPrimaryName); err == nil {
			t.Error("Get into a type the state's JSON does not fit succeeded")
		}
		return true
	}}

	fault.NewMonitor(probe).Check(s)

	src := rawOnly{s: s, reads: map[string]int{}}
	fault.NewMonitor(probe).Check(src)
	if len(src.reads) != 1 || src.reads[apps.KVPrimaryName] != 1 {
		t.Errorf("a serializing source was read %v; want only the primary, once", src.reads)
	}

	raw := map[string]json.RawMessage{}
	for _, id := range s.Procs() {
		raw[id] = s.MachineState(id)
	}
	probe.Holds(fault.StatesFromRaw(raw))
	if seen != 3 {
		t.Fatalf("probe ran %d times, want 3", seen)
	}

	// The live view hands out the machine's own state: a later write shows
	// through the same pointer, which is why the view is read-only and
	// short-lived.
	own := fault.GlobalInvariant{Name: "own", Holds: func(states *fault.States) bool {
		a, err := fault.Get[struct{ Sent int }](states, "w")
		b, _ := fault.Get[struct{ Sent int }](states, "w")
		return err == nil && a == b
	}}
	hs := dsim.New(dsim.Config{Seed: 1, MaxSteps: 50})
	hs.AddProcess("w", &fault.Heartbeater{Monitor: "nobody", Interval: 10})
	hs.Run()
	if v := fault.NewMonitor(own).Check(hs); len(v) != 0 {
		t.Error("two Gets of a matching type on a live view returned different pointers")
	}
	if v := fault.NewMonitor(own).Check(rawOnly{s: hs, reads: map[string]int{}}); len(v) != 1 {
		t.Error("a serializing source handed out a shared pointer")
	}
}
