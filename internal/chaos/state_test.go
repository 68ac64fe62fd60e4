package chaos

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"runtime"
	"sort"
	"testing"

	"repro/internal/apps"
	"repro/internal/checkpoint"
	"repro/internal/dsim"
	"repro/internal/fault"
)

// sweepKinds is every injectable fault kind: the matrix's plus the opt-in
// ones, so crash-restart restores, injected timeline rollbacks and
// corrupted payloads all reach the state codec and the invariants.
var sweepKinds = append(append([]fault.Kind(nil), MatrixKinds...), fault.Rollback, fault.Corrupt, fault.SlowNode)

// captureCheck decorates a machine to compare every checkpoint of its
// process with the JSON its state marshaled to when the checkpoint was
// taken. takeCheckpoint calls State() exactly once, before it stores the
// checkpoint, so a checkpoint that first shows up as the store's latest at
// one State() call was captured by the previous call.
type captureCheck struct {
	dsim.Machine
	t        *testing.T
	sim      *dsim.Sim
	id       string
	lastJSON []byte // json.Marshal(State()) at the previous State() call
	verified map[*checkpoint.Checkpoint]bool
	count    *int
}

func (m *captureCheck) State() any {
	m.verify()
	st := m.Machine.State()
	var err error
	if m.lastJSON, err = json.Marshal(st); err != nil {
		m.t.Fatalf("%s: %v", m.id, err)
	}
	return st
}

func (m *captureCheck) verify() {
	ck := m.sim.Store().Latest(m.id)
	if ck == nil || m.verified[ck] {
		return
	}
	m.verified[ck] = true
	*m.count++
	if ck.Codec == nil {
		m.t.Errorf("%s: checkpoint %s of a %T took the JSON path", m.id, ck.ID, m.Machine.State())
	}
	got, err := ck.StateJSON()
	if err != nil || !bytes.Equal(got, m.lastJSON) {
		m.t.Errorf("%s: checkpoint %s:\n StateJSON %s (%v)\n at capture %s", m.id, ck.ID, got, err, m.lastJSON)
	}
}

// harvest is one finished (or early-exited) run: the simulation, its
// process list and the machines' state pointers.
type harvest struct {
	app    string
	sim    *dsim.Sim
	ids    []string
	states []any
}

// sweep runs every Registry+Zoo application, both variants, under every
// fault kind, with each machine wrapped in a captureCheck, calling each
// every few steps and once at the end of each run.
func sweep(t *testing.T, seeds []int64, each func(h harvest, invs []fault.GlobalInvariant)) (checkpoints int) {
	for _, spec := range append(apps.Registry(), apps.Zoo()...) {
		for _, buggy := range []bool{false, true} {
			lister := Runner{Spec: spec, Buggy: buggy, Probe: true}
			procs, crashable := lister.Procs(), lister.Crashable()
			invs := spec.Invariants(buggy)
			for _, kind := range sweepKinds {
				for _, seed := range seeds {
					cfg := spec.Config(buggy)
					cfg.Seed = seed
					s := dsim.New(cfg)
					ms := spec.Make(buggy)
					ms[ProbeName] = &clockProbe{}
					h := harvest{app: spec.Name, sim: s}
					var wrapped []*captureCheck
					for _, id := range procs {
						w := &captureCheck{Machine: ms[id], t: t, sim: s, id: id,
							verified: map[*checkpoint.Checkpoint]bool{}, count: &checkpoints}
						wrapped = append(wrapped, w)
						s.AddProcess(id, w)
						h.ids = append(h.ids, id)
						h.states = append(h.states, ms[id].State())
					}
					Schedule{Generate(kind, procs, crashable, spec.Horizon, seed)}.Compile(procs).Apply(s)
					mon := fault.NewMonitor(invs...)
					s.SetStepMonitor(7, func() bool {
						each(h, invs)
						// The seeded bugs run long once violated; stop there,
						// as the chaos runner's early exit does.
						return buggy && mon.AnyViolated(s)
					})
					s.Run()
					for _, w := range wrapped {
						w.verify()
					}
					each(h, invs)
				}
			}
		}
	}
	return checkpoints
}

// TestCheckpointStateMatchesJSON is the codec's differential test on real
// application states: every checkpoint of a Registry+Zoo sweep — crash
// restarts and injected rollbacks included — reads back through StateJSON
// as exactly the bytes json.Marshal(State()) gave at capture time, and
// every one of them went through a codec, not the JSON fallback.
func TestCheckpointStateMatchesJSON(t *testing.T) {
	n := sweep(t, []int64{1, 2}, func(harvest, []fault.GlobalInvariant) {})
	if n < 3000 {
		t.Errorf("only %d checkpoints verified; the sweep is not reaching the store", n)
	}
}

// relabeled presents a harvest's state pointers under another process
// list, as a live source: every invariant then meets states that are not
// of the type it asks for.
type relabeled struct {
	ids    []string
	states []any
}

func (r relabeled) Procs() []string            { return r.ids }
func (r relabeled) Now() uint64                { return 0 }
func (r relabeled) MachineState(string) []byte { panic("a live source is read in place") }
func (r relabeled) LiveStates(buf []any) ([]string, []any) {
	return r.ids, append(buf, r.states...)
}

// rawOf serializes a live source's states the way Sim.MachineState does.
func rawOf(t *testing.T, ids []string, states []any) *fault.States {
	raw := make(map[string]json.RawMessage, len(ids))
	for i, id := range ids {
		b, err := json.Marshal(states[i])
		if err != nil {
			t.Fatal(err)
		}
		raw[id] = b
	}
	return fault.StatesFromRaw(raw)
}

// TestInvariantVerdictsAgreeAcrossViews: every application invariant gives
// the same verdict reading the machines' states in place and reading their
// JSON — mid-run and at quiescence, on its own application (whose process
// list holds the clock probe and, for mservice, twopc and cacheaside,
// several state types behind one invariant) and on every other
// application's states presented under its process names, where nothing
// is of the type the invariant asks for.
func TestInvariantVerdictsAgreeAcrossViews(t *testing.T) {
	var all []fault.GlobalInvariant
	names := map[string][]string{}
	for _, spec := range append(apps.Registry(), apps.Zoo()...) {
		all = append(all, spec.Invariants(false)...)
		names[spec.Name] = Runner{Spec: spec, Probe: true}.Procs()
	}
	all = append(all, apps.KVConvergence())

	compare := func(src fault.StateSource, ids []string, states []any, invs []fault.GlobalInvariant, what string) (violated int) {
		raw := rawOf(t, ids, states)
		for _, inv := range invs {
			live := len(fault.NewMonitor(inv).Check(src)) == 0
			if live != inv.Holds(raw) {
				t.Errorf("%s: %q holds=%v on the live view, %v on its JSON", what, inv.Name, live, !live)
			}
			if !live {
				violated++
			}
		}
		return violated
	}
	var checks, violated int
	sweep(t, []int64{3}, func(h harvest, invs []fault.GlobalInvariant) {
		checks++
		violated += compare(h.sim, h.ids, h.states, invs, h.app)
		if checks%16 != 0 {
			return
		}
		for other, ids := range names {
			n := min(len(ids), len(h.ids))
			r := relabeled{ids: ids[:n], states: h.states[:n]}
			compare(r, r.ids, r.states, all, h.app+" as "+other)
		}
	})
	if checks < 1000 || violated == 0 {
		t.Errorf("%d comparisons, %d violated verdicts: the sweep does not cover both outcomes", checks, violated)
	}
}

// stateCodecs lists the codec of every state type a Registry+Zoo run
// checkpoints, in a stable order.
func stateCodecs(t testing.TB) []*checkpoint.StateCodec {
	byName := map[string]*checkpoint.StateCodec{}
	add := func(m dsim.Machine) {
		c := checkpoint.CodecFor(m.State())
		if c == nil {
			t.Fatalf("%T has no codec", m.State())
		}
		byName[reflect.TypeOf(m.State()).String()] = c
	}
	add(&clockProbe{})
	for _, spec := range append(apps.Registry(), apps.Zoo()...) {
		for _, buggy := range []bool{false, true} {
			for _, m := range spec.Make(buggy) {
				add(m)
			}
		}
	}
	typeNames := make([]string, 0, len(byName))
	for name := range byName {
		typeNames = append(typeNames, name)
	}
	sort.Strings(typeNames)
	out := make([]*checkpoint.StateCodec, len(typeNames))
	for i, name := range typeNames {
		out[i] = byName[name]
	}
	return out
}

// FuzzStateDecode feeds arbitrary bytes to the decoder of every state type
// the applications checkpoint. Decoding never panics and never allocates
// beyond a constant factor of the input (length prefixes are checked
// against the bytes that remain); whatever decodes re-encodes to bytes that
// decode to the same state.
func FuzzStateDecode(f *testing.F) {
	codecs := stateCodecs(f)
	// Seeds: real encodings, one run per application.
	for _, spec := range append(apps.Registry(), apps.Zoo()...) {
		cfg := spec.Config(false)
		cfg.Seed = 1
		s := dsim.New(cfg)
		ms := spec.Make(false)
		for _, id := range (Runner{Spec: spec}).Procs() {
			s.AddProcess(id, ms[id])
		}
		s.Run()
		for _, id := range s.Procs() {
			ck := s.Store().Latest(id)
			for i, c := range codecs {
				if ck != nil && c == ck.Codec {
					f.Add(uint8(i), ck.Extra)
				}
			}
		}
	}
	f.Add(uint8(0), []byte{})
	f.Add(uint8(3), []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f})

	var arena checkpoint.Arena
	f.Fuzz(func(t *testing.T, which uint8, data []byte) {
		codec := codecs[int(which)%len(codecs)]
		// TotalAlloc is process-wide: another goroutine's allocation can
		// land in one measurement, not in three.
		var state any
		var err error
		allocated, limit := uint64(math.MaxUint64), uint64(4096+256*len(data))
		for try := 0; try < 3 && allocated > limit; try++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			state, err = codec.Decode(data)
			runtime.ReadMemStats(&after)
			allocated = min(allocated, after.TotalAlloc-before.TotalAlloc)
		}
		if allocated > limit {
			t.Fatalf("decoding %d bytes allocated %d bytes (limit %d)", len(data), allocated, limit)
		}
		if err != nil {
			return
		}
		want, err := json.Marshal(state)
		if err != nil {
			t.Fatalf("decoded state does not marshal: %v", err)
		}
		again, reCodec, err := arena.Encode(state)
		if err != nil || reCodec != codec {
			t.Fatalf("re-encoding a decoded state: codec %v, err %v", reCodec, err)
		}
		got, err := (&checkpoint.Checkpoint{Extra: again, Codec: codec}).StateJSON()
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("re-encoded state reads back as %s (%v), want %s", got, err, want)
		}
		arena.Rewind()
	})
}
