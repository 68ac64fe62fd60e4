package chaos

import (
	"strconv"
	"strings"
	"testing"

	"repro/internal/apps"
	"repro/internal/dsim"
	"repro/internal/fault"
)

// leakyRuns counts the leaky application's runs: state outside the
// simulation, which no seed determines.
var leakyRuns int

// leakyState is the leaky machines' state.
type leakyState struct{ Sent, Got int }

// leakySender sends its numbered messages to "b" at start, and message
// leakAt carries leakyRuns as well: a second run of a cell sends one
// different payload.
type leakySender struct {
	st            leakyState
	sends, leakAt int
	buf           []byte
}

func (m *leakySender) State() any { return &m.st }

func (m *leakySender) Init(ctx dsim.Context) {
	leakyRuns++
	for i := range m.sends {
		m.buf = strconv.AppendInt(m.buf[:0], int64(i), 10)
		if i == m.leakAt {
			m.buf = strconv.AppendInt(append(m.buf, '/'), int64(leakyRuns), 10)
		}
		ctx.Send("b", m.buf)
		m.st.Sent++
	}
}

func (m *leakySender) OnMessage(dsim.Context, string, []byte)     {}
func (m *leakySender) OnTimer(dsim.Context, string)               {}
func (m *leakySender) OnRollback(dsim.Context, dsim.RollbackInfo) {}

// leakyReceiver counts deliveries.
type leakyReceiver struct{ st leakyState }

func (m *leakyReceiver) State() any                                 { return &m.st }
func (m *leakyReceiver) Init(dsim.Context)                          {}
func (m *leakyReceiver) OnMessage(dsim.Context, string, []byte)     { m.st.Got++ }
func (m *leakyReceiver) OnTimer(dsim.Context, string)               {}
func (m *leakyReceiver) OnRollback(dsim.Context, dsim.RollbackInfo) {}

// leakySpec is a two-process application whose sender's message leakAt of
// sends differs from run to run.
func leakySpec(sends, leakAt int) apps.AppSpec {
	return apps.AppSpec{
		Name: "leaky",
		Make: func(bool) map[string]dsim.Machine {
			return map[string]dsim.Machine{"a": &leakySender{sends: sends, leakAt: leakAt}, "b": &leakyReceiver{}}
		},
		Invariants: func(bool) []fault.GlobalInvariant { return nil },
		Config: func(bool) dsim.Config {
			return dsim.Config{MinLatency: 1, MaxLatency: 1, MaxSteps: 200_000}
		},
		Horizon: 40,
	}
}

// TestMatrixFlagsNondeterminism: a cell whose second run differs from its
// first fails the matrix as nondeterministic, whether the runs part at the
// first message or only past the first segment (1,024 records) of both
// scrolls.
func TestMatrixFlagsNondeterminism(t *testing.T) {
	for _, tc := range []struct {
		name          string
		sends, leakAt int
	}{
		{"first message", 4, 0},
		{"past the first segment", 1100, 1050},
	} {
		t.Run(tc.name, func(t *testing.T) {
			spec := leakySpec(tc.sends, tc.leakAt)
			if at := firstDivergence(t, spec); at < tc.leakAt {
				t.Fatalf("two runs part at record %d, want %d or later", at, tc.leakAt)
			}
			rep := RunMatrix(MatrixConfig{Apps: []apps.AppSpec{spec}, Kinds: []fault.Kind{fault.Reorder}, Seeds: []int64{1}})
			cell := rep.Cells[0]
			if cell.Deterministic {
				t.Fatalf("%s: a cell whose runs send different payloads is deterministic", cell)
			}
			if fail := cell.Fail(); !strings.Contains(fail, "nondeterministic") {
				t.Fatalf("%s: Fail() = %q, want it to name the nondeterminism", cell, fail)
			}
			if fs := rep.Failures(); len(fs) != 1 || fs[0] != cell {
				t.Fatalf("Failures() = %v, want the nondeterministic cell", fs)
			}
		})
	}
}

// firstDivergence runs the spec's reorder cell twice and returns the first
// record position at which any process's scrolls differ.
func firstDivergence(t *testing.T, spec apps.AppSpec) int {
	r := Runner{Spec: spec, Seed: 1, Probe: true}
	sched := Schedule{Generate(fault.Reorder, r.Procs(), r.Crashable(), spec.Horizon, 1)}
	var runs [2][][]string
	for i := range runs {
		cfg := spec.Config(false)
		cfg.Seed = r.Seed
		a := &runArena{sim: dsim.New(cfg)}
		r.execute(sched, a)
		for _, s := range a.sim.Scrolls() {
			var recs []string
			for rec := range s.All() {
				recs = append(recs, rec.Kind.String()+" "+string(rec.Payload))
			}
			runs[i] = append(runs[i], recs)
		}
	}
	at := -1
	for p := range runs[0] {
		for i := range min(len(runs[0][p]), len(runs[1][p])) {
			if runs[0][p][i] != runs[1][p][i] {
				if at < 0 || i < at {
					at = i
				}
				break
			}
		}
	}
	if at < 0 {
		t.Fatal("the leaky application ran the same twice")
	}
	return at
}
