package chaos

import (
	"encoding/json"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/fault"
)

// callLog is a fault.Injector that records which methods were called.
type callLog []string

func (c *callLog) CrashAt(string, uint64)             { *c = append(*c, "CrashAt") }
func (c *callLog) RestartAt(string, uint64)           { *c = append(*c, "RestartAt") }
func (c *callLog) RollbackAt(string, uint64)          { *c = append(*c, "RollbackAt") }
func (c *callLog) Partition([]string, uint64, uint64) { *c = append(*c, "Partition") }
func (c *callLog) InjectDelay([]string, uint64, uint64, uint64, uint64) {
	*c = append(*c, "InjectDelay")
}
func (c *callLog) InjectDrop([]string, uint64, uint64, float64)    { *c = append(*c, "InjectDrop") }
func (c *callLog) InjectDup([]string, uint64, uint64, float64)     { *c = append(*c, "InjectDup") }
func (c *callLog) InjectSkew(string, uint64, uint64, int64)        { *c = append(*c, "InjectSkew") }
func (c *callLog) InjectCorrupt([]string, uint64, uint64, float64) { *c = append(*c, "InjectCorrupt") }
func (c *callLog) InjectSlow(string, uint64, uint64, uint64)       { *c = append(*c, "InjectSlow") }

// TestKindTableComplete is the exhaustiveness check the kind switches used
// to need a linter for: over [0, NumKinds), every kind has a stable unique
// name; Restart is the only kind that is not a scenario kind; and every
// scenario kind's row is filled in and works end to end — what Generate
// draws is already normal, survives JSON, and compiles to a plan that arms
// exactly that kind's Injector method.
func TestKindTableComplete(t *testing.T) {
	arms := map[fault.Kind][]string{
		fault.Crash: {"CrashAt", "RestartAt"}, fault.Partition: {"Partition"},
		fault.Delay: {"InjectDelay"}, fault.Reorder: {"InjectDelay"},
		fault.Duplicate: {"InjectDup"}, fault.Drop: {"InjectDrop"},
		fault.ClockSkew: {"InjectSkew"}, fault.Rollback: {"RollbackAt"},
		fault.Corrupt: {"InjectCorrupt"}, fault.SlowNode: {"InjectSlow"},
	}
	names := map[string]fault.Kind{}
	for i := 0; i < fault.NumKinds; i++ {
		kind, row := fault.Kind(i), kinds[i]
		name := kind.String()
		if strings.HasPrefix(name, "Kind(") || name != strings.ToLower(name) {
			t.Errorf("Kind(%d) is named %q: every kind needs a lowercase name in fault.kinds", i, name)
		}
		if prev, dup := names[name]; dup {
			t.Errorf("Kind(%d) and Kind(%d) share the name %q", int(prev), i, name)
		}
		names[name] = kind

		if kind == fault.Restart {
			if !reflect.ValueOf(row).IsZero() {
				t.Errorf("restart is not a scenario kind; its row must stay zero, got %+v", row)
			}
			continue
		}
		if !row.scenario || row.window == nil || row.shape == shapeNone {
			t.Fatalf("%v: incomplete row %+v", kind, row)
		}
		if (row.dim == dimNone) != (row.span == 0) {
			t.Errorf("%v: dimension %d with span %v", kind, row.dim, row.span)
		}
		if row.matrix != slices.Contains(MatrixKinds, kind) {
			t.Errorf("%v: matrix=%v but MatrixKinds=%v", kind, row.matrix, MatrixKinds)
		}

		for _, sh := range goldenShapes[1:] { // the shapes with a crashable process
			for seed := int64(1); seed <= 8; seed++ {
				sched := Schedule{Generate(kind, sh.procs, sh.crashable, sh.horizon, seed)}
				if norm := sched.Normalize(); !reflect.DeepEqual(norm, sched) {
					t.Fatalf("%v seed %d: Generate %s is not normal: %s", kind, seed, sched, norm)
				}
				raw, err := json.Marshal(sched)
				if err != nil {
					t.Fatal(err)
				}
				back, err := DecodeSchedule(raw)
				if err != nil || !reflect.DeepEqual(back, sched) {
					t.Fatalf("%v seed %d: JSON round trip of %s gave %s, %v", kind, seed, raw, back, err)
				}
				var calls callLog
				sched.Compile(sh.procs).Apply(&calls)
				if !slices.Equal(calls, arms[kind]) {
					t.Fatalf("%v seed %d: %s armed %v, want %v", kind, seed, sched, []string(calls), arms[kind])
				}
			}
		}
	}
	if name := fault.Kind(fault.NumKinds).String(); !strings.HasPrefix(name, "Kind(") {
		t.Errorf("Kind(%d) = %q: NumKinds lags the enum; bump it", fault.NumKinds, name)
	}
}
