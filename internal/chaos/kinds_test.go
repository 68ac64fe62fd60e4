package chaos

import (
	"encoding/json"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/fault"
)

// armed is a fault.Injector that records what it was handed.
type armed []fault.Injection

func (a *armed) Inject(inj fault.Injection) { *a = append(*a, inj) }

// TestKindTableComplete is the exhaustiveness check the kind switches used
// to need a linter for: over [0, NumKinds), every kind has a stable unique
// name; Restart is the only kind that is not a scenario kind; and every
// scenario kind's row is filled in and works end to end — what Generate
// draws is already normal, survives JSON, and compiles to a plan whose Apply
// hands the Injector exactly the compiled injections, of that kind (a crash
// also of its restart) — and every kind has a class in the inject table,
// without which a backend would arm nothing for it.
func TestKindTableComplete(t *testing.T) {
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
		if kind.Class() == 0 {
			t.Errorf("%v has no class in inject.kinds: no backend would arm it", kind)
		}

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
				var got armed
				plan := sched.Compile(sh.procs)
				plan.Apply(&got)
				if len(got) == 0 || !reflect.DeepEqual([]fault.Injection(got), plan.Injections) {
					t.Fatalf("%v seed %d: %s armed %+v, compiled %+v", kind, seed, sched, got, plan.Injections)
				}
				for _, inj := range got {
					if inj.Kind != kind && !(kind == fault.Crash && inj.Kind == fault.Restart) {
						t.Fatalf("%v seed %d: %s armed a %v", kind, seed, sched, inj.Kind)
					}
				}
			}
		}
	}
	var got armed
	(&fault.Plan{Injections: []fault.Injection{{Kind: fault.Kind(fault.NumKinds)}, {Kind: -1}}}).Apply(&got)
	if len(got) != 0 {
		t.Errorf("undeclared kinds armed %+v, want nothing", got)
	}
	if name := fault.Kind(fault.NumKinds).String(); !strings.HasPrefix(name, "Kind(") {
		t.Errorf("Kind(%d) = %q: NumKinds lags the enum; bump it", fault.NumKinds, name)
	}
}
