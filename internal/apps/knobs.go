package apps

import (
	"fmt"

	"repro/internal/dsim"
)

// Knob is one tunable, typed parameter of a workload application's
// seeded-bug variant: together the knobs span the bounded patch space the
// repair searcher (internal/repair) explores. Values are virtual-time
// units (timeouts, delays, latency bounds); Step defines the grid the
// searcher may propose on, so candidate assignments are enumerable and a
// given seed always visits them in the same order.
type Knob struct {
	Name    string
	Min     uint64
	Max     uint64
	Step    uint64
	Current uint64 // effective value in the registered seeded-bug config
}

// Snap clamps v into [Min, Max] and onto the step grid anchored at Min.
func (k Knob) Snap(v uint64) uint64 {
	if v < k.Min {
		return k.Min
	}
	if v > k.Max {
		return k.Max
	}
	if k.Step > 1 {
		v = k.Min + (v-k.Min)/k.Step*k.Step
	}
	return v
}

// knob is a Knob of an app's table with the rule that sets it on the
// seeded-bug config or, for a network knob, on its simulation profile.
type knob[C any] struct {
	Knob
	set func(cfg *C, sim *dsim.Config, v uint64)
}

// Knobs returns (a copy of) the knob table registered for a workload app:
// the timeout/delay parameters whose misconfiguration the seeded bugs
// model. The tables deliberately include knobs that cannot fix the bug
// (kvstore's blind apply is not a latency problem) so repair has honest
// negative space to report.
func Knobs(app string) ([]Knob, error) {
	if r, err := find(app); err == nil {
		if t := r.knobTable(); len(t) > 0 {
			return t, nil
		}
	}
	return nil, fmt.Errorf("apps: no knob table registered for %q", app)
}

// ApplyKnobs returns the registry spec for app with assign applied to its
// seeded-bug variant (see app.spec). Every assigned name must exist in the
// app's knob table and every value must lie on the knob's grid; a nil or
// empty assignment returns the unpatched spec.
func ApplyKnobs(app string, assign map[string]uint64) (AppSpec, error) {
	r, err := find(app)
	if err != nil {
		return AppSpec{}, err
	}
	table, err := Knobs(app)
	if err != nil {
		return AppSpec{}, err
	}
	for name, v := range assign {
		var k *Knob
		for i := range table {
			if table[i].Name == name {
				k = &table[i]
				break
			}
		}
		if k == nil {
			return AppSpec{}, fmt.Errorf("apps: %s has no knob %q", app, name)
		}
		if k.Snap(v) != v {
			return AppSpec{}, fmt.Errorf("apps: %s knob %q: value %d outside [%d,%d] step %d",
				app, name, v, k.Min, k.Max, k.Step)
		}
	}
	return r.spec(assign), nil
}
