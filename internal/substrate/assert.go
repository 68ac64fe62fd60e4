package substrate

import (
	"repro/internal/baselines"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/heal"
)

// Compile-time wiring of the substrate seam: both backends must satisfy
// the full Substrate surface, and the surface must satisfy every narrow
// consumer interface in the framework.
var (
	_ Substrate = (*SimSubstrate)(nil)
	_ Substrate = (*LiveSubstrate)(nil)

	_ core.Substrate    = (Substrate)(nil)
	_ heal.Target       = (Substrate)(nil)
	_ fault.StateSource = (Substrate)(nil)
	_ baselines.Source  = (Substrate)(nil)
)
