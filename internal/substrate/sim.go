package substrate

import "repro/internal/dsim"

// SimSubstrate adapts the deterministic discrete-event simulator to the
// Substrate interface. It is a thin wrapper: *dsim.Sim natively satisfies
// every consumer interface already (fault.Injector included), so the adapter
// only adds the capability descriptor and Close.
type SimSubstrate struct {
	*dsim.Sim
}

// NewSim returns a simulated substrate with the given configuration.
func NewSim(cfg dsim.Config) *SimSubstrate { return &SimSubstrate{Sim: dsim.New(cfg)} }

// Capabilities implements Substrate: the simulator supports everything.
func (s *SimSubstrate) Capabilities() Capabilities {
	return Capabilities{Name: "sim", Deterministic: true, Speculation: true}
}

// Close implements Substrate; the simulator holds no external resources.
func (s *SimSubstrate) Close() error { return nil }
