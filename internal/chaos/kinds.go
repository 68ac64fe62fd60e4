package chaos

import (
	"fmt"
	"math/rand"

	"repro/internal/fault"
)

// Everything this package decides per fault kind is a row of kinds, and
// everything it decides per intensity dimension — five of them serve the
// ten scenario kinds — is a row of dims. Scenario.String, Schedule.Compile,
// Generate, Normalize, DecodeSchedule, MutateOp and Shrink read the rows;
// none of them branches on a kind. Adding a kind is one row here and one in
// inject.kinds, which is where every backend learns what the kind does.

// dim is the part of Intensity a kind uses.
type dim uint8

const (
	dimNone   dim = iota // window and targets say it all
	dimExtra             // Extra: fixed extra latency, or handler lag
	dimJitter            // Jitter: seeded latency bound, on top of an optional fixed Extra
	dimProb              // Prob: per-message probability
	dimSkew              // Skew: signed observed-clock offset
	numDims
)

// targetPolicy is how a kind draws its target set (see pickTargets).
type targetPolicy uint8

const (
	targetSubset       targetPolicy = iota // a non-empty subset of the app's processes
	targetLeaveOneOut                      // a subset that leaves someone outside
	targetOneCrashable                     // one process eligible for crash-restart
	targetOneApp                           // one application process
	targetProbe                            // the clock probe, always the trailing process
)

// shape is what one scenario of a kind compiles to (see Schedule.Compile).
type shape uint8

const (
	shapeNone         shape = iota // nothing: not a scenario kind
	shapeGroup                     // one injection over the target group, for the window
	shapePerProc                   // one injection per target, for the window
	shapePoint                     // per target, a point event at Window.From
	shapeCrashRestart              // shapePoint, then a Restart of the target at Window.To
)

// kindRow describes one fault kind.
type kindRow struct {
	// scenario kinds may appear in a Schedule; Normalize drops the others and
	// DecodeSchedule rejects them.
	scenario bool
	// matrix kinds are swept by default (MatrixKinds). The other scenario
	// kinds are opt-in (MatrixConfig.Kinds, SearchConfig.ExtraKinds), so every
	// artifact generated before they existed stays byte-identical.
	matrix   bool
	window   func(rng *rand.Rand, horizon uint64) Window
	targets  targetPolicy
	dim      dim
	lo, span float64 // Generate draws the dimension's value from [lo, lo+span)
	shape    shape
}

var kinds = [fault.NumKinds]kindRow{
	fault.Crash: {scenario: true, matrix: true, window: quarterWindow, targets: targetOneCrashable, shape: shapeCrashRestart},
	// Restart exists only as the compiled second half of a Crash scenario.
	fault.Restart:   {},
	fault.Partition: {scenario: true, matrix: true, window: quarterWindow, targets: targetLeaveOneOut, shape: shapeGroup},
	fault.Delay:     {scenario: true, matrix: true, window: quarterWindow, dim: dimExtra, lo: 5, span: 20, shape: shapeGroup},
	fault.Reorder:   {scenario: true, matrix: true, window: thirdWindow, dim: dimJitter, lo: 10, span: 25, shape: shapeGroup},
	fault.Duplicate: {scenario: true, matrix: true, window: thirdWindow, dim: dimProb, lo: 0.3, span: 0.4, shape: shapeGroup},
	fault.Drop:      {scenario: true, matrix: true, window: thirdWindow, dim: dimProb, lo: 0.2, span: 0.4, shape: shapeGroup},
	// The probe ticks every 5; an offset > 5 guarantees the window edge shows
	// up as a regression on one side.
	fault.ClockSkew: {scenario: true, matrix: true, window: skewWindow, targets: targetProbe, dim: dimSkew, lo: 6, span: 39, shape: shapePerProc},
	// A deliberate rollback is a point event: Window.From is when the target
	// rewinds to its latest checkpoint (new epoch).
	fault.Rollback: {scenario: true, window: quarterWindow, targets: targetOneCrashable, shape: shapePoint},
	fault.Corrupt:  {scenario: true, window: thirdWindow, dim: dimProb, lo: 0.3, span: 0.4, shape: shapeGroup},
	// Enough lag that timeout-sensitive protocols feel it, bounded so runs
	// still quiesce inside the step budget.
	fault.SlowNode: {scenario: true, window: quarterWindow, targets: targetOneApp, dim: dimExtra, lo: 10, span: 30, shape: shapePerProc},
}

// rowOf returns k's row. A kind outside the enum (decoded input) reads as
// Restart's: not a scenario kind.
func rowOf(k fault.Kind) *kindRow {
	if uint(k) < uint(len(kinds)) {
		return &kinds[k]
	}
	return &kinds[fault.Restart]
}

// MatrixKinds are the fault kinds the matrix sweeps by default, in enum
// order. Restart is not among them: Crash scenarios compile to crash-restart
// pairs.
var MatrixKinds = func() (out []fault.Kind) {
	for k := range kinds {
		if kinds[k].matrix {
			out = append(out, fault.Kind(k))
		}
	}
	return out
}()

// window draws a generated scenario's window: onset in the run's first
// third, at least minLen long.
func window(rng *rand.Rand, horizon, minLen uint64) Window {
	from := 5 + uint64(rng.Int63n(int64(horizon/3+1)))
	length := minLen + uint64(rng.Int63n(int64(horizon/2+1)))
	return Window{From: from, To: from + length}
}

func quarterWindow(rng *rand.Rand, horizon uint64) Window { return window(rng, horizon, horizon/4) }
func thirdWindow(rng *rand.Rand, horizon uint64) Window   { return window(rng, horizon, horizon/3) }

// skewWindow is bounded so the probe is still ticking when the skew starts
// and ends — both edges are detectable regressions.
func skewWindow(rng *rand.Rand, _ uint64) Window {
	from := 5 + uint64(rng.Int63n(25))
	return Window{From: from, To: from + 20 + uint64(rng.Int63n(40))}
}

// dimRow describes one intensity dimension.
type dimRow struct {
	// only keeps the dimension's fields of an Intensity and zeroes the rest:
	// what Compile copies into an Injection, what Normalize retains of a
	// clamped intensity, what DecodeSchedule reads of a binary block.
	only   func(Intensity) Intensity
	format func(Intensity) string // Scenario.String's intensity part
	gen    func(rng *rand.Rand, lo, span float64) Intensity
	// perturb is the perturb-intensity mutation: scale up when grow, else down.
	perturb func(sc *Scenario, grow bool)
	// shrink is the shrinker's next smaller candidate; false at the floor.
	shrink func(sc *Scenario) bool
}

var dims = [numDims]dimRow{
	dimNone: {
		only:   func(Intensity) Intensity { return Intensity{} },
		format: func(Intensity) string { return "" },
		gen:    func(*rand.Rand, float64, float64) Intensity { return Intensity{} },
		// Nothing to scale: nudge the window instead.
		perturb: func(sc *Scenario, _ bool) { sc.Window.To++ },
		// No intensity to shrink; the remaining attribute is onset. Halve
		// Window.From toward the run's start, keeping the length, so a
		// minimized crash still restarts after the same outage (and a rollback
		// point event moves to the earliest reproducing time).
		shrink: func(sc *Scenario) bool {
			f, ok := halve(sc.Window.From)
			sc.Window = Window{From: f, To: f + sc.Window.Len()}
			return ok
		},
	},
	dimExtra: {
		only:   func(in Intensity) Intensity { return Intensity{Extra: in.Extra} },
		format: func(in Intensity) string { return fmt.Sprintf("(+%d)", in.Extra) },
		gen: func(rng *rand.Rand, lo, span float64) Intensity {
			return Intensity{Extra: uint64(lo) + uint64(rng.Int63n(int64(span)))}
		},
		perturb: func(sc *Scenario, grow bool) { sc.Intensity.Extra = scale(sc.Intensity.Extra, grow) },
		shrink: func(sc *Scenario) (ok bool) {
			sc.Intensity.Extra, ok = halve(sc.Intensity.Extra)
			return ok
		},
	},
	dimJitter: {
		only:   func(in Intensity) Intensity { return Intensity{Extra: in.Extra, Jitter: in.Jitter} },
		format: func(in Intensity) string { return fmt.Sprintf("(j=%d)", in.Jitter) },
		gen: func(rng *rand.Rand, lo, span float64) Intensity {
			return Intensity{Jitter: uint64(lo) + uint64(rng.Int63n(int64(span)))}
		},
		perturb: func(sc *Scenario, grow bool) { sc.Intensity.Jitter = scale(sc.Intensity.Jitter, grow) },
		shrink: func(sc *Scenario) (ok bool) {
			sc.Intensity.Jitter, ok = halve(sc.Intensity.Jitter)
			return ok
		},
	},
	dimProb: {
		only:   func(in Intensity) Intensity { return Intensity{Prob: in.Prob} },
		format: func(in Intensity) string { return fmt.Sprintf("(p=%.2f)", in.Prob) },
		gen: func(rng *rand.Rand, lo, span float64) Intensity {
			return Intensity{Prob: lo + span*rng.Float64()}
		},
		perturb: func(sc *Scenario, grow bool) {
			if grow {
				sc.Intensity.Prob = min(1, sc.Intensity.Prob*1.5+0.05)
			} else {
				sc.Intensity.Prob /= 2
			}
		},
		shrink: func(sc *Scenario) bool {
			if sc.Intensity.Prob/2 < 0.05 {
				return false
			}
			sc.Intensity.Prob /= 2
			return true
		},
	},
	dimSkew: {
		only:   func(in Intensity) Intensity { return Intensity{Skew: in.Skew} },
		format: func(in Intensity) string { return fmt.Sprintf("(%+d)", in.Skew) },
		gen: func(rng *rand.Rand, lo, span float64) Intensity {
			off := int64(lo) + rng.Int63n(int64(span))
			if rng.Intn(2) == 0 {
				off = -off
			}
			return Intensity{Skew: off}
		},
		perturb: func(sc *Scenario, grow bool) {
			if grow {
				sc.Intensity.Skew *= 2
			} else {
				sc.Intensity.Skew /= 2
			}
			if sc.Intensity.Skew == 0 {
				sc.Intensity.Skew = 6 // below the probe cadence a skew is invisible
			}
		},
		shrink: func(sc *Scenario) bool {
			sc.Intensity.Skew /= 2
			return sc.Intensity.Skew != 0
		},
	},
}

// scale is the perturb-intensity step of the unsigned dimensions.
func scale(v uint64, grow bool) uint64 {
	if grow {
		return v*2 + 1
	}
	return v / 2
}

// halve is the shrinker's step: v/2, refused (v unchanged) when that is 0 —
// a step that "succeeds" in place forever would burn the whole budget.
func halve(v uint64) (uint64, bool) {
	if v/2 == 0 {
		return v, false
	}
	return v / 2, true
}
