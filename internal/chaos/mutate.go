package chaos

import (
	"math"
	"math/rand"
	"sort"
)

// MaxScheduleLen caps a normalized schedule's scenario count. Mutation and
// fuzzing both sanitize through Normalize, so no candidate ever grows
// without bound.
const MaxScheduleLen = 8

// normalization clamps, chosen so any normalized schedule compiles into an
// injectable plan on any application shape without overflow or pathology.
const (
	maxWindowEdge = 1 << 30 // window edges stay comfortably inside uint64 math
	maxTargetIdx  = 255     // out-of-range targets are skipped at compile anyway
	maxTargets    = 16
	maxExtra      = 1 << 20 // injected latency bound
	maxSkewAbs    = 1 << 20
)

// clamped bounds every field: latencies and skew to their maxima, Prob to
// [0,1] with NaN scrubbed to 0.
func (in Intensity) clamped() Intensity {
	in.Extra = min(in.Extra, maxExtra)
	in.Jitter = min(in.Jitter, maxExtra)
	if math.IsNaN(in.Prob) {
		in.Prob = 0
	}
	in.Prob = max(0, min(in.Prob, 1))
	in.Skew = max(-maxSkewAbs, min(in.Skew, maxSkewAbs))
	return in
}

// Normalize returns the canonical, injectable form of the schedule:
//
//   - scenarios with non-scenario kinds are dropped;
//   - windows are ordered (To >= From) and clamped to sane bounds;
//   - target lists are deduplicated, sorted, bounded, and stripped of
//     out-of-range indices;
//   - intensities keep only the fields the kind uses, scrubbed of NaN/Inf
//     and clamped (Prob to [0,1]);
//   - the scenario count is capped at MaxScheduleLen.
//
// Normalize is idempotent, and a normalized schedule JSON round-trips
// byte-identically (see FuzzScheduleRoundTrip) — which makes it the
// sanitation step for both the mutation engine and arbitrary fuzz inputs.
func (s Schedule) Normalize() Schedule {
	out := make(Schedule, 0, min(len(s), MaxScheduleLen))
	for _, sc := range s {
		if len(out) == MaxScheduleLen {
			break
		}
		row := rowOf(sc.Kind)
		if !row.scenario {
			continue
		}
		n := Scenario{Kind: sc.Kind}

		// Window: order and clamp.
		from, to := sc.Window.From, sc.Window.To
		if to < from {
			from, to = to, from
		}
		if from > maxWindowEdge {
			from = maxWindowEdge
		}
		if to > maxWindowEdge {
			to = maxWindowEdge
		}
		n.Window = Window{From: from, To: to}

		// Targets: in-range, unique, sorted, bounded.
		if len(sc.Targets) > 0 {
			var seen [(maxTargetIdx + 64) / 64]uint64
			for _, t := range sc.Targets {
				if t >= 0 && t <= maxTargetIdx && seen[t>>6]&(1<<(t&63)) == 0 {
					seen[t>>6] |= 1 << (t & 63)
					n.Targets = append(n.Targets, t)
				}
			}
			sort.Ints(n.Targets)
			if len(n.Targets) > maxTargets {
				n.Targets = n.Targets[:maxTargets]
			}
			if len(n.Targets) == 0 {
				n.Targets = nil
			}
		}

		// Intensity: only the kind's fields, clamped.
		n.Intensity = dims[row.dim].only(sc.Intensity.clamped())
		out = append(out, n)
	}
	if len(out) == 0 {
		return nil
	}
	return out
}

// Mutation operator names, as recorded in CorpusEntry.Op.
const (
	OpPerturbWindow    = "perturb-window"
	OpPerturbIntensity = "perturb-intensity"
	OpRetarget         = "retarget"
	OpAddScenario      = "add-scenario"
	OpDropScenario     = "drop-scenario"
	OpSplice           = "splice"
)

// MutationOps lists every operator, in the order adaptive op scheduling
// reports them.
var MutationOps = []string{
	OpPerturbWindow, OpPerturbIntensity, OpRetarget,
	OpAddScenario, OpDropScenario, OpSplice,
}

// PickOp draws a mutation operator by weight, skipping operators that are
// degenerate for the given parent/donor (dropping from a near-empty
// schedule, splicing without a donor, mutating an empty parent).
func PickOp(rng *rand.Rand, weights map[string]int, parent, donor Schedule) string {
	usable := func(op string) bool {
		switch {
		case len(parent) == 0:
			return op == OpAddScenario
		case op == OpDropScenario:
			return len(parent) >= 2
		case op == OpSplice:
			return len(donor) > 0
		}
		return true
	}
	total := 0
	for _, op := range MutationOps {
		if usable(op) {
			total += max(weights[op], 1)
		}
	}
	if total == 0 {
		return OpAddScenario
	}
	pick := rng.Intn(total)
	for _, op := range MutationOps {
		if !usable(op) {
			continue
		}
		w := max(weights[op], 1)
		if pick < w {
			return op
		}
		pick -= w
	}
	return OpAddScenario
}

// MutateOp applies one named operator to a corpus parent (and, for splicing,
// a donor — any other corpus entry). Every random draw flows through rng, so
// a seeded search replays its entire mutation sequence deterministically.
// The returned schedule is normalized and never empty.
func MutateOp(rng *rand.Rand, op string, parent, donor Schedule, procs []string, crashable []int, horizon uint64) Schedule {
	if horizon < 40 {
		horizon = 40
	}
	// cand is scratch: Normalize copies what it keeps. Only a splice can
	// outgrow the buffer.
	var buf [MaxScheduleLen + 1]Scenario
	cand := append(Schedule(buf[:0]), parent...)
	if len(cand) == 0 {
		op = OpAddScenario
	}

	switch op {
	case OpPerturbWindow:
		i := rng.Intn(len(cand))
		sc := cand[i]
		span := int64(horizon/4) + 1
		shift := rng.Int63n(2*span+1) - span
		from := int64(sc.Window.From) + shift
		if from < 0 {
			from = 0
		}
		if from > 2*int64(horizon) {
			from = 2 * int64(horizon) // far past quiescence a window is a no-op
		}
		length := sc.Window.Len()
		switch rng.Intn(3) {
		case 0:
			length /= 2
		case 1:
			length = length*2 + 1
		}
		if length == 0 {
			length = 1
		}
		sc.Window = Window{From: uint64(from), To: uint64(from) + length}
		cand[i] = sc
	case OpPerturbIntensity:
		i := rng.Intn(len(cand))
		sc := cand[i]
		dims[rowOf(sc.Kind).dim].perturb(&sc, rng.Intn(2) == 0)
		cand[i] = sc
	case OpRetarget:
		i := rng.Intn(len(cand))
		sc := cand[i]
		sc.Targets = pickTargets(rng, rowOf(sc.Kind).targets, procs, crashable)
		cand[i] = sc
	case OpAddScenario:
		kind := MatrixKinds[rng.Intn(len(MatrixKinds))]
		cand = append(cand, Generate(kind, procs, crashable, horizon, rng.Int63()))
	case OpDropScenario:
		i := rng.Intn(len(cand))
		cand = append(cand[:i], cand[i+1:]...)
	case OpSplice:
		i := rng.Intn(len(cand) + 1)
		j := rng.Intn(len(donor))
		cand = append(append(Schedule{}, cand[:i]...), donor[j:]...)
	}
	out := cand.Normalize()
	if len(out) == 0 {
		kind := MatrixKinds[rng.Intn(len(MatrixKinds))]
		out = Schedule{Generate(kind, procs, crashable, horizon, rng.Int63())}.Normalize()
	}
	return out
}

// pickTargets draws a target set by a kind's targetPolicy — the single
// implementation Generate and the retarget mutation share.
func pickTargets(rng *rand.Rand, policy targetPolicy, procs []string, crashable []int) []int {
	n := len(procs) - 1 // exclude the trailing clock probe
	if n < 1 {
		n = 1
	}
	subset := func(max int) []int {
		if max < 1 {
			max = 1
		}
		k := 1 + rng.Intn(min(max, n))
		perm := rng.Perm(n)[:k]
		sort.Ints(perm)
		return perm
	}
	switch policy {
	case targetOneCrashable:
		if len(crashable) == 0 {
			return nil
		}
		return []int{crashable[rng.Intn(len(crashable))]}
	case targetProbe:
		return []int{len(procs) - 1}
	case targetOneApp:
		return []int{rng.Intn(n)}
	case targetLeaveOneOut:
		return subset(len(procs) - 2)
	default:
		return subset(len(procs))
	}
}
