package chaos

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"

	"repro/internal/fault"
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
			seen := make(map[int]bool, len(sc.Targets))
			for _, t := range sc.Targets {
				if t >= 0 && t <= maxTargetIdx && !seen[t] {
					seen[t] = true
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

// DecodeSchedule interprets arbitrary bytes as a fault schedule — the entry
// point fuzzing and corpus seeding share. JSON input (as emitted for
// schedules inside shrinker artifacts) is decoded structurally and every
// scenario kind is validated: an unknown or non-scenario kind is a
// descriptive error, not a silently dropped no-op. Anything else is
// consumed as a compact binary form, ten bytes per scenario, whose kind
// byte always maps onto a matrix kind. The result is not yet normalized:
// callers sanitize with Normalize.
func DecodeSchedule(data []byte) (Schedule, error) {
	var s Schedule
	if len(data) > 0 && (data[0] == '[' || data[0] == '{') {
		if err := json.Unmarshal(data, &s); err != nil {
			var a struct{ Schedule Schedule }
			if err2 := json.Unmarshal(data, &a); err2 != nil {
				return nil, fmt.Errorf("chaos: schedule JSON: %w", err)
			}
			s = a.Schedule
		}
		for i, sc := range s {
			if !rowOf(sc.Kind).scenario {
				var optIn []string
				for k, row := range kinds {
					if row.scenario && !row.matrix {
						optIn = append(optIn, fault.Kind(k).String())
					}
				}
				return nil, fmt.Errorf("chaos: scenario %d has unknown fault kind %v (valid: matrix kinds plus %s)",
					i, sc.Kind, strings.Join(optIn, ", "))
			}
		}
		return s, nil
	}
	const per = 10
	for len(data) >= per && len(s) < MaxScheduleLen {
		b := data[:per]
		data = data[per:]
		sc := Scenario{Kind: MatrixKinds[int(b[0])%len(MatrixKinds)]}
		from := uint64(b[1]) | uint64(b[2])<<8
		length := uint64(b[3])
		sc.Window = Window{From: from, To: from + length}
		for i := 0; i < 8; i++ {
			if b[4]&(1<<i) != 0 {
				sc.Targets = append(sc.Targets, i)
			}
		}
		sc.Intensity = dims[rowOf(sc.Kind).dim].only(Intensity{
			Extra: uint64(b[5]), Jitter: uint64(b[6]), Prob: float64(b[5]) / 255, Skew: int64(b[5]) - 128})
		s = append(s, sc)
	}
	return s, nil
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

// Mutate derives one candidate schedule from a corpus parent (and, for
// splicing, a donor — any other corpus entry) with an operator drawn at
// static weights favoring composition: multi-fault schedules are the
// region the matrix's single-scenario generator never samples, so they are
// where coverage feedback pays. Every random draw flows through rng, so a
// seeded search replays its entire mutation sequence deterministically.
// The returned schedule is normalized and never empty; the second return
// names the operator applied. The guided search picks operators itself
// (adaptively) and calls MutateOp directly.
func Mutate(rng *rand.Rand, parent, donor Schedule, procs []string, crashable []int, horizon uint64) (Schedule, string) {
	weights := map[string]int{
		OpAddScenario: 3, OpSplice: 3, OpRetarget: 2,
		OpPerturbWindow: 2, OpPerturbIntensity: 2, OpDropScenario: 1,
	}
	op := PickOp(rng, weights, parent, donor)
	return MutateOp(rng, op, parent, donor, procs, crashable, horizon), op
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

// MutateOp applies one named operator. See Mutate.
func MutateOp(rng *rand.Rand, op string, parent, donor Schedule, procs []string, crashable []int, horizon uint64) Schedule {
	if horizon < 40 {
		horizon = 40
	}
	cand := append(Schedule{}, parent...)
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
