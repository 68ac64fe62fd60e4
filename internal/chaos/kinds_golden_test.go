package chaos

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"testing"

	"repro/internal/fault"
)

var update = flag.Bool("update", false, "rewrite testdata/kinds_prerefactor.json from the code under test")

const kindsGoldenPath = "testdata/kinds_prerefactor.json"

// kindsGolden is everything the per-kind code decides, frozen at the commit
// before the kind switches became descriptor rows: what each kind generates,
// prints and compiles to; how hostile input is normalized and decoded; which
// schedule every mutation operator derives; which candidates the shrinker
// tries. Keys are "kind/shape" or the operator name; values are one line
// per seed, step or candidate.
type kindsGolden struct {
	Generate     map[string][]string
	NonScenario  []string
	Normalize    map[string][]string
	DecodeBinary []string
	DecodeJSON   []string
	Mutate       map[string][]string
	Shrink       map[string][]string
}

// goldenShapes are the process lists the fixture generates against: a lone
// process that may not crash, a small cluster, a wide one. The clock probe is
// always last, as in every matrix cell.
var goldenShapes = []struct {
	name      string
	procs     []string
	crashable []int
	horizon   uint64
}{
	{"solo", []string{"a", ProbeName}, nil, 30},
	{"trio", []string{"a", "b", "c", ProbeName}, []int{0, 2}, 80},
	{"wide", []string{"n0", "n1", "n2", "n3", "n4", "n5", "n6", ProbeName}, []int{1, 3, 4, 6}, 200},
}

// scenarioKinds is every declared kind but Restart, in enum order.
func scenarioKinds() []fault.Kind {
	var out []fault.Kind
	for k := 0; k < fault.NumKinds; k++ {
		if fault.Kind(k) != fault.Restart {
			out = append(out, fault.Kind(k))
		}
	}
	return out
}

func compact(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func buildKindsGolden(t *testing.T) *kindsGolden {
	g := &kindsGolden{
		Generate:  map[string][]string{},
		Normalize: map[string][]string{},
		Mutate:    map[string][]string{},
		Shrink:    map[string][]string{},
	}
	trio := goldenShapes[1]

	// Generate, String and Compile: every scenario kind x shape x seed.
	for _, kind := range scenarioKinds() {
		for _, sh := range goldenShapes {
			key := kind.String() + "/" + sh.name
			for seed := int64(1); seed <= 16; seed++ {
				sc := Generate(kind, sh.procs, sh.crashable, sh.horizon, seed)
				g.Generate[key] = append(g.Generate[key], fmt.Sprintf("seed %d: %s | %s | %s",
					seed, compact(t, sc), sc, compact(t, Schedule{sc}.Compile(sh.procs))))
			}
		}
	}
	// What the same entry points do with a kind that is not a scenario kind.
	for _, kind := range []fault.Kind{fault.Restart, fault.Kind(fault.NumKinds), -1} {
		for seed := int64(1); seed <= 2; seed++ {
			sc := Generate(kind, trio.procs, trio.crashable, trio.horizon, seed)
			g.NonScenario = append(g.NonScenario, fmt.Sprintf("%v seed %d: %s | %s | %s",
				kind, seed, compact(t, sc), sc, compact(t, Schedule{sc}.Compile(trio.procs))))
		}
	}

	// Normalize of hostile scenarios, one at a time so the length cap does
	// not hide any, then one over-long schedule of every kind in turn.
	hostileTargets := make([]int, 300)
	for i := range hostileTargets {
		hostileTargets[i] = (i*7)%320 - 12
	}
	hostile := []Scenario{
		{Window: Window{From: 90, To: 10}, Targets: hostileTargets,
			Intensity: Intensity{Extra: 1 << 40, Jitter: 1 << 41, Prob: math.NaN(), Skew: 1 << 40}},
		{Window: Window{From: 1 << 40, To: 1 << 50}, Targets: []int{-1, 256, 1000},
			Intensity: Intensity{Extra: 1<<20 + 1, Jitter: 1<<20 + 1, Prob: -0.5, Skew: -(1 << 40)}},
		{Window: Window{From: 3, To: 3}, Intensity: Intensity{Prob: 1.5, Extra: 1, Jitter: 2, Skew: 1<<20 + 1}},
		{Window: Window{From: 0, To: 1 << 31}, Targets: []int{2, 2, 1}, Intensity: Intensity{Prob: math.Inf(1)}},
		{Window: Window{From: 7, To: 9}, Targets: []int{0}, Intensity: Intensity{Prob: math.Inf(-1), Skew: -(1<<20 + 1)}},
		{Window: Window{From: 10, To: 60}, Targets: []int{1, 0}, Intensity: Intensity{Extra: 7, Jitter: 9, Prob: 0.25, Skew: -3}},
	}
	var long Schedule
	for k := -1; k <= fault.NumKinds; k++ {
		kind := fault.Kind(k)
		for _, sc := range hostile {
			sc.Kind = kind
			g.Normalize[kind.String()] = append(g.Normalize[kind.String()], compact(t, Schedule{sc}.Normalize()))
		}
		sc := hostile[len(hostile)-1]
		sc.Kind = kind
		long = append(long, sc)
	}
	g.Normalize["long"] = []string{compact(t, long.Normalize())}

	// Binary DecodeSchedule: fixed ten-byte blocks over every kind byte
	// residue and a few high ones, then all of them at once (length cap,
	// trailing partial block).
	var all []byte
	for _, kb := range []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 127, 128, 255} {
		blk := []byte{byte(kb), byte(kb*3 + 1), byte(kb & 1), byte(17 + kb), byte(0b1011_0101 ^ kb),
			byte(200 - kb*9), byte(33 + kb), 1, 2, 3}
		dec, err := DecodeSchedule(blk)
		g.DecodeBinary = append(g.DecodeBinary, fmt.Sprintf("%v: %s | %s | %v", blk, compact(t, dec), dec, err))
		all = append(all, blk...)
	}
	dec, err := DecodeSchedule(append(all[3:], 9, 9, 9))
	g.DecodeBinary = append(g.DecodeBinary, fmt.Sprintf("all: %s | %v", compact(t, dec), err))

	// JSON DecodeSchedule: every kind value, both accepted forms, and the
	// rejections with their error text.
	for k := -1; k <= fault.NumKinds; k++ {
		in := fmt.Sprintf(`[{"Kind":%d,"Targets":[0],"Window":{"From":1,"To":9},"Intensity":{"Extra":3,"Jitter":4,"Prob":0.5,"Skew":-7}}]`, k)
		dec, err := DecodeSchedule([]byte(in))
		g.DecodeJSON = append(g.DecodeJSON, fmt.Sprintf("%d: %s | %v", k, compact(t, dec), err))
	}
	for _, in := range []string{
		`{"App":"bank","Schedule":[{"Kind":9,"Window":{"From":1,"To":2},"Intensity":{"Prob":0.5}},{"Kind":3,"Window":{"From":1,"To":2}}]}`,
		`{"Schedule":[{"Kind":0,"Window":{"From":1,"To":2}},{"Kind":1,"Window":{"From":1,"To":2}}]}`,
		`[{"Kind":`,
		`{}`,
	} {
		dec, err := DecodeSchedule([]byte(in))
		g.DecodeJSON = append(g.DecodeJSON, fmt.Sprintf("%s: %s | %v", in, compact(t, dec), err))
	}

	// MutateOp: 200 seeded steps per operator. Parents and donors cycle
	// through every scenario kind so each operator meets each kind; each
	// line is the derived schedule as it prints, and the last line hashes
	// the exact JSON of all 200 (String rounds probabilities).
	cycle := scenarioKinds()
	for _, op := range MutationOps {
		rng := rand.New(rand.NewSource(42))
		h := sha256.New()
		for step := 0; step < 200; step++ {
			sh := goldenShapes[(step/2)%len(goldenShapes)]
			var parent, donor Schedule
			for j := 0; j <= step%3; j++ {
				parent = append(parent, Generate(cycle[(step+j*3)%len(cycle)], sh.procs, sh.crashable, sh.horizon, int64(step)))
				donor = append(donor, Generate(cycle[(step+j*3+5)%len(cycle)], sh.procs, sh.crashable, sh.horizon, int64(step+1000)))
			}
			out := MutateOp(rng, op, parent, donor, sh.procs, sh.crashable, sh.horizon)
			fmt.Fprintln(h, compact(t, out))
			g.Mutate[op] = append(g.Mutate[op], out.String())
		}
		g.Mutate[op] = append(g.Mutate[op], fmt.Sprintf("sha256 of the JSON lines: %x", h.Sum(nil)))
	}
	// A parent holding only a non-scenario kind: the operator runs, Normalize
	// drops the result, and the fallback generates a fresh matrix scenario.
	rng := rand.New(rand.NewSource(43))
	for _, op := range []string{OpPerturbIntensity, OpPerturbWindow, OpRetarget} {
		for _, kind := range []fault.Kind{fault.Restart, fault.Kind(fault.NumKinds)} {
			out := MutateOp(rng, op, Schedule{{Kind: kind, Window: Window{From: 3, To: 9}}}, nil, trio.procs, trio.crashable, trio.horizon)
			g.Mutate["non-scenario"] = append(g.Mutate["non-scenario"], fmt.Sprintf("%s %v: %s", op, kind, compact(t, out)))
		}
	}

	// Shrink: every candidate the shrinker tries, in order, against a stub
	// oracle that fails while the schedule is still "big enough" in every
	// attribute — so each halving sequence has accepted steps and a final
	// rejected one. One scenario per run keeps phase 1 out of the way.
	for _, kind := range append(scenarioKinds(), fault.Restart, fault.Kind(fault.NumKinds)) {
		sc := Generate(kind, goldenShapes[2].procs, goldenShapes[2].crashable, goldenShapes[2].horizon, 5)
		sc.Window.From += 40
		sc.Window.To += 90
		sc.Intensity.Extra *= 3
		sc.Intensity.Jitter *= 3
		sc.Intensity.Skew *= 3
		if len(sc.Targets) == 1 {
			sc.Targets = append(sc.Targets, 7)
		}
		key := kind.String()
		oracle := func(c Schedule) bool {
			g.Shrink[key] = append(g.Shrink[key], compact(t, c))
			if len(c) == 0 {
				return false
			}
			s := c[0]
			big := s.Window.Len() >= 5 && s.Window.From >= 6
			switch {
			case s.Intensity.Extra != 0:
				big = big && s.Intensity.Extra >= 4
			case s.Intensity.Jitter != 0:
				big = big && s.Intensity.Jitter >= 4
			case s.Intensity.Prob != 0:
				big = big && s.Intensity.Prob >= 0.11
			case s.Intensity.Skew != 0:
				big = big && (s.Intensity.Skew >= 4 || s.Intensity.Skew <= -4)
			}
			return big && len(s.Targets) >= 2
		}
		res := Shrink(Schedule{sc}, oracle, 200)
		g.Shrink[key] = append(g.Shrink[key], fmt.Sprintf("result: %s runs=%d minimal=%v", compact(t, res.Schedule), res.Runs, res.Minimal))
	}
	return g
}

// TestKindsPreRefactorByteIdentity holds every per-kind decision to the
// fixture recorded (go test -run TestKindsPreRefactor -update ./internal/chaos)
// while each was still an arm of a switch. Re-record only when a kind's
// behaviour changes on purpose.
func TestKindsPreRefactorByteIdentity(t *testing.T) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	enc.SetIndent("", " ")
	if err := enc.Encode(buildKindsGolden(t)); err != nil {
		t.Fatal(err)
	}
	out := buf.Bytes()
	if *update {
		if err := os.WriteFile(kindsGoldenPath, out, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", kindsGoldenPath)
		return
	}
	want, err := os.ReadFile(kindsGoldenPath)
	if err != nil {
		t.Fatalf("missing fixture (record it with -update): %v", err)
	}
	if bytes.Equal(out, want) {
		return
	}
	gotLines, wantLines := bytes.Split(out, []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := 0; i < len(gotLines) && i < len(wantLines); i++ {
		if !bytes.Equal(gotLines[i], wantLines[i]) {
			t.Fatalf("%s line %d:\n got %s\nwant %s", kindsGoldenPath, i+1, gotLines[i], wantLines[i])
		}
	}
	t.Fatalf("%s: %d lines, code under test produces %d", kindsGoldenPath, len(wantLines), len(gotLines))
}
