package apps

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"strconv"
	"testing"

	"repro/internal/dsim"
	"repro/internal/inject"
	"repro/internal/scroll"
)

var update = flag.Bool("update", false, "rewrite the testdata fixtures from the code under test")

const payloadsGoldenPath = "testdata/payloads_prerefactor.json"

// payloadSeeds is the hand-written half of the hostile-payload corpus,
// shared by FuzzCorruptPayloadDecode and the payloads fixture: one
// well-formed payload per verb of every app, then the malformed ones —
// short, long, non-numeric, out of range, not text at all.
var payloadSeeds = []string{
	// The three payloads that panicked a Registry app before this fixture
	// was first recorded (negative heap offsets), and the same hole upward.
	"put|k-1|v", "repl|k-1|v|9", "credit|-1|5", "put|k2000|v",
	// A verb with its fields missing.
	"cand", "leader", "credit", "token", "ack", "put", "repl", "req", "get", "fill", "val",
	// bank
	"credit|1|5", "credit|3|-7", "credit|x|5", "credit|1|99999999999999999999", "credit|1|5|6",
	// tokenring
	"token|2", "token|18446744073709551615", "token|-1", "ack|2", "ack|1", "token|2|3", "tok|2",
	// kvstore
	"put|k0|v1", "put|k12|v1", "put|kx|v1", "put||", "repl|k0|v9|7", "repl|k0|v9|x", "repl|k0|v9|0", "repl|k0|v9",
	// election
	"cand|0", "cand|4", "cand|9", "cand|-3", "cand|x", "cand|2|x", "leader|0", "leader|4", "leader|77", "leader|",
	// twopc
	"prepare", "yes", "no", "commit", "abort", "commit|", "Yes",
	// mservice
	"req|3", "req|0", "req|", "req|1|2", "ok|0", "ok|99", "fail|", "fail|1", "|3",
	// cacheaside
	"put|k1|v7", "wack|k0|18446744073709551615", "wack|k0|x", "inv|k1|2", "inv|k1|x", "invack|k0|1",
	"invack|k0|x", "fetch|k0|0", "fetch|k0", "fill|k0|v0|notanumber|0", "fill|k0|v0|3|0", "fill|k9|v0|3|77",
	"get|k0|0|0", "get|k0|x|0", "get|k0|0", "val|k1|v7|3|2", "val|k1|v7|x|0", "val|k0|v0|0|0",
	// not a protocol message at all
	"", "|", "||||||", "\xff\x00|\xfe||9", "credit|1|5\x00",
}

// goldenInjector delivers one payload to one process twice: as the run
// starts, when the receiver's state is still empty, and again mid-run.
type goldenInjector struct {
	payload []byte
	target  string
	again   uint64
}

func (g *goldenInjector) State() any { v := 0; return &v }
func (g *goldenInjector) Init(ctx dsim.Context) {
	ctx.Send(g.target, g.payload)
	ctx.SetTimer("again", g.again)
}
func (g *goldenInjector) OnMessage(dsim.Context, string, []byte) {}
func (g *goldenInjector) OnTimer(ctx dsim.Context, name string) {
	ctx.Send(g.target, g.payload)
}
func (g *goldenInjector) OnRollback(dsim.Context, dsim.RollbackInfo) {}

const goldenInjectorName = "zz-inject"

// goldenRunner keeps one simulation across runs (dsim.Sim.Reset), dropping
// it when a handler panics mid-step.
type goldenRunner struct {
	sim *dsim.Sim
	fp  scroll.Fingerprinter
}

// run runs one variant of spec on seed 1 with payload injected into target
// (no injector when target is empty) and returns the simulation, valid
// until the next run, or nil if a handler panicked.
func (r *goldenRunner) run(spec AppSpec, buggy bool, target string, payload []byte) (s *dsim.Sim) {
	defer func() {
		if recover() != nil {
			r.sim, s = nil, nil
		}
	}()
	ms := spec.Make(buggy)
	if target != "" {
		ms[goldenInjectorName] = &goldenInjector{payload: payload, target: target, again: spec.Horizon / 2}
	}
	cfg := spec.Config(buggy)
	cfg.Seed = 1
	cfg.MaxSteps = 600
	if r.sim == nil {
		r.sim = dsim.New(cfg)
	} else {
		r.sim.Reset(cfg)
	}
	for _, id := range sortedProcs(ms) {
		r.sim.AddProcess(id, ms[id])
	}
	r.sim.Run()
	return r.sim
}

func sortedProcs(ms map[string]dsim.Machine) []string {
	ids := make([]string, 0, len(ms))
	for id := range ms {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// outcome is what a run amounted to: a short hash over the merged
// scroll digest and every machine's final state.
func (r *goldenRunner) outcome(s *dsim.Sim) string {
	if s == nil {
		return "panic"
	}
	h := sha256.New()
	digest, _ := r.fp.Fingerprint(s.Scrolls(), 8)
	fmt.Fprintln(h, digest)
	for _, id := range s.Procs() {
		fmt.Fprintf(h, "%s %s\n", id, s.MachineState(id))
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:6])
}

// verbOf is the payload up to its first separator.
func verbOf(p []byte) string {
	verb, _, _ := cut(p)
	return string(verb)
}

// goldenCorpus is payloadSeeds plus two seeded single-byte inject.Mutate
// corruptions of the first three distinct payloads of every verb the
// fault-free seed-1 run sends.
func goldenCorpus(base *dsim.Sim) [][]byte {
	var corpus [][]byte
	for _, p := range payloadSeeds {
		corpus = append(corpus, []byte(p))
	}
	rng := rand.New(rand.NewSource(22))
	seen := map[string]bool{}
	perVerb := map[string]int{}
	for _, rec := range base.MergedScroll() {
		if rec.Kind != scroll.KindSend || seen[string(rec.Payload)] || perVerb[verbOf(rec.Payload)] == 3 {
			continue
		}
		seen[string(rec.Payload)] = true
		perVerb[verbOf(rec.Payload)]++
		for i := 0; i < 2 && len(rec.Payload) > 0; i++ {
			m := bytes.Clone(rec.Payload)
			inject.Mutate(rng, m)
			corpus = append(corpus, m)
		}
	}
	return corpus
}

// buildPayloadsGolden maps "app/variant" to one line per corpus payload:
// the outcome of injecting it into each of the app's processes in turn.
func buildPayloadsGolden(t *testing.T) map[string][]string {
	g := map[string][]string{}
	var r goldenRunner
	for _, spec := range append(Registry(), Zoo()...) {
		for _, buggy := range []bool{false, true} {
			key := spec.Name + "/correct"
			if buggy {
				key = spec.Name + "/buggy"
			}
			base := r.run(spec, buggy, "", nil)
			if base == nil {
				t.Fatalf("%s: the fault-free run panicked", key)
			}
			procs := base.Procs()
			g[key] = append(g[key], "baseline: "+r.outcome(base))
			for _, payload := range goldenCorpus(base) {
				line := strconv.Quote(string(payload)) + ":"
				for _, target := range procs {
					s := r.run(spec, buggy, target, payload)
					line += " " + target + "=" + r.outcome(s)
				}
				g[key] = append(g[key], line)
			}
		}
	}
	return g
}

// TestPayloadsPreRefactorByteIdentity holds what every handler does with a
// hostile payload to the fixture recorded (go test -run TestPayloadsPreRefactor
// -update ./internal/apps) while handlers still parsed with strings.Split
// and formatted with fmt.Sprintf; since then only rows that read "panic"
// have moved. Re-record only when a handler's behaviour on some payload
// changes on purpose.
func TestPayloadsPreRefactorByteIdentity(t *testing.T) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	enc.SetIndent("", " ")
	if err := enc.Encode(buildPayloadsGolden(t)); err != nil {
		t.Fatal(err)
	}
	out := buf.Bytes()
	if n := bytes.Count(out, []byte("=panic")); n != 0 {
		t.Errorf("%d outcomes read panic: a hostile payload is a dropped message, never a crash", n)
	}
	if *update {
		if err := os.WriteFile(payloadsGoldenPath, out, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", payloadsGoldenPath)
		return
	}
	want, err := os.ReadFile(payloadsGoldenPath)
	if err != nil {
		t.Fatalf("missing fixture (record it with -update): %v", err)
	}
	if bytes.Equal(out, want) {
		return
	}
	gotLines, wantLines := bytes.Split(out, []byte("\n")), bytes.Split(want, []byte("\n"))
	diffs := 0
	for i := 0; i < len(gotLines) && i < len(wantLines); i++ {
		if !bytes.Equal(gotLines[i], wantLines[i]) {
			if diffs++; diffs <= 10 {
				t.Errorf("line %d:\n got  %s\n want %s", i+1, gotLines[i], wantLines[i])
			}
		}
	}
	t.Fatalf("%s: %d lines differ (%d lines, fixture has %d)", payloadsGoldenPath, diffs, len(gotLines), len(wantLines))
}
