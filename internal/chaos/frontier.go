package chaos

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math/rand"
	"slices"
	"strings"

	"repro/internal/apps"
)

// Strategy selects how a Frontier generates candidates.
type Strategy string

const (
	// StrategyGuided mutates corpus entries under coverage feedback —
	// the AFL-style loop Search runs.
	StrategyGuided Strategy = "guided"
	// StrategyRandom replays the matrix's seeded single-scenario
	// generation at the same budget — the RandomSearch baseline.
	StrategyRandom Strategy = "random"
)

// Candidate is one schedule emitted by a Frontier, tagged with its global
// execution index (the admission order) and the operator that produced it.
// The parent corpus index stays private: it only feeds the frontier's own
// novelty accounting when the candidate is admitted back.
type Candidate struct {
	Index    int
	Schedule Schedule
	Op       string
	parent   int // corpus index mutated, -1 for seeds and random candidates
}

// ShrinkFunc minimizes one failing candidate into a SearchFailure. The
// frontier invokes it exactly once per distinct violation signature, in
// admission order, so any deterministic implementation — the in-process
// LocalShrinker or a fleet coordinator leasing the job to a remote worker —
// yields byte-identical reports.
type ShrinkFunc func(sched Schedule, res *RunResult) *SearchFailure

// LocalShrinker returns the in-process shrink delegate: delta-debug the
// failing schedule on the given runner (a negative budget skips shrinking)
// and capture the replayable artifact. Search uses it directly; fleet
// workers run the identical code for shrink leases, which is what makes a
// remotely shrunk artifact byte-identical to a locally shrunk one.
func LocalShrinker(runner Runner, budget int) ShrinkFunc {
	return func(sched Schedule, r *RunResult) *SearchFailure {
		if budget < 0 {
			return &SearchFailure{
				Schedule: sched, Violations: r.Violations, Shrunk: sched,
				Artifact: NewArtifact(runner, sched, r),
			}
		}
		fails := func(s Schedule) bool {
			return len(runner.Run(s).Violations) > 0
		}
		sr := Shrink(sched, fails, budget)
		shrunkRes := runner.Run(sr.Schedule)
		return &SearchFailure{
			Schedule:   sched,
			Violations: r.Violations,
			Shrunk:     sr.Schedule,
			ShrinkRuns: sr.Runs,
			Minimal:    sr.Minimal,
			Artifact:   NewArtifact(runner, sr.Schedule, shrunkRes),
		}
	}
}

// Frontier is the seeded candidate stream plus corpus-admission state one
// application's search advances through. It is the single implementation
// behind Search, RandomSearch and the fleet coordinator: candidates are
// generated in batches from one seeded rng, evaluation happens elsewhere
// (a local worker pool or remote fleet workers — the frontier never runs a
// schedule itself except through its shrink delegate), and results are fed
// back with Admit in candidate order. Because every random draw happens
// inside NextBatch and admission is sequential, the trajectory — and the
// final AppSearch — depends only on (spec, cfg, strategy), never on who
// evaluated the candidates or how fast.
//
// The protocol is strict: call NextBatch, Admit every returned candidate in
// index order, repeat until NextBatch returns an empty batch, then Finish.
type Frontier struct {
	strategy  Strategy
	cfg       SearchConfig
	spec      apps.AppSpec
	runner    Runner
	procs     []string
	crashable []int
	shrink    ShrinkFunc

	res       *AppSearch
	seenShape map[string]bool
	seenDig   map[string]bool
	failSeen  map[string]bool

	// guided-only stream state
	rng      *rand.Rand
	tried    map[string]bool
	opCredit map[string]int
	seeded   bool

	issued int // candidates handed out so far; equals the next global index
}

// NewFrontier builds the candidate stream for one application.
// cfg.Workers is ignored here — evaluation parallelism belongs to whoever
// drives the frontier.
func NewFrontier(spec apps.AppSpec, cfg SearchConfig, strategy Strategy) *Frontier {
	cfg = cfg.withDefaults()
	f := &Frontier{
		strategy: strategy,
		cfg:      cfg,
		spec:     spec,
		runner: Runner{Spec: spec, Buggy: cfg.Buggy, Seed: cfg.Seed, Probe: true,
			CheckEvery: cfg.CheckEvery},
		res:       &AppSearch{App: spec.Name},
		seenShape: make(map[string]bool),
		seenDig:   make(map[string]bool),
		failSeen:  make(map[string]bool),
	}
	f.procs = f.runner.Procs()
	f.crashable = f.runner.Crashable()
	f.shrink = LocalShrinker(f.runner, cfg.ShrinkBudget)
	if strategy == StrategyGuided {
		f.rng = searchRng(cfg.Seed, spec.Name)
		f.tried = make(map[string]bool)
		f.opCredit = make(map[string]int, len(MutationOps))
		for _, op := range MutationOps {
			f.opCredit[op] = 1
		}
	}
	return f
}

// Runner returns the runner candidates must be evaluated on. A remote
// evaluator reconstructs an identical one from the lease parameters (app,
// buggy, seed, probe, check-every); byte-identity of the whole report
// depends on that match.
func (f *Frontier) Runner() Runner { return f.runner }

// SetShrinker replaces the shrink delegate (default: LocalShrinker on this
// frontier's runner). The fleet coordinator installs a delegate that leases
// the job to a worker.
func (f *Frontier) SetShrinker(fn ShrinkFunc) { f.shrink = fn }

// Budget returns the configured per-application execution budget.
func (f *Frontier) Budget() int { return f.cfg.Budget }

// Corpus exposes the admitted corpus so far. The returned slice is the
// frontier's own — callers must not mutate it; the fleet coordinator reads
// it to journal entries as they are admitted.
func (f *Frontier) Corpus() []CorpusEntry { return f.res.Corpus }

// mark dedups candidates by canonical JSON: re-running a schedule the
// search already evaluated can never reach new coverage, so duplicate
// mutants are regenerated instead of burning budget.
func (f *Frontier) mark(s Schedule) bool {
	key, _ := json.Marshal(s)
	if f.tried[string(key)] {
		return false
	}
	f.tried[string(key)] = true
	return true
}

// NextBatch generates the next candidate batch. It must only be called
// once every candidate of the previous batch has been admitted — corpus
// state steers generation. An empty batch means the budget is exhausted.
func (f *Frontier) NextBatch() []Candidate {
	if f.strategy == StrategyRandom {
		return f.nextRandom()
	}
	if !f.seeded {
		return f.seedBatch()
	}
	if f.res.Executions >= f.cfg.Budget {
		return nil
	}
	n := min(searchBatch, f.cfg.Budget-f.res.Executions)
	batch := make([]Candidate, 0, n)
	for len(batch) < n {
		var cand Schedule
		var pi int
		op := ""
		for try := 0; try < 8; try++ { // retry duplicate mutants, bounded
			pi = pickParent(f.rng, f.res.Corpus)
			parent := f.res.Corpus[pi].Schedule
			donor := f.res.Corpus[f.rng.Intn(len(f.res.Corpus))].Schedule
			op = PickOp(f.rng, f.opCredit, parent, donor)
			cand = MutateOp(f.rng, op, parent, donor, f.procs, f.crashable, f.spec.Horizon)
			if f.mark(cand) {
				break
			}
		}
		batch = append(batch, Candidate{Index: f.issued + len(batch), Schedule: cand, Op: op, parent: pi})
	}
	f.issued += len(batch)
	return batch
}

// seedBatch emits the guided search's opening batch: the fault-free
// baseline plus one generated scenario per matrix kind — the exact cells
// the random matrix would start from.
func (f *Frontier) seedBatch() []Candidate {
	f.seeded = true
	var batch []Candidate
	add := func(s Schedule, op string) {
		if f.res.Executions+len(batch) < f.cfg.Budget && f.mark(s) {
			batch = append(batch, Candidate{Index: f.issued + len(batch), Schedule: s, Op: op, parent: -1})
		}
	}
	add(nil, "seed:baseline")
	// Opt-in kinds come after the matrix seeds so an empty ExtraKinds leaves
	// the stream — and every pinned fixture — byte-identical.
	for _, kind := range slices.Concat(MatrixKinds, f.cfg.ExtraKinds) {
		add(Schedule{Generate(kind, f.procs, f.crashable, f.spec.Horizon, f.cfg.Seed)}.Normalize(),
			"seed:"+kind.String())
	}
	f.issued += len(batch)
	return batch
}

// nextRandom emits the matrix's seeded generation at the same budget:
// seeds cfg.Seed, cfg.Seed+1, ... sweep the fault kinds in matrix order.
func (f *Frontier) nextRandom() []Candidate {
	done := f.res.Executions
	if done >= f.cfg.Budget {
		return nil
	}
	n := min(searchBatch, f.cfg.Budget-done)
	batch := make([]Candidate, 0, n)
	for len(batch) < n {
		i := done + len(batch) // global candidate index: kinds × seeds in matrix order
		kind := MatrixKinds[i%len(MatrixKinds)]
		seed := f.cfg.Seed + int64(i/len(MatrixKinds))
		batch = append(batch, Candidate{
			Index:    i,
			Schedule: Schedule{Generate(kind, f.procs, f.crashable, f.spec.Horizon, seed)}.Normalize(),
			Op:       "random:" + kind.String(),
			parent:   -1,
		})
	}
	f.issued += len(batch)
	return batch
}

// Admit feeds one evaluated candidate back, in candidate-index order:
// fingerprint bookkeeping, corpus admission on a new shape, failure capture
// through the shrink delegate, and — for the guided strategy — the adaptive
// operator-credit and parent-novelty updates that steer the next batch.
func (f *Frontier) Admit(c Candidate, r *RunResult) {
	if f.strategy != StrategyGuided {
		f.admit(c.Schedule, c.Op, r)
		return
	}
	before := len(f.res.Corpus)
	dupDigest := f.seenDig[r.Digest]
	f.admit(c.Schedule, c.Op, r)
	switch {
	case len(f.res.Corpus) > before: // admitted: credit op and parent
		f.opCredit[c.Op]++
		if c.parent >= 0 {
			f.res.Corpus[c.parent].Novelty++
		}
	case dupDigest: // behavioral no-op: back off this operator
		f.opCredit[c.Op] = max(1, f.opCredit[c.Op]-1)
	}
}

// admit is the strategy-independent half of Admit.
func (f *Frontier) admit(sched Schedule, op string, r *RunResult) {
	res := f.res
	res.Executions++
	f.seenDig[r.Digest] = true
	res.DistinctDigests = len(f.seenDig)
	if !f.seenShape[r.Shape] {
		f.seenShape[r.Shape] = true
		res.Corpus = append(res.Corpus, CorpusEntry{
			Schedule:    sched,
			Fingerprint: Fingerprint{Digest: r.Digest, Shape: r.Shape},
			FoundAt:     res.Executions,
			Op:          op,
		})
	}
	res.DistinctShapes = len(f.seenShape)
	if n := len(res.Corpus); n > 0 && res.Corpus[n-1].FoundAt == res.Executions {
		res.Growth = append(res.Growth, GrowthPoint{
			Execs: res.Executions, Corpus: n,
			Shapes: res.DistinctShapes, Digests: res.DistinctDigests,
		})
	}

	if len(r.Violations) == 0 {
		return
	}
	sig := strings.Join(r.Violations, "|")
	if f.failSeen[sig] {
		return
	}
	f.failSeen[sig] = true
	fail := f.shrink(sched, r)
	res.ShrinkRuns += fail.ShrinkRuns
	res.Failures = append(res.Failures, fail)
}

// Finish closes the growth curve with a final sample and returns the
// application's search outcome.
func (f *Frontier) Finish() *AppSearch {
	res := f.res
	if n := len(res.Growth); n == 0 || res.Growth[n-1].Execs != res.Executions {
		res.Growth = append(res.Growth, GrowthPoint{
			Execs: res.Executions, Corpus: len(res.Corpus),
			Shapes: res.DistinctShapes, Digests: res.DistinctDigests,
		})
	}
	return res
}

// searchRng derives the per-app mutation rng from the master seed and the
// application name, so adding an app to the sweep never perturbs another
// app's search trajectory.
func searchRng(seed int64, app string) *rand.Rand {
	h := fnv.New64a()
	fmt.Fprintf(h, "search|%s", app)
	return rand.New(rand.NewSource(seed ^ int64(h.Sum64())))
}

// pickParent selects the index of the corpus entry to mutate: half the
// time one of the most recent admissions (the AFL "favor the frontier"
// heuristic), half the time weighted by how much novelty an entry's
// mutants have produced so far.
func pickParent(rng *rand.Rand, corpus []CorpusEntry) int {
	if len(corpus) <= 1 {
		return 0
	}
	if recent := min(4, len(corpus)); rng.Intn(2) == 0 {
		return len(corpus) - 1 - rng.Intn(recent)
	}
	total := 0
	for i := range corpus {
		total += 1 + corpus[i].Novelty
	}
	pick := rng.Intn(total)
	for i := range corpus {
		w := 1 + corpus[i].Novelty
		if pick < w {
			return i
		}
		pick -= w
	}
	return len(corpus) - 1
}
