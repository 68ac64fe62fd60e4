package chaos

import (
	"sync"
	"sync/atomic"

	"repro/internal/apps"
	"repro/internal/fault"
)

// Fingerprint is one run's behavioral coverage signature: the exact merged
// scroll digest plus the coarser event-shape signature (scroll.Shape over
// ShapeBucket Lamport windows). The digest distinguishes almost every
// schedule — on its own, coverage would be all singletons — so corpus
// admission is keyed on the shape, and the digest tracks how many exact
// behaviors a search touched along the way.
type Fingerprint struct {
	Digest string
	Shape  string
}

// SearchConfig parameterizes a coverage-guided schedule search (Search)
// and its blind-sampling baseline (RandomSearch). Zero values select the
// defaults: every registered application, correct variants, seed 1, a
// budget of 48 executions per application, sequential evaluation.
type SearchConfig struct {
	Apps  []apps.AppSpec
	Buggy bool  // search the seeded-bug variants instead of the correct ones
	Seed  int64 // master seed; the whole search replays from it
	// Budget bounds the schedule executions per application. Shrinking
	// failures costs extra executions, bounded separately by ShrinkBudget.
	Budget int
	// Workers evaluates candidate batches on a worker pool. The report is
	// byte-identical for any worker count: candidates are generated
	// sequentially from the seeded rng before evaluation, results land by
	// candidate index, and corpus admission replays in that order.
	Workers int
	// ShrinkBudget bounds the executions Shrink spends per distinct failure
	// (default 200). Negative disables shrinking: failures are still
	// captured as artifacts, unminimized.
	ShrinkBudget int
	// CheckEvery is the early-exit invariant cadence every candidate runs
	// with (see Runner.CheckEvery): a run halts as soon as an invariant is
	// violated, which is what makes step-bound-saturating workloads like
	// the seeded-bug tokenring affordable to search. 0 checks only at
	// quiescence. Shrinking and artifacts inherit the cadence, so every
	// captured failure replays byte-identically.
	CheckEvery uint64
	// ExtraKinds seeds the guided corpus with generated scenarios for fault
	// kinds beyond MatrixKinds (the opt-in scenario kinds). They are
	// appended after the matrix seeds, so the default empty list leaves every
	// existing search trajectory — and the pinned pre-refactor fixtures —
	// byte-identical.
	ExtraKinds []fault.Kind
}

// WithDefaults resolves the zero-value knobs to their documented defaults.
// Search and NewFrontier apply it internally; external drivers (the fleet
// coordinator) call it to know the resolved seed, budget and application
// list before building frontiers.
func (cfg SearchConfig) WithDefaults() SearchConfig { return cfg.withDefaults() }

func (cfg SearchConfig) withDefaults() SearchConfig {
	if cfg.Apps == nil {
		cfg.Apps = apps.Registry()
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.Budget <= 0 {
		cfg.Budget = 48
	}
	if cfg.ShrinkBudget == 0 {
		cfg.ShrinkBudget = 200
	}
	return cfg
}

// CorpusEntry is one schedule the search kept because it reached a new
// event shape.
type CorpusEntry struct {
	Schedule    Schedule
	Fingerprint Fingerprint
	FoundAt     int    // 1-based execution index at admission
	Op          string // mutation operator that produced it ("seed:crash", "splice", ...)
	Novelty     int    // mutants of this entry that were themselves admitted
}

// GrowthPoint samples corpus and fingerprint growth over the budget — the
// coverage curve of a search.
type GrowthPoint struct {
	Execs   int `json:"execs"`
	Corpus  int `json:"corpus"`
	Shapes  int `json:"shapes"`
	Digests int `json:"digests"`
}

// SearchFailure is a schedule the search found that violates the
// application's invariants, minimized and captured as a replayable
// artifact.
type SearchFailure struct {
	Schedule   Schedule // the failing candidate as found
	Violations []string
	Shrunk     Schedule // Shrink's 1-minimal reproduction
	ShrinkRuns int
	Minimal    bool
	Artifact   *Artifact // replayable JSON counterexample for Shrunk
}

// AppSearch is one application's search outcome.
type AppSearch struct {
	App             string
	Executions      int // budgeted candidate evaluations
	ShrinkRuns      int // extra executions spent minimizing failures
	DistinctShapes  int
	DistinctDigests int
	Corpus          []CorpusEntry
	Growth          []GrowthPoint
	Failures        []*SearchFailure
}

// SearchReport is a full search's outcome across applications.
type SearchReport struct {
	Strategy string // "guided" or "random"
	Seed     int64
	Budget   int // per application
	Buggy    bool
	Apps     []*AppSearch
}

// Totals sums distinct shapes and digests across applications.
func (r *SearchReport) Totals() (shapes, digests int) {
	for _, a := range r.Apps {
		shapes += a.DistinctShapes
		digests += a.DistinctDigests
	}
	return shapes, digests
}

// Failures flattens every application's failures.
func (r *SearchReport) Failures() []*SearchFailure {
	var out []*SearchFailure
	for _, a := range r.Apps {
		out = append(out, a.Failures...)
	}
	return out
}

// searchBatch is the number of candidates generated between corpus
// updates: small enough that coverage feedback steers most of the budget,
// large enough to keep a worker pool busy. It is a constant — not derived
// from Workers — so the search trajectory, and therefore the report, is
// identical for any worker count.
const searchBatch = 4

// Search runs AFL-style coverage-guided schedule search on each
// application: the corpus seeds with one generated scenario per fault kind
// (plus the fault-free baseline), every execution's event shape is the
// coverage signal, schedules reaching a new shape are admitted, and new
// candidates are mutated from corpus entries — window/intensity
// perturbation, retargeting, scenario add/drop, and splicing two parents —
// with every draw flowing through one seeded rng, so the whole search
// replays deterministically from cfg.Seed. Failing schedules are funneled
// into Shrink and emitted as replayable artifacts.
//
// Search is the in-process driver of a Frontier; the fleet coordinator
// (internal/fleet) drives the identical frontier with remote evaluation
// and produces byte-identical reports.
func Search(cfg SearchConfig) *SearchReport {
	cfg = cfg.withDefaults()
	rep := &SearchReport{Strategy: string(StrategyGuided), Seed: cfg.Seed, Budget: cfg.Budget, Buggy: cfg.Buggy}
	for _, spec := range cfg.Apps {
		rep.Apps = append(rep.Apps, driveFrontier(NewFrontier(spec, cfg, StrategyGuided), cfg.Workers))
	}
	return rep
}

// RandomSearch is the blind-sampling baseline at the same budget: it
// evaluates the seeded single-scenario schedules the matrix would generate
// (kinds × seeds in matrix order) and tracks the identical coverage
// bookkeeping, but never mutates. Comparing its report against Search's
// quantifies what the coverage feedback buys (see experiment E10).
func RandomSearch(cfg SearchConfig) *SearchReport {
	cfg = cfg.withDefaults()
	rep := &SearchReport{Strategy: string(StrategyRandom), Seed: cfg.Seed, Budget: cfg.Budget, Buggy: cfg.Buggy}
	for _, spec := range cfg.Apps {
		rep.Apps = append(rep.Apps, driveFrontier(NewFrontier(spec, cfg, StrategyRandom), cfg.Workers))
	}
	return rep
}

// driveFrontier runs one application's frontier to exhaustion on a local
// worker pool: generate a batch, evaluate it, admit results in candidate
// order, repeat.
func driveFrontier(f *Frontier, workers int) *AppSearch {
	for batch := f.NextBatch(); len(batch) > 0; batch = f.NextBatch() {
		res := evalCandidates(f.Runner(), workers, batch)
		for i := range batch {
			f.Admit(batch[i], res[i])
		}
	}
	return f.Finish()
}

// evalCandidates runs one batch of candidates, in parallel when
// workers > 1. Results are written by candidate index, so the admission
// pass that follows sees them in generation order regardless of completion
// order.
func evalCandidates(runner Runner, workers int, batch []Candidate) []*RunResult {
	out := make([]*RunResult, len(batch))
	if workers > len(batch) {
		workers = len(batch)
	}
	if workers <= 1 {
		for i, c := range batch {
			out[i] = runner.Run(c.Schedule)
		}
		return out
	}
	var (
		wg   sync.WaitGroup
		next atomic.Int64
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(batch) {
					return
				}
				out[i] = runner.Run(batch[i].Schedule)
			}
		}()
	}
	wg.Wait()
	return out
}
