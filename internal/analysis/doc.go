// Package analysis implements fixd-lint, the determinism-safety static
// analysis suite.
//
// # Why a linter
//
// Every FixD capability — chaos matrices, guided search, the fleet,
// repair — is gated on byte-identical reports across seeds, worker counts
// and backends. That contract was previously enforced only at runtime, by
// property tests that can miss a nondeterminism bug until a seed happens
// to hit it. The suite classifies the repo's recurring nondeterminism bug
// patterns (the way TFix+ classifies timeout-bug signatures) and rejects
// them at compile time instead of replay time.
//
// # The analyzers
//
//   - detwall: forbids wall-clock reads (time.Now/Since/Sleep/After/...),
//     global math/rand draws, os.Getenv-style environment reads, and
//     runtime.NumCPU-style topology reads inside the deterministic core
//     (internal/{dsim,chaos,scroll,fault,apps,vclock,checkpoint,experiments})
//     plus the annotation-audited bridge package internal/substrate.
//     Seeded rand.New(rand.NewSource(seed)) is allowed; ambient inputs are
//     not.
//
//   - detmaprange: flags `for range` over a map whose body appends to a
//     slice, writes scroll records, feeds a Fingerprinter or any hash,
//     or marshals JSON — unless it is the collect-keys-then-sort idiom.
//     Map order is randomized; these loops
//     are the classic digest-divergence bug (chaos.Runner iterates the
//     sorted Procs() slice precisely because of it).
//
//   - detgoroutine: forbids go statements, channel makes/sends/receives,
//     select, and sync/sync-atomic primitives inside internal/dsim, whose
//     determinism depends on single-threaded machine execution in
//     virtual-time order.
//
//   - kindswitch: exhaustiveness checking for switches over fault.Kind
//     and fleet.FrameType. A switch missing a declared constant and
//     lacking a default is a diagnostic, so the next PR 9-style fault kind
//     cannot silently skip a Compile/Generate/Normalize/mutate/shrink
//     table.
//
//   - scrollrecord: every dsim.Context implementation's Send, Now,
//     Random, DurablePut, DurableGet and DurableKeys, and those of every
//     type embedded into one, must append a scroll record on every return
//     path — a path that skips the append records a run that replays
//     differently than it executed.
//
// # Annotations
//
// Intentional violations carry a reason, on the offending line or the
// line above:
//
//	deadline := time.Now().Add(w) //fixd:wallclock live quiescence is wall-time bounded
//
//	//fixd:nondeterm the decorator forwards to the wrapped Context, which records the outcome
//	func (c *tracedCtx) Send(to string, payload []byte) { ... }
//
// //fixd:wallclock suppresses detwall; //fixd:nondeterm suppresses the
// other four. An annotation without a reason is itself a diagnostic.
//
// # Running
//
//	go run ./cmd/fixd-lint ./...          # whole module, exit 1 on findings
//	go run ./cmd/fixd-lint -json ./...    # machine-readable diagnostics
//	go run ./cmd/fixd-lint ./internal/analysis/testdata/src/detwall/dirty
//	                                      # fixture packages run their analyzer
//
// The suite is zero-dependency: packages are loaded with go/parser and
// type-checked with go/types, resolving module-internal imports against
// the module tree and the standard library through go/importer's source
// importer. CI runs `fixd-lint ./...` next to go vet, plus a negative
// smoke asserting the linter still fails on a dirty fixture.
package analysis
