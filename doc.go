// Package repro is a from-scratch Go reproduction of "FixD: Fault
// Detection, Bug Reporting, and Recoverability for Distributed
// Applications" (Ţăpuş & Noblet, IPPS 2007).
//
// The public API lives in package repro/fixd. Its centerpiece is the
// substrate seam (repro/internal/substrate): applications program against
// one fixd.System whether they run on the deterministic discrete-event
// simulator (internal/dsim) or as real goroutines over the live transport
// (internal/transport), and the same chaos schedule injects faults into
// either backend. The framework components — Scroll, Time Machine,
// Investigator, Healer, ModelD, distributed speculations, chaos engine
// (a seeded matrix sweep plus coverage-guided schedule search over scroll
// fingerprints) — live under repro/internal and target narrow substrate
// interfaces rather than a concrete runtime. Stable storage
// (Context.Durable…) models each process's disk on both backends —
// surviving crash-restart and rollback, WAL-backed on the live backend —
// which is what makes classically unrecoverable processes like the 2PC
// coordinator and the KV primary genuinely crash-restartable under chaos.
// Rollbacks are fenced by a per-run timeline epoch: every deliberate
// rollback advances it, sends stamp it onto each message, receivers drop
// stale-epoch frames at delivery (recording the fence in the Scroll), and
// durable cells written by the abandoned timeline are invalidated so a
// later crash-restart cannot re-install them — delivery is
// exactly-once-per-timeline on both backends, not at-least-once across
// timelines. The scenario zoo extends the fault DSL with two opt-in
// kinds — fault.Corrupt (seeded single-byte mutation of a delivery's
// payload copy) and fault.SlowNode (per-process handler lag, resource
// exhaustion as distinct from message delay) — and two workloads built
// to be broken by them: a microservice chain whose seeded timeout
// misconfiguration cascades into duplicate side-effects (knob-repairable
// by fixd.Repair) and a cache-aside layer whose cache-authority
// invariant only corruption can violate. See README.md for the layout,
// the capability matrix ("Timeline epochs", "Scenario zoo"), and the
// experiment index.
//
// # Performance
//
// Chaos throughput is budgeted in runs, so the per-run hot path is built
// for reuse: chaos.Runner checks a simulation out of a per-worker pool
// and Resets it between runs (typed index-addressed event queue with a
// free-list arena, recycled checkpoint heaps and scroll buffers, cached
// seeded rng registers); each run's digest and event-shape signature are
// computed in one allocation-free streaming pass over the per-process
// scrolls (scroll.Fingerprinter — scroll.Digest and scroll.Shape are thin
// wrappers with byte-identical output); and an opt-in early-exit monitor
// (Runner.CheckEvery, surfaced on fixd.ChaosMatrixConfig and
// fixd.ChaosSearchConfig) halts a run with Stats.EarlyExit the moment a
// global invariant is violated instead of burning the remaining step
// budget. The performance ledger — `bash bench/run.sh`, declared in
// BENCHMARK.json — measures it end to end and layer by layer; see
// README.md ("Performance") for how to read it.
//
// The benchmarks in bench_test.go regenerate the measurement behind every
// figure of the paper; run them with:
//
//	go test -bench=. -benchmem .
package repro
