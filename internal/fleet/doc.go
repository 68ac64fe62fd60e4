// Package fleet scales coverage-guided chaos search across processes and
// machines: a coordinator owns the seed/corpus frontier (chaos.Frontier)
// and the deduplicated fingerprint set, and stateless workers lease
// candidate batches over a length-prefixed TCP protocol, evaluate them on
// the pooled {Sim, Fingerprinter} arenas every chaos.Runner uses, and push
// back fingerprints plus auto-shrunk failing artifacts.
//
// The coordinator drives every application's frontier at once, each on its
// own goroutine, so that while one frontier waits on its batch the others
// keep the workers leased. The determinism story survives both that and
// distribution: each frontier generates its candidates sequentially from
// its own seeded rng and admits their results in candidate order no matter
// which worker produced them or how fast, its trajectory depends only on
// (seed, application), and shrinking is a deterministic function of
// (runner parameters, schedule); the report is assembled in application
// order. So the final report — corpus shapes, digests, growth curves,
// shrunk artifacts — is byte-identical to chaos.Search for any worker
// count, including zero, and across worker crashes, partitions and lease
// reissues. Any artifact a
// 100-worker fleet finds replays green from (seed, schedule) on one laptop
// through the ordinary chaos.Artifact.Verify path.
//
// Wire protocol: every frame is [type:1][length:4 big-endian][body], the
// body a JSON document for the frame's payload type (see wire.go; the
// exact encoding is pinned by testdata/frames.golden). A worker dials the
// coordinator, sends Hello, and then answers leases one at a time:
//
//	worker                         coordinator
//	  | -- Hello{Proto, Name} ------> |
//	  | <-- Lease{ID, Candidates} --- |   run lease: evaluate schedules
//	  | --- Result{LeaseID, Runs} --> |
//	  | <-- Lease{ID, Shrink} ------- |   shrink lease: minimize a failure
//	  | - Result{LeaseID, Failure} -> |
//	  | <-- Done ------------------- |   search finished: worker exits
//
// Leases carry deadlines: a worker that crashes, stalls or partitions
// simply never answers, the coordinator's read deadline fires, and the
// lease is reissued to another worker with backoff; after MaxRetries
// failures the coordinator evaluates it itself. The coordinator also
// evaluates whatever is queued whenever no worker is connected, at the
// three moments that can leave it so: a task is enqueued, a reissue comes
// due, or the last session ends. So the fleet degrades gracefully instead
// of stalling, and nothing polls (Config.NoLocalFallback turns all of this
// off). A finished search tells every connected worker Done, and Close
// waits for those frames, so workers exit with their coordinator.
//
// With Config.Journal set, the coordinator appends every evaluated result
// to a JSONL journal and a restarted coordinator replays it through fresh
// frontiers, resuming the search without re-executing a single schedule.
// The journal's lines interleave applications in whatever order their
// results arrived; recovery keys every result by (application, candidate
// index) and every shrunk failure by (application, violation signature),
// so the order across applications does not matter.
//
// Entry points: Search runs an all-in-one fleet (coordinator plus N
// loopback workers); NewCoordinator/Worker.Run are the pieces cmd/fixd-fleet
// wires into the -coordinate/-work/-local modes; fixd.SearchFleet is the
// public wrapper.
package fleet
