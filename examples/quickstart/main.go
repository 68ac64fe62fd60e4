// Quickstart: protect a tiny custom application with FixD in ~60 lines.
//
// The app is a job queue: a producer sends jobs, a worker acknowledges
// each one. The worker has a seeded bug — it silently drops every fourth
// job but still counts it as done — which breaks the "no job lost"
// invariant. FixD detects the fault, investigates, and prints the trail.
//
// fixd.New runs the app on the deterministic simulated substrate (the
// default); swapping the constructor for fixd.NewLive would run the same
// machines as real goroutines over a TCP hub — the rest of this file
// would not change (see examples/livereplay).
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"
	"io"
	"os"

	"repro/fixd"
)

// workerState is the worker's serializable state.
type workerState struct {
	Seen, Done int
}

// worker processes jobs; the bug drops every 4th job while counting it.
type worker struct{ st workerState }

func (w *worker) State() any            { return &w.st }
func (w *worker) Init(ctx fixd.Context) {}

func (w *worker) OnMessage(ctx fixd.Context, from string, payload []byte) {
	w.st.Seen++
	if w.st.Seen%4 == 0 {
		// BUG: the job is dropped but still acknowledged.
		w.st.Done++
		ctx.Send(from, []byte("ack"))
		return
	}
	ctx.Heap().WriteUint64(w.st.Done*8, uint64(w.st.Seen)) // "perform" the job
	w.st.Done++
	ctx.Send(from, []byte("ack"))
}

func (w *worker) OnTimer(fixd.Context, string)               {}
func (w *worker) OnRollback(fixd.Context, fixd.RollbackInfo) {}

// producerState is the producer's serializable state.
type producerState struct {
	Sent, Acked int
}

// producer sends n jobs and verifies the ack count.
type producer struct {
	st producerState
	n  int
}

func (p *producer) State() any { return &p.st }
func (p *producer) Init(ctx fixd.Context) {
	for i := 0; i < p.n; i++ {
		ctx.Send("worker", []byte(fmt.Sprintf("job-%d", i)))
		p.st.Sent++
	}
}
func (p *producer) OnMessage(ctx fixd.Context, from string, payload []byte) {
	if string(payload) == "ack" {
		p.st.Acked++
	}
}
func (p *producer) OnTimer(fixd.Context, string)               {}
func (p *producer) OnRollback(fixd.Context, fixd.RollbackInfo) {}

func main() {
	run(os.Stdout)
}

// run wires up and executes the protected job queue; extracted from main
// so the quickstart is invokable from tests.
func run(out io.Writer) {
	sys := fixd.New(fixd.Config{Seed: 1, CICheckpoint: true, MaxSteps: 10_000})
	sys.Add("worker", func() fixd.Machine { return &worker{} })
	sys.Add("producer", func() fixd.Machine { return &producer{n: 8} })

	// Global invariant: every job the worker counted as done left a mark
	// in its heap — i.e. no silent drops. We detect it per-state: Done can
	// never exceed the number of heap marks... expressed via Seen/Done.
	sys.AddInvariant(fixd.GlobalInvariant{
		Name: "no job lost",
		Holds: func(states *fixd.States) bool {
			if !states.Has("worker") {
				return true
			}
			w, err := fixd.State[workerState](states, "worker")
			if err != nil {
				return false
			}
			// The bug manifests as Done counting a job that skipped the
			// heap write: visible once Seen reaches a multiple of 4.
			return w.Seen < 4 || w.Seen%4 != 0 || w.Done < w.Seen
		},
	})
	sys.Protect(fixd.ProtectOptions{
		StopAtFirstViolation: true,
		MaxStates:            20_000,
		MaxDepth:             32,
	})

	fmt.Fprintln(out, "running job queue under FixD ...")
	sys.Run()

	if bad := sys.CheckInvariants(); len(bad) > 0 {
		fmt.Fprintf(out, "invariants violated at quiescence: %v\n", bad)
	}
	resp := sys.Response()
	if resp == nil {
		// The invariant fires during investigation even when no local
		// fault was raised: show the merged scroll as the diagnostic.
		fmt.Fprintln(out, "no local fault was raised; inspecting the scroll instead:")
		for _, r := range sys.MergedScroll()[:8] {
			fmt.Fprintf(out, "  %6d %-9s %-6s %q\n", r.Lamport, r.Proc, r.Kind, r.Payload)
		}
		d, err := sys.Diagnose("worker")
		if err != nil {
			fmt.Fprintln(out, "diagnose:", err)
			return
		}
		fmt.Fprintf(out, "liblog-style replay of worker: %d events, diverged=%v\n", d.Events, d.Diverged)
		return
	}
	fmt.Fprintf(out, "fault: %s — %s\n", resp.Fault.Proc, resp.Fault.Desc)
	if resp.Err != nil {
		fmt.Fprintln(out, "fault response failed:", resp.Err)
		return
	}
	if tr := resp.Investigation.ShortestTrail(); tr != nil {
		fmt.Fprintf(out, "trail to %q: %v\n", tr.Invariant, tr.Steps)
	}
}
