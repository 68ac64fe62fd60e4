package fleet

import (
	"context"
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/chaos"
)

// Worker is one stateless fleet evaluator: it dials the coordinator,
// answers leases — evaluating candidate schedules on the pooled
// chaos.Runner arenas, or minimizing a failing schedule with the same
// LocalShrinker code the in-process search uses — and redials when the
// connection drops, until the coordinator sends Done. A worker holds no
// search state at all; kill one at any moment and the coordinator reissues
// its lease elsewhere, or evaluates it itself once no worker is left, with
// no effect on the final report.
type Worker struct {
	// Join is the coordinator's address.
	Join string
	// Name identifies the worker in its Hello (optional).
	Name string
	// Slots is how many parallel lease sessions the worker runs
	// (default 1). Each session is an independent connection, so one
	// worker process can saturate several cores.
	Slots int
}

// redialDelay is the pause before a worker reconnects after a connection
// failure.
const redialDelay = 200 * time.Millisecond

// Run serves leases until the coordinator reports the search done or the
// context is canceled. A lost connection is redialed after redialDelay; a
// Done frame ends the worker cleanly.
func (w *Worker) Run(ctx context.Context) {
	var wg sync.WaitGroup
	for slot := range max(w.Slots, 1) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !w.session(ctx, slot) && ctx.Err() == nil {
				select {
				case <-ctx.Done():
				case <-time.After(redialDelay):
				}
			}
		}()
	}
	wg.Wait()
}

// session runs one connection to completion: dial, hello, answer leases.
// It reports whether the coordinator ended it with a Done frame.
func (w *Worker) session(ctx context.Context, slot int) bool {
	d := net.Dialer{Timeout: 5 * time.Second}
	conn, err := d.DialContext(ctx, "tcp", w.Join)
	if err != nil {
		return false
	}
	defer conn.Close()
	stop := context.AfterFunc(ctx, func() { conn.Close() })
	defer stop()

	name := w.Name
	if name == "" {
		name = "worker"
	}
	hello := &Hello{Proto: ProtoVersion, Name: fmt.Sprintf("%s/%d", name, slot)}
	if err := WriteFrame(conn, &Frame{Type: FrameHello, Hello: hello}); err != nil {
		return false
	}
	for {
		f, err := ReadFrame(conn)
		if err != nil {
			return false
		}
		switch f.Type {
		case FrameDone:
			return true
		case FrameLease:
			res := evalLease(f.Lease)
			if f.Lease.DeadlineMS > 0 {
				conn.SetWriteDeadline(time.Now().Add(time.Duration(f.Lease.DeadlineMS) * time.Millisecond))
			}
			if err := WriteFrame(conn, &Frame{Type: FrameResult, Result: res}); err != nil {
				return false
			}
		default:
			return false // a coordinator sends no other frame
		}
	}
}

// evalLease answers one lease. All the determinism-critical work happens
// here, on code paths shared byte-for-byte with the in-process search:
// chaos.Runner.Run on pooled arenas for candidates, chaos.LocalShrinker
// for shrink jobs.
func evalLease(l *Lease) *Result {
	runner, err := chaos.RunnerFor(l.App, l.Buggy, l.Seed, true)
	if err != nil {
		return &Result{LeaseID: l.ID, Error: err.Error()}
	}
	runner.CheckEvery = l.CheckEvery
	if l.Shrink != nil {
		fail := chaos.LocalShrinker(runner, l.ShrinkBudget)(l.Shrink.Schedule, l.Shrink.Result)
		return &Result{LeaseID: l.ID, Failure: fail}
	}
	runs := make([]*chaos.RunResult, len(l.Candidates))
	for i, c := range l.Candidates {
		runs[i] = runner.Run(c.Schedule)
	}
	return &Result{LeaseID: l.ID, Runs: runs}
}
