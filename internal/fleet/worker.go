package fleet

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/chaos"
)

// Worker is one stateless fleet evaluator: it dials the coordinator,
// answers leases — evaluating candidate schedules on the pooled
// chaos.Runner arenas, or minimizing a failing schedule with the same
// LocalShrinker code the in-process search uses — and redials when the
// connection drops, until the coordinator sends Done or stays out of reach
// for dialPatience. A worker holds no search state at all; kill one at any
// moment and the coordinator reissues its lease elsewhere, or evaluates it
// itself once no worker is left, with no effect on the final report.
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
// failure; dialPatience how long a slot's dials may fail before it gives up.
const redialDelay, dialPatience = 200 * time.Millisecond, 5 * time.Second

// errNoCoordinator is Run's error when every slot gave up.
var errNoCoordinator = errors.New("fleet: no coordinator reachable")

// Run serves leases until the coordinator reports the search done or the
// context is canceled; a lost connection is redialed after redialDelay.
func (w *Worker) Run(ctx context.Context) error {
	var wg sync.WaitGroup
	var done atomic.Bool
	for slot := range max(w.Slots, 1) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for last := time.Now(); ctx.Err() == nil && time.Since(last) < dialPatience; {
				if w.session(ctx, slot, &last) {
					done.Store(true)
					return
				}
				select {
				case <-ctx.Done():
				case <-time.After(redialDelay):
				}
			}
		}()
	}
	wg.Wait()
	if done.Load() || ctx.Err() != nil {
		return nil
	}
	return errNoCoordinator
}

// session runs one connection: dial, hello, answer leases. It reports
// whether a Done frame ended it, and sets *reached when a dialed one ends.
func (w *Worker) session(ctx context.Context, slot int, reached *time.Time) bool {
	d := net.Dialer{Timeout: 5 * time.Second}
	conn, err := d.DialContext(ctx, "tcp", w.Join)
	if err != nil {
		return false
	}
	defer func() { *reached = time.Now() }()
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
