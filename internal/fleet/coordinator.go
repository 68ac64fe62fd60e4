package fleet

import (
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"time"

	"repro/internal/apps"
	"repro/internal/chaos"
)

// errClosed ends a search whose coordinator was closed under it.
var errClosed = errors.New("fleet: coordinator closed mid-search")

// Config parameterizes a fleet search.
type Config struct {
	// Search is the underlying search configuration — the same knobs
	// chaos.Search takes. The application list must name registered
	// applications (apps.Registry): stateless workers resolve leases by
	// app name. Search.Workers is ignored; evaluation parallelism is the
	// fleet's worker count.
	Search chaos.SearchConfig

	// Workers is the number of local loopback-TCP workers Search spawns in
	// all-in-one mode. 0 means the coordinator evaluates every task itself
	// as it enqueues it (unless NoLocalFallback).
	Workers int

	// Addr is the coordinator's listen address (default "127.0.0.1:0").
	Addr string

	// LeaseTimeout bounds how long a worker may hold a lease before the
	// coordinator reissues it elsewhere (default 15s).
	LeaseTimeout time.Duration

	// HelloTimeout bounds the handshake control frames: how long the
	// coordinator waits for a dialing worker's Hello, and how long it
	// spends flushing the final Done frame to a session (default 5s).
	HelloTimeout time.Duration

	// MaxRetries is how many remote attempts a lease gets before the
	// coordinator evaluates it locally (default 3).
	MaxRetries int

	// Backoff is the base delay before a failed lease is reissued; it
	// doubles per attempt, capped at 2s (default 50ms).
	Backoff time.Duration

	// Journal, when non-empty, is the path of the coordinator's JSONL
	// frontier journal: every evaluated candidate, minimized failure and
	// admitted corpus entry is appended, so a restarted coordinator
	// replays the journal through a fresh frontier and resumes without
	// re-executing a single schedule (and without losing determinism).
	Journal string

	// NoLocalFallback disables coordinator-side evaluation entirely: with
	// no worker connected the fleet waits for one instead of evaluating
	// the queued tasks itself. A lease that exhausts MaxRetries is then
	// poisoned — the search fails with a descriptive error — rather than
	// re-queued forever or run locally.
	NoLocalFallback bool
}

func (cfg Config) withDefaults() Config {
	if cfg.Addr == "" {
		cfg.Addr = "127.0.0.1:0"
	}
	if cfg.LeaseTimeout <= 0 {
		cfg.LeaseTimeout = 15 * time.Second
	}
	if cfg.HelloTimeout <= 0 {
		cfg.HelloTimeout = 5 * time.Second
	}
	if cfg.MaxRetries <= 0 {
		cfg.MaxRetries = 3
	}
	if cfg.Backoff <= 0 {
		cfg.Backoff = 50 * time.Millisecond
	}
	return cfg
}

// taskOut is a completed task's payload.
type taskOut struct {
	runs    []*chaos.RunResult // aligned with task.cands
	failure *chaos.SearchFailure
}

// task is one unit of leased work. A task is owned by exactly one place at
// a time — the queue, a worker session, a backoff timer, or a local
// evaluation — so its result is delivered exactly once.
type task struct {
	lease    Lease // ID unset; stamped per dispatch attempt
	cands    []chaos.Candidate
	runner   chaos.Runner // coordinator-side runner for the local fallback
	attempts int
	done     chan taskOut // buffered(1)
}

// Coordinator owns the search frontier and leases evaluation to workers.
type Coordinator struct {
	cfg     Config
	scfg    chaos.SearchConfig
	ln      net.Listener
	tasks   chan *task
	journal *journal
	conns   sync.WaitGroup // the accept loop and every connection it serves

	mu       sync.Mutex
	sessions int
	leaseID  uint64
	reissues int
	locals   int

	searchDone chan struct{} // closed when Run completes: sessions send Done
	closed     chan struct{} // closed by Close: everything shuts down
	closeOnce  sync.Once
	ran        bool

	// terminal is closed (once, by fail) when the search cannot complete:
	// a lease exhausted MaxRetries with no local fallback to absorb it, a
	// journal append failed, or the coordinator closed mid-search. Every
	// frontier then unwinds and Run returns terminalErr.
	terminal    chan struct{}
	terminalErr error
	termOnce    sync.Once
}

// NewCoordinator binds the listen address, recovers the journal (if any)
// and starts accepting workers. Call Run to execute the search.
func NewCoordinator(cfg Config) (*Coordinator, error) {
	cfg = cfg.withDefaults()
	scfg := cfg.Search.WithDefaults()
	names := make([]string, len(scfg.Apps))
	for i, spec := range scfg.Apps {
		if _, err := chaos.RunnerFor(spec.Name, scfg.Buggy, scfg.Seed, true); err != nil {
			return nil, fmt.Errorf("fleet: app %q is not in the registry; workers cannot resolve it", spec.Name)
		}
		names[i] = spec.Name
	}
	j, err := openJournal(cfg.Journal, journalConfig{
		Proto: ProtoVersion, Seed: scfg.Seed, Budget: scfg.Budget, Buggy: scfg.Buggy,
		CheckEvery: scfg.CheckEvery, ShrinkBudget: scfg.ShrinkBudget, Apps: names,
	})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		j.close()
		return nil, fmt.Errorf("fleet: listen: %w", err)
	}
	c := &Coordinator{
		cfg: cfg, scfg: scfg, ln: ln, journal: j,
		tasks:      make(chan *task, 256),
		searchDone: make(chan struct{}),
		closed:     make(chan struct{}),
		terminal:   make(chan struct{}),
	}
	c.conns.Add(1)
	go c.acceptLoop()
	return c, nil
}

// Addr returns the coordinator's bound listen address.
func (c *Coordinator) Addr() string { return c.ln.Addr().String() }

// Recovered reports how many journaled results the coordinator restored at
// startup (0 without a journal).
func (c *Coordinator) Recovered() int {
	if c.journal == nil {
		return 0
	}
	return c.journal.recovered
}

// Stats reports fleet-level counters: leases reissued after worker
// failure or timeout, and tasks evaluated by the coordinator's local
// fallback.
func (c *Coordinator) Stats() (reissues, localRuns int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.reissues, c.locals
}

// Close shuts the coordinator down: the listener closes, sessions drain,
// and the journal is flushed. Close after Run has returned. After Run,
// Close first lets every session tell its worker Done, waiting at most
// HelloTimeout, so that the workers of a coordinator that exits next
// return instead of redialing it.
func (c *Coordinator) Close() error {
	c.closeOnce.Do(func() {
		c.ln.Close()
		select {
		case <-c.searchDone:
			drained := make(chan struct{})
			go func() { c.conns.Wait(); close(drained) }()
			select {
			case <-drained:
			case <-time.After(c.cfg.HelloTimeout):
			}
		default:
		}
		close(c.closed)
	})
	return c.journal.close()
}

// acceptLoop admits workers until the coordinator closes.
func (c *Coordinator) acceptLoop() {
	defer c.conns.Done()
	for {
		conn, err := c.ln.Accept()
		if err != nil {
			return // listener closed
		}
		c.conns.Add(1)
		go c.serveWorker(conn)
	}
}

// serveWorker drives one worker session: validate the Hello, then feed it
// leases one at a time. Any protocol error, timeout or disconnect requeues
// the in-flight task and ends the session — the worker redials if it is
// still alive. The last session to end leaves the queued tasks to the
// coordinator.
func (c *Coordinator) serveWorker(conn net.Conn) {
	defer c.conns.Done()
	defer conn.Close()
	conn.SetReadDeadline(time.Now().Add(c.cfg.HelloTimeout))
	f, err := ReadFrame(conn)
	if err != nil || f.Type != FrameHello || f.Hello.Proto != ProtoVersion {
		return
	}
	c.mu.Lock()
	c.sessions++
	c.mu.Unlock()
	defer func() {
		conn.Close() // a live worker redials while the queue drains
		c.mu.Lock()
		c.sessions--
		c.mu.Unlock()
		c.drainLocally()
	}()
	// Close closes c.closed only once the sessions have left or HelloTimeout
	// has passed, so a session of a finished search takes searchDone.
	for {
		select {
		case <-c.closed:
			return
		case <-c.searchDone:
			conn.SetWriteDeadline(time.Now().Add(c.cfg.HelloTimeout))
			WriteFrame(conn, &Frame{Type: FrameDone, Done: &Done{Reason: "search complete"}})
			return
		case t := <-c.tasks:
			if !c.dispatch(conn, t) {
				c.requeue(t)
				return
			}
		}
	}
}

// dispatch sends one lease and waits for its result under the lease
// deadline. False means the session is dead and the task was not
// completed.
func (c *Coordinator) dispatch(conn net.Conn, t *task) bool {
	c.mu.Lock()
	c.leaseID++
	id := c.leaseID
	c.mu.Unlock()
	lease := t.lease
	lease.ID = id
	lease.DeadlineMS = c.cfg.LeaseTimeout.Milliseconds()
	deadline := time.Now().Add(c.cfg.LeaseTimeout)
	conn.SetWriteDeadline(deadline)
	if err := WriteFrame(conn, &Frame{Type: FrameLease, Lease: &lease}); err != nil {
		return false
	}
	conn.SetReadDeadline(deadline)
	f, err := ReadFrame(conn)
	if err != nil || f.Type != FrameResult || f.Result.LeaseID != id || f.Result.Error != "" {
		return false
	}
	out, ok := resultOut(&lease, f.Result)
	if !ok {
		return false
	}
	t.done <- out
	return true
}

// resultOut validates a result against its lease shape.
func resultOut(lease *Lease, r *Result) (taskOut, bool) {
	if lease.Shrink != nil {
		if r.Failure == nil {
			return taskOut{}, false
		}
		return taskOut{failure: r.Failure}, true
	}
	if len(r.Runs) != len(lease.Candidates) {
		return taskOut{}, false
	}
	for _, run := range r.Runs {
		if run == nil {
			return taskOut{}, false
		}
	}
	return taskOut{runs: r.Runs}, true
}

// requeue returns a failed task to the queue with backoff; past
// MaxRetries the coordinator evaluates it itself (so a pathological
// fleet still terminates) or — with NoLocalFallback — declares the lease
// poisoned and fails the search, rather than re-queueing it forever.
// Only genuine fleet reissues count toward the reissues stat: the local
// handoff takes the lease out of the fleet for good.
func (c *Coordinator) requeue(t *task) {
	t.attempts++
	if t.attempts > c.cfg.MaxRetries {
		if c.cfg.NoLocalFallback {
			c.poison(t)
			return
		}
		go c.runLocal(t)
		return
	}
	c.mu.Lock()
	c.reissues++
	c.mu.Unlock()
	delay := c.cfg.Backoff << min(t.attempts-1, 6)
	if delay > 2*time.Second {
		delay = 2 * time.Second
	}
	time.AfterFunc(delay, func() { c.enqueue(t) })
}

// poison records the terminal failure for a lease no one can evaluate:
// every remote attempt failed, retries are exhausted, and NoLocalFallback
// forbids the coordinator from absorbing it.
func (c *Coordinator) poison(t *task) {
	kind := fmt.Sprintf("%d-candidate lease", len(t.lease.Candidates))
	if t.lease.Shrink != nil {
		kind = "shrink lease"
	}
	c.fail(fmt.Errorf("fleet: %s for app %q failed %d worker attempts with no local fallback; giving up",
		kind, t.lease.App, t.attempts))
}

// fail ends the search with err. The first call wins: it closes the
// terminal channel, which every frontier's evalBatch and shrinkRemote
// watch, so all of them unwind and Run returns err.
func (c *Coordinator) fail(err error) {
	c.termOnce.Do(func() {
		c.terminalErr = err
		close(c.terminal)
	})
}

// runLocal evaluates a task on the coordinator itself — the fallback that
// keeps the fleet live with zero (or only broken) workers. Results are
// identical to a worker's by construction: same runner, same code.
func (c *Coordinator) runLocal(t *task) {
	c.mu.Lock()
	c.locals++
	c.mu.Unlock()
	if t.lease.Shrink != nil {
		fail := chaos.LocalShrinker(t.runner, t.lease.ShrinkBudget)(t.lease.Shrink.Schedule, t.lease.Shrink.Result)
		t.done <- taskOut{failure: fail}
		return
	}
	runs := make([]*chaos.RunResult, len(t.cands))
	for i, cand := range t.cands {
		runs[i] = t.runner.Run(cand.Schedule)
	}
	t.done <- taskOut{runs: runs}
}

// idle reports whether the coordinator evaluates queued tasks itself: the
// local fallback is on and no worker session is connected.
func (c *Coordinator) idle() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return !c.cfg.NoLocalFallback && c.sessions == 0
}

// drainLocally evaluates queued tasks on the coordinator while it is idle,
// until the queue is empty or the search is over.
func (c *Coordinator) drainLocally() {
	for c.idle() {
		select {
		case <-c.closed:
			return
		case <-c.searchDone:
			return
		default:
		}
		select {
		case t := <-c.tasks:
			c.runLocal(t)
		default:
			return
		}
	}
}

// enqueue hands a task to the fleet. With no worker connected the caller
// evaluates it, and whatever else is queued, on its own goroutine. The
// session count is read after the send, so a last session that ends in
// between finds the task in its own drain.
func (c *Coordinator) enqueue(t *task) {
	select {
	case c.tasks <- t:
	case <-c.closed:
		return
	}
	c.drainLocally()
}

// Run executes the fleet search: it drives one chaos.Frontier per
// application, all of them at once, leasing candidate evaluation and
// failure shrinking to workers, and journaling every result. Each frontier
// runs on its own goroutine and admits its results in candidate order, so
// its trajectory depends only on (seed, application); while one waits on
// its batch the others keep the workers leased. The report, assembled in
// application order, is byte-identical to chaos.Search at the same
// configuration, for any worker count and across worker failures. Run may
// be called once; it returns only after every frontier has stopped.
func (c *Coordinator) Run() (*chaos.SearchReport, error) {
	c.mu.Lock()
	if c.ran {
		c.mu.Unlock()
		return nil, errors.New("fleet: coordinator already ran")
	}
	c.ran = true
	c.mu.Unlock()
	defer close(c.searchDone)

	results := make([]*chaos.AppSearch, len(c.scfg.Apps))
	var wg sync.WaitGroup
	for i, spec := range c.scfg.Apps {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := c.drive(spec)
			if err != nil {
				c.fail(err)
				return
			}
			results[i] = res
		}()
	}
	wg.Wait()
	// The first error (a poisoned lease, a journal write, a close) ends every
	// frontier; a lease poisoned during a final shrink leaves its frontier
	// no batch to surface it in, so it is checked here too.
	select {
	case <-c.terminal:
		return nil, c.terminalErr
	default:
	}
	rep := &chaos.SearchReport{
		Strategy: string(chaos.StrategyGuided),
		Seed:     c.scfg.Seed, Budget: c.scfg.Budget, Buggy: c.scfg.Buggy,
	}
	rep.Apps = append(rep.Apps, results...)
	return rep, nil
}

// drive runs one application's frontier to exhaustion: generate a batch,
// evaluate it on the fleet, admit the results in candidate order, repeat.
func (c *Coordinator) drive(spec apps.AppSpec) (*chaos.AppSearch, error) {
	f := chaos.NewFrontier(spec, c.scfg, chaos.StrategyGuided)
	runner := f.Runner()
	app := spec.Name
	f.SetShrinker(func(sched chaos.Schedule, res *chaos.RunResult) *chaos.SearchFailure {
		return c.shrinkRemote(app, runner, sched, res)
	})
	for batch := f.NextBatch(); len(batch) > 0; batch = f.NextBatch() {
		results, err := c.evalBatch(app, runner, batch)
		if err != nil {
			return nil, err
		}
		for i := range batch {
			before := len(f.Corpus())
			f.Admit(batch[i], results[i])
			// A recovered run's corpus entry is in the journal already.
			if corpus := f.Corpus(); len(corpus) > before && c.journal.run(app, batch[i].Index) == nil {
				if err := c.journal.addCorpus(app, corpus[len(corpus)-1]); err != nil {
					return nil, err
				}
			}
		}
	}
	return f.Finish(), nil
}

// evalBatch evaluates one generated batch: journal hits are returned
// immediately, the rest is chunked into leases across the currently
// connected workers and collected by candidate index.
func (c *Coordinator) evalBatch(app string, runner chaos.Runner, batch []chaos.Candidate) ([]*chaos.RunResult, error) {
	out := make([]*chaos.RunResult, len(batch))
	pos := make(map[int]int, len(batch)) // global candidate index -> batch position
	var fresh []chaos.Candidate
	for i, cand := range batch {
		pos[cand.Index] = i
		if r := c.journal.run(app, cand.Index); r != nil {
			out[i] = r
			continue
		}
		fresh = append(fresh, cand)
	}
	if len(fresh) == 0 {
		return out, nil
	}

	c.mu.Lock()
	workers := c.sessions
	c.mu.Unlock()
	if workers < 1 {
		workers = 1
	}
	chunk := (len(fresh) + workers - 1) / workers
	var tasks []*task
	for start := 0; start < len(fresh); start += chunk {
		end := min(start+chunk, len(fresh))
		cands := fresh[start:end]
		wire := make([]WireCandidate, len(cands))
		for i, cand := range cands {
			wire[i] = WireCandidate{Index: cand.Index, Schedule: cand.Schedule}
		}
		t := &task{
			lease:  c.leaseFor(app, Lease{Candidates: wire}),
			cands:  cands,
			runner: runner,
			done:   make(chan taskOut, 1),
		}
		tasks = append(tasks, t)
		c.enqueue(t)
	}
	for _, t := range tasks {
		select {
		case o := <-t.done:
			for i, cand := range t.cands {
				out[pos[cand.Index]] = o.runs[i]
				if err := c.journal.addRun(app, cand.Index, o.runs[i]); err != nil {
					return nil, err
				}
			}
		case <-c.terminal:
			return nil, c.terminalErr
		case <-c.closed:
			return nil, errClosed
		}
	}
	return out, nil
}

// shrinkRemote leases one failing schedule's minimization to the fleet,
// keyed in the journal by the violation signature the frontier dedups on.
func (c *Coordinator) shrinkRemote(app string, runner chaos.Runner, sched chaos.Schedule, res *chaos.RunResult) *chaos.SearchFailure {
	sig := strings.Join(res.Violations, "|")
	if fail := c.journal.shrink(app, sig); fail != nil {
		return fail
	}
	t := &task{
		lease:  c.leaseFor(app, Lease{Shrink: &ShrinkJob{Schedule: sched, Result: res}}),
		runner: runner,
		done:   make(chan taskOut, 1),
	}
	c.enqueue(t)
	select {
	case o := <-t.done:
		if err := c.journal.addShrink(app, sig, o.failure); err != nil {
			c.fail(err)
		}
		return o.failure
	case <-c.terminal:
	case <-c.closed:
		c.fail(errClosed)
	}
	// The search is failing, and the poisoned lease may be this very shrink
	// job, whose done channel will never receive. The report is discarded,
	// so an unshrunk failure lets the frontier unwind at once.
	return &chaos.SearchFailure{Schedule: sched, Violations: res.Violations, Shrunk: sched}
}

// leaseFor stamps the shared runner parameters onto a lease skeleton.
func (c *Coordinator) leaseFor(app string, l Lease) Lease {
	l.App = app
	l.Buggy = c.scfg.Buggy
	l.Seed = c.scfg.Seed
	l.CheckEvery = c.scfg.CheckEvery
	l.ShrinkBudget = c.scfg.ShrinkBudget
	return l
}
