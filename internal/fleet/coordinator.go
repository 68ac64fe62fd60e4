package fleet

import (
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"time"

	"repro/internal/chaos"
)

// Config parameterizes a fleet search.
type Config struct {
	// Search is the underlying search configuration — the same knobs
	// chaos.Search takes. The application list must name registered
	// applications (apps.Registry): stateless workers resolve leases by
	// app name. Search.Workers is ignored; evaluation parallelism is the
	// fleet's worker count.
	Search chaos.SearchConfig

	// Workers is the number of local loopback-TCP workers Search spawns in
	// all-in-one mode. 0 means the coordinator evaluates everything itself
	// through the local fallback (unless NoLocalFallback).
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
	// no workers connected the fleet waits instead of degrading to local
	// execution. A lease that exhausts MaxRetries is then poisoned — the
	// search fails with a descriptive error — rather than re-queued
	// forever or run locally.
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
// a time — the queue, a worker session, a backoff timer, or the local
// fallback — so its result is delivered exactly once.
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
	kick    chan struct{} // nudges the janitor when work is enqueued
	journal *journal

	mu       sync.Mutex
	sessions int
	leaseID  uint64
	reissues int
	locals   int

	searchDone chan struct{} // closed when Run completes: sessions send Done
	closed     chan struct{} // closed by Close: everything shuts down
	closeOnce  sync.Once
	ran        bool

	// terminal is closed (once) when a lease exhausts MaxRetries with no
	// local fallback to absorb it: the task can never complete, so the
	// search fails with terminalErr instead of re-queueing the poisoned
	// lease forever.
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
		kick:       make(chan struct{}, 1),
		searchDone: make(chan struct{}),
		closed:     make(chan struct{}),
		terminal:   make(chan struct{}),
	}
	go c.acceptLoop()
	if !cfg.NoLocalFallback {
		go c.janitor()
	}
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
// and the journal is flushed. Close after Run has returned.
func (c *Coordinator) Close() error {
	c.closeOnce.Do(func() {
		close(c.closed)
		c.ln.Close()
	})
	return c.journal.close()
}

// acceptLoop admits workers until the coordinator closes.
func (c *Coordinator) acceptLoop() {
	for {
		conn, err := c.ln.Accept()
		if err != nil {
			return // listener closed
		}
		go c.serveWorker(conn)
	}
}

// serveWorker drives one worker session: validate the Hello, then feed it
// leases one at a time. Any protocol error, timeout or disconnect requeues
// the in-flight task and ends the session — the worker redials if it is
// still alive.
func (c *Coordinator) serveWorker(conn net.Conn) {
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
		c.mu.Lock()
		c.sessions--
		c.mu.Unlock()
	}()
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
	time.AfterFunc(delay, func() {
		select {
		case c.tasks <- t:
		case <-c.closed:
		}
	})
}

// poison records the terminal failure for a lease no one can evaluate:
// every remote attempt failed, retries are exhausted, and NoLocalFallback
// forbids the coordinator from absorbing it. The first poisoned lease
// fails the whole search (Run and evalBatch watch the terminal channel).
func (c *Coordinator) poison(t *task) {
	c.termOnce.Do(func() {
		kind := fmt.Sprintf("%d-candidate lease", len(t.lease.Candidates))
		if t.lease.Shrink != nil {
			kind = "shrink lease"
		}
		c.terminalErr = fmt.Errorf(
			"fleet: %s for app %q failed %d worker attempts with no local fallback; giving up",
			kind, t.lease.App, t.attempts)
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

// janitor keeps the queue live when no workers are connected: any queued
// task found while the session count is zero is evaluated locally. It
// ticks at a fraction of the lease timeout so a workerless fleet degrades
// to in-process search speed rather than stalling.
func (c *Coordinator) janitor() {
	tick := c.cfg.LeaseTimeout / 8
	if tick < 5*time.Millisecond {
		tick = 5 * time.Millisecond
	}
	t := time.NewTicker(tick)
	defer t.Stop()
	for {
		select {
		case <-c.closed:
			return
		case <-c.searchDone:
			return
		case <-t.C:
			c.drainLocally()
		case <-c.kick:
			c.drainLocally()
		}
	}
}

// drainLocally evaluates queued tasks on the coordinator while no worker
// session is connected.
func (c *Coordinator) drainLocally() {
	for {
		c.mu.Lock()
		idle := c.sessions == 0
		c.mu.Unlock()
		if !idle {
			return
		}
		select {
		case t := <-c.tasks:
			c.runLocal(t)
		default:
			return
		}
	}
}

// enqueue hands a task to the fleet and nudges the janitor, so a
// workerless coordinator evaluates it immediately instead of waiting out
// a janitor tick.
func (c *Coordinator) enqueue(t *task) {
	select {
	case c.tasks <- t:
	case <-c.closed:
		return
	}
	select {
	case c.kick <- struct{}{}:
	default:
	}
}

// Run executes the fleet search: it drives one chaos.Frontier per
// application, leasing candidate evaluation and failure shrinking to
// workers, admitting results in candidate order, and journaling every
// result. The report is byte-identical to chaos.Search at the same
// configuration, for any worker count and across worker failures. Run may
// be called once.
func (c *Coordinator) Run() (*chaos.SearchReport, error) {
	c.mu.Lock()
	if c.ran {
		c.mu.Unlock()
		return nil, errors.New("fleet: coordinator already ran")
	}
	c.ran = true
	c.mu.Unlock()
	defer close(c.searchDone)

	rep := &chaos.SearchReport{
		Strategy: string(chaos.StrategyGuided),
		Seed:     c.scfg.Seed, Budget: c.scfg.Budget, Buggy: c.scfg.Buggy,
	}
	for _, spec := range c.scfg.Apps {
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
				if corpus := f.Corpus(); len(corpus) > before {
					if err := c.journal.addCorpus(app, corpus[len(corpus)-1]); err != nil {
						return nil, err
					}
				}
			}
		}
		rep.Apps = append(rep.Apps, f.Finish())
	}
	// A lease poisoned during the final shrink unwinds through the local
	// shrinker without another evalBatch to surface it; the search still
	// must fail.
	select {
	case <-c.terminal:
		return nil, c.terminalErr
	default:
	}
	return rep, nil
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
			return nil, errors.New("fleet: coordinator closed mid-search")
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
		c.journal.addShrink(app, sig, o.failure)
		return o.failure
	case <-c.terminal:
		// The poisoned lease may be this very shrink job, whose done channel
		// will never receive. The search is already failing (the next
		// evalBatch returns terminalErr); shrink locally so the frontier can
		// unwind instead of blocking forever.
		return chaos.LocalShrinker(runner, c.scfg.ShrinkBudget)(sched, res)
	case <-c.closed:
		// Closing mid-search already fails the batch; shrink locally so
		// the frontier can unwind without blocking forever.
		return chaos.LocalShrinker(runner, c.scfg.ShrinkBudget)(sched, res)
	}
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
