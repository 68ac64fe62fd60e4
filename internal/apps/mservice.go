package apps

import (
	"strconv"
	"strings"

	"repro/internal/dsim"
	"repro/internal/fault"
)

// MServiceConfig parameterizes a microservice request chain: a client
// drives requests through Hops stateless service tiers into a backend that
// performs the side effect. Every tier enforces a per-hop reply timeout
// with bounded, backed-off retries; exhausted retries degrade gracefully
// (a "fail" verdict propagates back to the client) instead of hanging.
type MServiceConfig struct {
	Hops     int // service tiers between client and backend
	Requests int // workload size issued by the client
	// Timeout is each tier's per-hop reply timeout. The seeded bug is a
	// misconfiguration: a timeout far below the backend's slow-path delay
	// turns one slow dependency into a timeout cascade up the whole chain.
	Timeout uint64
	// Retries bounds the re-sends a tier attempts after the first try.
	Retries int
	// Backoff is added to the timeout on every successive attempt.
	Backoff uint64
	// SlowEvery puts every SlowEvery-th request onto the backend's slow
	// path (0 disables); SlowDelay is that path's processing delay.
	SlowEvery int
	SlowDelay uint64
	// Buggy makes the backend-adjacent tier fail over to the spare backend
	// when its retries are exhausted. The primary backend still finishes
	// the slow request it already accepted, so the same request commits on
	// two backends — the duplicate-side-effect bug the timeout cascade
	// triggers (the retry storm is the symptom, the failover is the wound).
	Buggy bool
}

// MSClientName is the workload client's process ID.
const MSClientName = "msclient"

// MSBackName is the primary backend's process ID; MSBack2Name is the spare
// the buggy failover path commits to.
const (
	MSBackName  = "msback"
	MSBack2Name = "msback2"
)

// MSSvcName returns the process ID of service tier i (0 is client-facing).
func MSSvcName(i int) string { return msNames.name(i) }

// msDonePrefix prefixes a backend's per-request stable-storage cells. The
// side effect is forced to disk before the response leaves, so a
// crash-restarted backend remembers what it executed and re-serves the
// cached verdict instead of executing twice.
const msDonePrefix = "ms:done:"

// msSvcState is one service tier's serializable state.
type msSvcState struct {
	Upstream   map[string]string // req id -> proc awaiting our response
	Done       map[string]string // req id -> relayed verdict ("ok" / "fail")
	Attempts   map[string]int    // req id -> downstream sends so far
	FailedOver map[string]bool   // req id -> spare-backend attempt made (buggy)
}

// MSService is one stateless tier of the chain: forward down, relay up,
// retry on timeout.
type MSService struct {
	st   msSvcState
	cfg  MServiceConfig
	self int
	w    wire
}

// msBackState is a backend's serializable state.
type msBackState struct {
	Executed map[string]bool // request ids whose side effect committed here
	Pending  map[string]bool // slow-path requests accepted but not committed
}

// MSBackend commits request side effects, slow-pathing every SlowEvery-th
// request.
type MSBackend struct {
	st    msBackState
	cfg   MServiceConfig
	spare bool
	w     wire
}

// msClientState is the workload driver's serializable state.
type msClientState struct {
	Issued    int
	IssuedAt  map[string]uint64 // req id -> issue time
	Attempts  map[string]int
	Completed map[string]uint64 // req id -> end-to-end latency in ticks
	Degraded  map[string]bool   // req id -> gave up or chain said fail
	Late      int               // responses after the verdict was recorded
}

// MSClient issues Requests requests with the same per-hop timeout
// discipline the tiers use.
type MSClient struct {
	st  msClientState
	cfg MServiceConfig
	w   wire
}

// NewMService builds the client, Hops service tiers and both backends.
func NewMService(cfg MServiceConfig) map[string]dsim.Machine {
	if cfg.Hops == 0 {
		cfg.Hops = 2
	}
	if cfg.Requests == 0 {
		cfg.Requests = 6
	}
	if cfg.Timeout == 0 {
		cfg.Timeout = 60
	}
	if cfg.SlowDelay == 0 {
		cfg.SlowDelay = 40
	}
	ms := map[string]dsim.Machine{
		MSClientName: &MSClient{cfg: cfg},
		MSBackName:   &MSBackend{cfg: cfg},
		MSBack2Name:  &MSBackend{cfg: cfg, spare: true},
	}
	for i := 0; i < cfg.Hops; i++ {
		ms[MSSvcName(i)] = &MSService{cfg: cfg, self: i}
	}
	return ms
}

// msDeadline is attempt n's timeout (backoff accrues per attempt).
func (cfg MServiceConfig) msDeadline(attempt int) uint64 {
	return cfg.Timeout + uint64(attempt)*cfg.Backoff
}

// msLatencyBound is the worst-case end-to-end budget the client holds a
// completed request to: every tier spending its full retry schedule, plus
// the backend slow path.
func (cfg MServiceConfig) msLatencyBound() uint64 {
	perHop := uint64(0)
	for a := 0; a <= cfg.Retries+1; a++ {
		perHop += cfg.msDeadline(a)
	}
	return perHop*uint64(cfg.Hops+2) + cfg.SlowDelay
}

// State implements dsim.Machine.
func (s *MSService) State() any { return &s.st }

// Init allocates the maps (also serving a checkpoint-less restart).
func (s *MSService) Init(ctx dsim.Context) {
	s.st = msSvcState{
		Upstream:   map[string]string{},
		Done:       map[string]string{},
		Attempts:   map[string]int{},
		FailedOver: map[string]bool{},
	}
}

// downstream is the next chain member: the following tier, or the primary
// backend for the last tier.
func (s *MSService) downstream() string {
	if s.self == s.cfg.Hops-1 {
		return MSBackName
	}
	return MSSvcName(s.self + 1)
}

func (s *MSService) forward(ctx dsim.Context, id, to string) {
	s.st.Attempts[id]++
	ctx.Send(to, s.w.verb("req").str(id))
	ctx.SetTimer("t|"+id, s.cfg.msDeadline(s.st.Attempts[id]-1))
}

// relay records the verdict and passes it to whoever is waiting upstream.
// Verdicts are sticky: later duplicate or contradicting responses are
// absorbed, so one request yields at most one upstream answer.
func (s *MSService) relay(ctx dsim.Context, id, verdict string) {
	s.st.Done[id] = verdict
	if up := s.st.Upstream[id]; up != "" {
		ctx.Send(up, s.w.verb(verdict).str(id))
	}
}

// OnMessage forwards requests downstream and relays verdicts upstream.
func (s *MSService) OnMessage(ctx dsim.Context, from string, payload []byte) {
	kind, rawID, ok := cut(payload)
	if !ok || len(rawID) == 0 {
		return // corrupted beyond parsing: drop, the sender will retry
	}
	id := s.w.intern(rawID)
	switch string(kind) {
	case "req":
		if v, done := s.st.Done[id]; done {
			ctx.Send(from, s.w.verb(v).str(id)) // idempotent cached verdict
			return
		}
		s.st.Upstream[id] = from
		if s.st.Attempts[id] == 0 {
			s.forward(ctx, id, s.downstream())
		}
	case "ok":
		if _, done := s.st.Done[id]; !done {
			s.relay(ctx, id, "ok")
		}
	case "fail":
		if _, done := s.st.Done[id]; !done {
			s.relay(ctx, id, "fail")
		}
	}
}

// OnTimer drives the retry schedule: re-send while attempts remain, then
// either degrade gracefully or — the seeded bug — fail over to the spare
// backend while the primary may still be mid-flight on the slow path.
func (s *MSService) OnTimer(ctx dsim.Context, name string) {
	id, ok := strings.CutPrefix(name, "t|")
	if !ok {
		return
	}
	if _, done := s.st.Done[id]; done {
		return
	}
	if s.st.Attempts[id] <= s.cfg.Retries {
		s.forward(ctx, id, s.downstream())
		return
	}
	if s.cfg.Buggy && s.self == s.cfg.Hops-1 && !s.st.FailedOver[id] {
		// BUG: retry exhaustion is treated as backend death. The primary
		// merely missed a too-tight deadline and will still commit, so the
		// spare commits the same request a second time.
		s.st.FailedOver[id] = true
		s.forward(ctx, id, MSBack2Name)
		return
	}
	s.relay(ctx, id, "fail")
}

// OnRollback is unused; a restarted tier re-learns from retries.
func (s *MSService) OnRollback(dsim.Context, dsim.RollbackInfo) {}

// State implements dsim.Machine.
func (b *MSBackend) State() any { return &b.st }

// Init allocates the maps and recovers durably committed request ids, so a
// crash-restarted backend re-serves cached verdicts instead of committing
// a side effect twice.
func (b *MSBackend) Init(ctx dsim.Context) {
	b.st = msBackState{Executed: map[string]bool{}, Pending: map[string]bool{}}
	b.recoverExecuted(ctx)
}

func (b *MSBackend) recoverExecuted(ctx dsim.Context) {
	for _, dk := range ctx.DurableKeys() {
		if id, ok := strings.CutPrefix(dk, msDonePrefix); ok {
			b.st.Executed[id] = true
		}
	}
}

// commit forces the side effect to stable storage, then responds. The
// durable write comes first: once the response can be observed, a restart
// must not forget the execution and commit again.
func (b *MSBackend) commit(ctx dsim.Context, id string) {
	delete(b.st.Pending, id)
	if !b.st.Executed[id] {
		ctx.DurablePut(msDonePrefix+id, b.w.verb("1"))
		b.st.Executed[id] = true
	}
	ctx.Send(MSSvcName(b.cfg.Hops-1), b.w.verb("ok").str(id))
}

// slowPath reports whether request id models a slow downstream dependency.
func (b *MSBackend) slowPath(id string) bool {
	if b.cfg.SlowEvery <= 0 || b.spare {
		return false // the spare is idle capacity: always fast
	}
	n, err := strconv.Atoi(id)
	return err == nil && n%b.cfg.SlowEvery == 0
}

// OnMessage accepts requests: fast ones commit immediately, slow ones park
// behind a processing timer. Duplicates of an executed request re-serve
// the cached verdict; duplicates of a pending one are absorbed.
func (b *MSBackend) OnMessage(ctx dsim.Context, from string, payload []byte) {
	kind, rawID, ok := cut(payload)
	if !ok || string(kind) != "req" || len(rawID) == 0 {
		return
	}
	id := b.w.intern(rawID)
	if b.st.Executed[id] {
		ctx.Send(MSSvcName(b.cfg.Hops-1), b.w.verb("ok").str(id))
		return
	}
	if b.st.Pending[id] {
		return
	}
	if b.slowPath(id) {
		b.st.Pending[id] = true
		ctx.SetTimer("slow|"+id, b.cfg.SlowDelay)
		return
	}
	b.commit(ctx, id)
}

// OnTimer finishes a slow-path request.
func (b *MSBackend) OnTimer(ctx dsim.Context, name string) {
	if id, ok := strings.CutPrefix(name, "slow|"); ok && b.st.Pending[id] {
		b.commit(ctx, id)
	}
}

// OnRollback re-learns durably committed requests after a crash restart
// (the restart purged the slow-path timers; upstream retries re-drive any
// request that was still pending).
func (b *MSBackend) OnRollback(ctx dsim.Context, info dsim.RollbackInfo) {
	if info.CrashRestart {
		b.recoverExecuted(ctx)
	}
}

// State implements dsim.Machine.
func (c *MSClient) State() any { return &c.st }

// Init allocates the maps and schedules the first request.
func (c *MSClient) Init(ctx dsim.Context) {
	c.st = msClientState{
		IssuedAt:  map[string]uint64{},
		Attempts:  map[string]int{},
		Completed: map[string]uint64{},
		Degraded:  map[string]bool{},
	}
	ctx.SetTimer("issue", 1)
}

func (c *MSClient) send(ctx dsim.Context, id string) {
	c.st.Attempts[id]++
	ctx.Send(MSSvcName(0), c.w.verb("req").str(id))
	ctx.SetTimer("t|"+id, c.cfg.msDeadline(c.st.Attempts[id]-1))
}

func (c *MSClient) resolved(id string) bool {
	_, done := c.st.Completed[id]
	return done || c.st.Degraded[id]
}

// OnMessage records verdicts. A response landing after the client already
// gave up is counted Late, never retro-recorded: the latency log only ever
// holds answers that met the retry schedule, which is what keeps the
// bounded-latency invariant honest under injected delay.
func (c *MSClient) OnMessage(ctx dsim.Context, from string, payload []byte) {
	kind, rawID, ok := cut(payload)
	if !ok {
		return
	}
	id := c.w.intern(rawID)
	if c.resolved(id) {
		c.st.Late++
		return
	}
	if _, issued := c.st.IssuedAt[id]; !issued {
		return // corrupted id: no such request
	}
	switch string(kind) {
	case "ok":
		c.st.Completed[id] = ctx.Now() - c.st.IssuedAt[id]
	case "fail":
		c.st.Degraded[id] = true // graceful degradation, not a violation
	}
}

// OnTimer issues the workload and drives the client's own retry schedule.
func (c *MSClient) OnTimer(ctx dsim.Context, name string) {
	if name == "issue" {
		if c.st.Issued >= c.cfg.Requests {
			return
		}
		id := strconv.Itoa(c.st.Issued)
		c.st.Issued++
		c.st.IssuedAt[id] = ctx.Now()
		c.send(ctx, id)
		if c.st.Issued < c.cfg.Requests {
			ctx.SetTimer("issue", 2+ctx.Random()%3)
		}
		return
	}
	id, ok := strings.CutPrefix(name, "t|")
	if !ok || c.resolved(id) {
		return
	}
	if c.st.Attempts[id] <= c.cfg.Retries {
		c.send(ctx, id)
		return
	}
	c.st.Degraded[id] = true
}

// OnRollback is unused; a restarted client re-learns from retries.
func (c *MSClient) OnRollback(dsim.Context, dsim.RollbackInfo) {}

// MSNoDuplicateSideEffects is the invariant the seeded timeout cascade
// violates: every request id commits on at most one backend. Retries and
// duplicated deliveries are absorbed by each backend's durable dedup, so
// only the buggy cross-backend failover can break it.
func MSNoDuplicateSideEffects() fault.GlobalInvariant {
	return fault.GlobalInvariant{
		Name: "mservice: side effect commits on one backend",
		Holds: func(states *fault.States) bool {
			primary, err := stateOrZero[msBackState](states, MSBackName)
			if err != nil {
				return false
			}
			spare, err := stateOrZero[msBackState](states, MSBack2Name)
			if err != nil {
				return false
			}
			for id := range primary.Executed {
				if spare.Executed[id] {
					return false
				}
			}
			return true
		},
	}
}

// MSNoRetryStorm bounds every process's per-request send count by its
// retry schedule (one failover attempt on top for the buggy tier): a
// violation means the backoff discipline itself is broken.
func MSNoRetryStorm(cfg MServiceConfig) fault.GlobalInvariant {
	limit := cfg.Retries + 2 // initial try + retries + one failover
	return fault.GlobalInvariant{
		Name: "mservice: bounded retries per request",
		Holds: func(states *fault.States) bool {
			for _, proc := range states.Procs() {
				var attempts map[string]int
				switch {
				case proc == MSClientName:
					if st, err := fault.Get[msClientState](states, proc); err == nil {
						attempts = st.Attempts
					}
				case strings.HasPrefix(proc, "mssvc"):
					if st, err := fault.Get[msSvcState](states, proc); err == nil {
						attempts = st.Attempts
					}
				}
				for _, n := range attempts {
					if n > limit {
						return false
					}
				}
			}
			return true
		},
	}
}

// MSBoundedLatency holds every recorded completion to the chain's
// worst-case retry budget. Injected delay cannot break it on the correct
// variant: a response that misses the client's own retry schedule is
// counted Late, not Completed.
func MSBoundedLatency(cfg MServiceConfig) fault.GlobalInvariant {
	bound := cfg.msLatencyBound()
	return fault.GlobalInvariant{
		Name: "mservice: bounded end-to-end latency",
		Holds: func(states *fault.States) bool {
			if !states.Has(MSClientName) {
				return true
			}
			st, err := fault.Get[msClientState](states, MSClientName)
			if err != nil {
				return false
			}
			for _, lat := range st.Completed {
				if lat > bound {
					return false
				}
			}
			return true
		},
	}
}
