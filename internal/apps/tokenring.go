// Package apps contains the distributed workload applications used by the
// FixD experiments and examples: a token-ring mutual-exclusion protocol, a
// two-phase commit, a replicated key-value store, a ring leader election,
// and a distributed bank. Each app has a correct and a seeded-bug variant;
// the bugs are of the classes the paper motivates — scheduling races,
// timeout mis-handling, and lost-message corner cases that only manifest
// under particular interleavings (paper §1, §2.1).
package apps

import (
	"strconv"
	"strings"

	"repro/internal/dsim"
	"repro/internal/fault"
)

// TokenRingConfig parameterizes a token-ring instance.
type TokenRingConfig struct {
	N        int    // ring size
	Rounds   int    // passes each node performs before halting
	HoldTime uint64 // virtual ticks the token is held
	// Buggy enables token regeneration on timeout without checking whether
	// the token is merely slow — the classic duplicate-token race. A
	// RegenTimeout shorter than a chaos-delayed circulation regenerates
	// while the real token is alive; one long enough never fires before
	// the ring completes its rounds, which is what the repair stage
	// (internal/repair) exploits.
	Buggy bool
	// RegenTimeout is the token-silence window after which a buggy node
	// regenerates the token.
	RegenTimeout uint64
}

// ringRetxEvery spaces token retransmissions while a pass is unacked, so
// a finite drop/crash window cannot permanently lose the token (the
// receiver's generation check discards the duplicates a retransmission
// race produces).
const ringRetxEvery = 30

// ringRetxTries bounds retransmissions of a single pass. A successor that
// has halted drops deliveries and will never acknowledge; without a bound
// the sender retransmits into the silence until the step budget is gone.
// Giving the token up for lost after the budget lets the sender halt (or
// quiesce) — a stalled lap is a liveness gap, not a safety violation.
const ringRetxTries = 8

// tokenRingState is the serializable per-node state.
type tokenRingState struct {
	HasToken  bool
	TokenGen  uint64 // generation of the token currently held
	LastGen   uint64 // highest generation this node ever accepted
	Passes    int    // times this node forwarded the token
	Regens    int    // tokens regenerated (buggy path)
	InCS      bool   // currently in the critical section
	CSEntries int
	Fixed     bool // alternate path taken after rollback: stop regenerating
	// PendingGen is the generation of an unacked pass (0 = none); the retx
	// timer re-sends it until the successor acknowledges or RetxSpent
	// exhausts ringRetxTries.
	PendingGen uint64
	RetxSpent  int
	// LastSeen is the last virtual time this node held the token. The
	// regen timer measures token silence against it: checkpoint restore
	// re-arms pending timers with fresh short deadlines, so the timeout
	// must live in state, and early fires re-arm for the remainder.
	LastSeen uint64
}

// TokenRing is one node of the ring.
type TokenRing struct {
	st   tokenRingState
	cfg  TokenRingConfig
	self int // position in the ring
	w    wire
}

// RingProcName returns the process ID of ring position i.
func RingProcName(i int) string { return ringNames.name(i) }

// NewTokenRing builds the N machines of a token ring.
func NewTokenRing(cfg TokenRingConfig) map[string]dsim.Machine {
	if cfg.HoldTime == 0 {
		cfg.HoldTime = 2
	}
	if cfg.RegenTimeout == 0 {
		cfg.RegenTimeout = 15
	}
	ms := make(map[string]dsim.Machine, cfg.N)
	for i := 0; i < cfg.N; i++ {
		ms[RingProcName(i)] = &TokenRing{cfg: cfg, self: i}
	}
	return ms
}

func (t *TokenRing) next() string { return RingProcName((t.self + 1) % t.cfg.N) }
func (t *TokenRing) prev() string { return RingProcName((t.self + t.cfg.N - 1) % t.cfg.N) }

// State implements dsim.Machine.
func (t *TokenRing) State() any { return &t.st }

// Init gives node 0 the initial token and arms the watchdog everywhere.
func (t *TokenRing) Init(ctx dsim.Context) {
	if t.self == 0 {
		t.st.HasToken = true
		t.st.TokenGen = 1
		t.st.LastGen = 1
		t.st.LastSeen = ctx.Now()
		t.enterCS(ctx)
	}
	if t.cfg.Buggy {
		ctx.SetTimer("regen", t.cfg.RegenTimeout)
	}
}

// enterCS marks the node in its critical section and schedules the exit.
func (t *TokenRing) enterCS(ctx dsim.Context) {
	t.st.InCS = true
	t.st.CSEntries++
	// Record critical-section occupancy in the heap (one slot per node).
	ctx.Heap().WriteUint64(t.self*8, uint64(t.st.CSEntries))
	ctx.SetTimer("leave", t.cfg.HoldTime)
}

// OnMessage handles token arrival and pass acknowledgements. The token
// carries a generation number that increments on every hop; both variants
// discard a generation they have already accepted — that is what makes
// retransmission (and a crashed node replaying an old pass after a
// checkpoint restore) safe. The seeded bug is regeneration, not receipt:
// regenerated tokens carry fresh, never-seen generations, so the check
// does not mask them. Every token receipt is acknowledged so the sender
// stops retransmitting.
func (t *TokenRing) OnMessage(ctx dsim.Context, from string, payload []byte) {
	var f [2][]byte
	if fields(payload, f[:]) != 2 {
		return
	}
	gen, err := strconv.ParseUint(string(f[1]), 10, 64)
	if err != nil {
		return
	}
	switch string(f[0]) {
	case "ack":
		if t.st.PendingGen != 0 && gen == t.st.PendingGen {
			t.st.PendingGen = 0
			t.maybeHalt(ctx)
		}
	case "token":
		if t.st.Passes >= t.cfg.Rounds {
			// This node's work is done: retire the token instead of
			// starting another lap, but still acknowledge so the sender
			// can finish too.
			ctx.Send(t.prev(), t.w.verb("ack").uint(gen))
			t.maybeHalt(ctx)
			return
		}
		if gen <= t.st.LastGen {
			// Stale duplicate (retransmission or replayed pass): discard,
			// but re-acknowledge — the sender may have missed the ack. A
			// buggy holder still reports the suspicious arrival: with
			// unchecked regeneration in play, a second token showing up
			// mid-hold is the race's local symptom.
			if t.cfg.Buggy && !t.st.Fixed && (t.st.HasToken || t.st.InCS) {
				ctx.Fault("token-ring: received token while already holding one")
			}
			ctx.Send(t.prev(), t.w.verb("ack").uint(gen))
			return
		}
		ctx.Send(t.prev(), t.w.verb("ack").uint(gen))
		if t.st.HasToken || t.st.InCS {
			// A second live token: the local manifestation of the
			// regeneration race.
			ctx.Fault("token-ring: received token while already holding one")
			return
		}
		t.st.HasToken = true
		t.st.TokenGen = gen
		t.st.LastGen = gen
		t.st.LastSeen = ctx.Now()
		t.enterCS(ctx)
	}
}

// pass forwards the token to the successor and keeps retransmitting until
// it is acknowledged.
func (t *TokenRing) pass(ctx dsim.Context) {
	t.st.PendingGen = t.st.TokenGen + 1
	t.st.RetxSpent = 0
	ctx.Send(t.next(), t.w.verb("token").uint(t.st.PendingGen))
	ctx.SetTimer("retx", ringRetxEvery)
}

// maybeHalt stops this node once its rounds are done and its last pass is
// acknowledged; halted processes drop their pending timers, so a finished
// ring quiesces instead of firing watchdogs into the silence after the
// last pass.
func (t *TokenRing) maybeHalt(ctx dsim.Context) {
	if t.st.Passes >= t.cfg.Rounds && t.st.PendingGen == 0 {
		ctx.Halt()
	}
}

// OnTimer leaves the critical section, retransmits an unacked pass, or
// regenerates a "lost" token.
func (t *TokenRing) OnTimer(ctx dsim.Context, name string) {
	switch name {
	case "leave":
		if !t.st.InCS {
			return
		}
		t.st.InCS = false
		t.st.HasToken = false
		t.st.Passes++
		t.pass(ctx)
	case "retx":
		if t.st.PendingGen == 0 {
			return
		}
		if t.st.RetxSpent >= ringRetxTries {
			// The successor is unreachable (halted, or behind a drop window
			// longer than the whole retransmission budget): give the token
			// up for lost so this node can halt instead of spinning.
			t.st.PendingGen = 0
			t.maybeHalt(ctx)
			return
		}
		t.st.RetxSpent++
		ctx.Send(t.next(), t.w.verb("token").uint(t.st.PendingGen))
		ctx.SetTimer("retx", ringRetxEvery)
	case "regen":
		if !t.cfg.Buggy || t.st.Fixed {
			return
		}
		if now := ctx.Now(); now < t.st.LastSeen+t.cfg.RegenTimeout {
			// Token seen recently (or a restored timer fired early): wait
			// out the remainder of the silence window.
			ctx.SetTimer("regen", t.st.LastSeen+t.cfg.RegenTimeout-now)
			return
		}
		if !t.st.HasToken {
			// BUG: the token may just be slow; a correct protocol would
			// run a ring-wide query before regenerating.
			t.st.Regens++
			t.st.HasToken = true
			t.st.TokenGen = t.st.LastGen + uint64(t.cfg.N)
			t.st.LastGen = t.st.TokenGen
			t.st.LastSeen = ctx.Now()
			t.enterCS(ctx)
		}
		ctx.SetTimer("regen", t.cfg.RegenTimeout)
	}
}

// OnRollback takes the alternate execution path: stop regenerating tokens
// (the paper's "different branch of execution that could bypass the error",
// §3.2) and restart the silence window for a revived node.
func (t *TokenRing) OnRollback(ctx dsim.Context, info dsim.RollbackInfo) {
	t.st.Fixed = true
}

// TokenRingInvariant is the global mutual-exclusion property: at most one
// node holds the token / is in its critical section.
func TokenRingInvariant() fault.GlobalInvariant {
	return fault.GlobalInvariant{
		Name: "token-ring: at most one holder",
		Holds: func(states *fault.States) bool {
			holders := 0
			for _, proc := range states.Procs() {
				if !strings.HasPrefix(proc, "ring") {
					continue
				}
				st, err := fault.Get[tokenRingState](states, proc)
				if err != nil {
					continue // not a ring node
				}
				if st.InCS {
					holders++
				}
			}
			return holders <= 1
		},
	}
}
