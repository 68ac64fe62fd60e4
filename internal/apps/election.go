package apps

import (
	"strconv"
	"strings"

	"repro/internal/dsim"
	"repro/internal/fault"
)

// ElectionConfig parameterizes a Chang–Roberts-style ring election.
type ElectionConfig struct {
	N int // ring size
	// Buggy enables the seeded bug, a premature re-election: a node that
	// has seen no leader announcement by ReElectTimeout declares itself
	// leader directly — no election round, no announcement — and a buggy
	// leader ignores later announcements instead of stepping down. With a
	// timeout shorter than announcement propagation the split happens even
	// fault-free; with a generous timeout it needs message loss or delay to
	// manifest. Either way, once it happens the two leaders persist.
	Buggy bool
	// ReElectTimeout is the silence window after which a buggy node
	// self-elects. This is the misconfigured timeout the repair stage
	// (internal/repair) tunes: the protocol is split-free whenever the
	// timeout outlasts announcement (re)delivery.
	ReElectTimeout uint64
}

const (
	// electRetryEvery spaces candidacy retransmissions: a node that has seen
	// neither a leader nor its own victory re-sends its candidacy, and a
	// leader answers stray candidacies by re-announcing, so elections
	// survive dropped messages.
	electRetryEvery = 25
	// electRetries bounds candidacy retransmissions per node, so runs still
	// quiesce under total message loss.
	electRetries = 6
)

// ElectProcName returns the process ID of ring position i.
func ElectProcName(i int) string { return electNames.name(i) }

// electState is the serializable node state.
type electState struct {
	IsLeader   bool
	LeaderSeen string // announced leader, if any
	Forwards   int
	Elections  int
	Retries    int  // candidacy retransmissions spent
	SteppedOn  bool // stepped down due to a newer announcement
	// ReElectAt is the virtual time before which self-election is not
	// allowed. Checkpoint restore re-arms pending timers with fresh (short)
	// deadlines, so the timer alone cannot carry the timeout: the deadline
	// lives in state, early fires re-arm for the remainder, and
	// crash-restart/rollback restart the silence window (OnRollback).
	ReElectAt uint64
}

// Election is one ring node.
type Election struct {
	st   electState
	cfg  ElectionConfig
	self int
	w    wire
}

// NewElection builds the N ring nodes.
func NewElection(cfg ElectionConfig) map[string]dsim.Machine {
	if cfg.ReElectTimeout == 0 {
		cfg.ReElectTimeout = 30
	}
	ms := make(map[string]dsim.Machine, cfg.N)
	for i := 0; i < cfg.N; i++ {
		ms[ElectProcName(i)] = &Election{cfg: cfg, self: i}
	}
	return ms
}

func (e *Election) next() string { return ElectProcName((e.self + 1) % e.cfg.N) }

// State implements dsim.Machine.
func (e *Election) State() any { return &e.st }

// Init launches this node's candidacy (Chang–Roberts: every node may
// start; the highest ID survives the circle), arms the candidacy-retry
// watchdog, and — in the buggy variant — the premature re-election timer.
func (e *Election) Init(ctx dsim.Context) {
	e.startElection(ctx)
	ctx.SetTimer("cand-retry", electRetryEvery)
	if e.cfg.Buggy {
		e.st.ReElectAt = ctx.Now() + e.cfg.ReElectTimeout
		ctx.SetTimer("re-elect", e.cfg.ReElectTimeout)
	}
}

func (e *Election) startElection(ctx dsim.Context) {
	e.st.Elections++
	ctx.Send(e.next(), e.w.verb("cand").int(int64(e.self)))
}

func (e *Election) announce(ctx dsim.Context) {
	ctx.Send(e.next(), e.w.verb("leader").int(int64(e.self)))
}

// OnMessage implements the Chang–Roberts forwarding rule plus leader
// announcement handling. Both messages are verb|id; anything after the id
// is ignored.
func (e *Election) OnMessage(ctx dsim.Context, from string, payload []byte) {
	var f [2][]byte
	if fields(payload, f[:]) < 2 {
		return
	}
	id, err := strconv.Atoi(string(f[1]))
	if err != nil {
		return
	}
	switch string(f[0]) {
	case "cand":
		switch {
		case id == e.self:
			// Our candidacy returned: we win.
			if e.st.IsLeader {
				if !e.cfg.Buggy && e.st.LeaderSeen == ElectProcName(e.self) {
					// A duplicated or retried delivery of the winning
					// candidacy is absorbed idempotently; only the buggy
					// variant (where silent re-elections make a second win
					// genuinely suspicious) reports it.
					return
				}
				ctx.Fault("election: won twice without stepping down")
				return
			}
			e.st.IsLeader = true
			e.st.LeaderSeen = ElectProcName(e.self)
			// Announce so every node learns the winner (and, in the correct
			// protocol, so any old leader steps down).
			e.announce(ctx)
		case id > e.self:
			e.st.Forwards++
			ctx.Send(e.next(), e.w.verb("cand").int(int64(id)))
		default:
			// Swallow lower candidacies (we could start our own; the lower
			// node already did) — but a sitting leader answers them with a
			// fresh announcement, so a retried candidacy re-learns a winner
			// whose original announcement was lost.
			if e.st.IsLeader {
				e.announce(ctx)
			}
		}
	case "leader":
		if id == e.self {
			return // announcement completed the circle
		}
		if e.st.IsLeader {
			if e.cfg.Buggy {
				// BUG: omits the step-down — the old leader keeps believing
				// it leads. The announcement still forwards, so the rest of
				// the ring learns the other leader; the split persists.
				ctx.Send(e.next(), e.w.verb("leader").int(int64(id)))
				return
			}
			e.st.IsLeader = false
			e.st.SteppedOn = true
		}
		e.st.LeaderSeen = ElectProcName(id)
		ctx.Send(e.next(), e.w.verb("leader").int(int64(id)))
	}
}

// OnTimer drives the candidacy-retry watchdog and the buggy premature
// re-election: a node that has not heard an announcement assumes the
// leader died and elects itself — without an election round or step-down,
// the previous leader keeps leading.
func (e *Election) OnTimer(ctx dsim.Context, name string) {
	switch name {
	case "cand-retry":
		if e.st.LeaderSeen != "" || e.st.IsLeader || e.st.Retries >= electRetries {
			return
		}
		e.st.Retries++
		e.startElection(ctx)
		ctx.SetTimer("cand-retry", electRetryEvery)
	case "re-elect":
		if !e.cfg.Buggy {
			return
		}
		if now := ctx.Now(); now < e.st.ReElectAt {
			// A restored timer fired early (checkpoint re-arm draws a fresh
			// short deadline); wait out the remainder of the silence window.
			ctx.SetTimer("re-elect", e.st.ReElectAt-now)
			return
		}
		if e.st.LeaderSeen == "" && !e.st.IsLeader {
			// BUG: declares itself leader directly instead of running a full
			// election round with step-down.
			e.st.IsLeader = true
			e.st.LeaderSeen = ElectProcName(e.self)
		}
	}
}

// OnRollback restarts the silence window: a node revived by crash-restart
// or timeline rollback has been deaf for an unknown stretch, so it owes
// the ring a full ReElectTimeout of patience (and its restored retry
// budget a fresh chance to re-learn the leader) before concluding it died.
func (e *Election) OnRollback(ctx dsim.Context, _ dsim.RollbackInfo) {
	if e.cfg.Buggy {
		e.st.ReElectAt = ctx.Now() + e.cfg.ReElectTimeout
	}
}

// ElectionSafety is the global invariant: at most one node believes it is
// the leader.
func ElectionSafety() fault.GlobalInvariant {
	return fault.GlobalInvariant{
		Name: "election: at most one leader",
		Holds: func(states *fault.States) bool {
			leaders := 0
			for _, proc := range states.Procs() {
				if !strings.HasPrefix(proc, "elect") {
					continue
				}
				st, err := fault.Get[electState](states, proc)
				if err != nil {
					continue
				}
				if st.IsLeader {
					leaders++
				}
			}
			return leaders <= 1
		},
	}
}
