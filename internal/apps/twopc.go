package apps

import (
	"fmt"
	"strings"

	"repro/internal/dsim"
	"repro/internal/fault"
)

// TwoPCConfig parameterizes a two-phase-commit instance.
type TwoPCConfig struct {
	Participants int
	// NoVoters lists participants (by index) that vote no.
	NoVoters []int
	// SlowVoters lists participants whose vote is delayed beyond the
	// coordinator's timeout.
	SlowVoters []int
	// VoteDelay is the extra delay applied by slow voters.
	VoteDelay uint64
	// Timeout is how long the (buggy) coordinator waits for votes.
	Timeout uint64
	// Buggy makes the coordinator decide COMMIT on timeout with the votes
	// it has ("lost ack treated as success") instead of aborting — the
	// atomicity bug the Investigator hunts in experiment E3.
	Buggy bool
}

// CoordName is the coordinator's process ID.
const CoordName = "coord"

// decisionKey is the coordinator's stable-storage cell. The decision is
// forced to stable storage before the first participant can observe it, so
// a crash-restarted coordinator re-installs and re-broadcasts it instead
// of re-deciding from a pre-decision checkpoint — the classic
// unrecoverable-coordinator failure that kept this workload out of
// crash-restart chaos until the Context.Durable… layer landed.
const decisionKey = "2pc:decision"

// PartName returns the process ID of participant i.
func PartName(i int) string { return partNames.name(i) }

// coordState is the coordinator's serializable state.
type coordState struct {
	Phase    string // "prepare", "done"
	Yes, No  int
	Voted    map[string]bool // participants whose vote was counted
	Decision string          // "", "commit", "abort"
	TimedOut bool
}

// Coordinator drives one round of 2PC.
type Coordinator struct {
	st  coordState
	cfg TwoPCConfig
	w   wire
}

// partState is a participant's serializable state.
type partState struct {
	Voted    string // "", "yes", "no"
	Decision string // "", "commit", "abort"
}

// Participant votes and applies the coordinator's decision.
type Participant struct {
	st   partState
	cfg  TwoPCConfig
	self int
	w    wire
}

// NewTwoPC builds a coordinator plus participants.
func NewTwoPC(cfg TwoPCConfig) map[string]dsim.Machine {
	if cfg.Timeout == 0 {
		cfg.Timeout = 20
	}
	if cfg.VoteDelay == 0 {
		cfg.VoteDelay = 50
	}
	ms := map[string]dsim.Machine{CoordName: &Coordinator{cfg: cfg}}
	for i := 0; i < cfg.Participants; i++ {
		ms[PartName(i)] = &Participant{cfg: cfg, self: i}
	}
	return ms
}

// State implements dsim.Machine.
func (c *Coordinator) State() any { return &c.st }

// Init broadcasts PREPARE and arms the vote timeout. Init also serves a
// coordinator restarted without any checkpoint (dsim re-Inits the same
// machine instance), so it must zero the tallies — stale pre-crash
// Yes/No counts would double-count re-collected votes — and consult
// stable storage first: with a decision already on disk the round is
// over, and re-running the prepare phase could contradict it.
func (c *Coordinator) Init(ctx dsim.Context) {
	c.st = coordState{}
	if c.recoverDecision(ctx) {
		return
	}
	c.st.Phase = "prepare"
	c.st.Voted = map[string]bool{}
	c.broadcast(ctx, "prepare")
	ctx.SetTimer("vote-timeout", c.cfg.Timeout)
}

// decide broadcasts the decision. The durable write comes first: once any
// participant can observe the decision it must survive a coordinator
// crash, or a restart from a pre-decision checkpoint would re-decide —
// possibly differently — against participants that already applied it.
func (c *Coordinator) decide(ctx dsim.Context, d string) {
	ctx.DurablePut(decisionKey, c.w.verb(d))
	c.st.Decision = d
	c.st.Phase = "done"
	c.broadcast(ctx, d)
}

// broadcast sends msg to every participant.
func (c *Coordinator) broadcast(ctx dsim.Context, msg string) {
	p := c.w.verb(msg)
	for i := 0; i < c.cfg.Participants; i++ {
		ctx.Send(PartName(i), p)
	}
}

// recoverDecision re-installs a durably recorded decision, reporting
// whether one existed. The crash may have rewound the coordinator to a
// checkpoint taken before the decision (purging the still-in-flight
// broadcast with it), so the decision is re-broadcast; participants absorb
// duplicates idempotently.
func (c *Coordinator) recoverDecision(ctx dsim.Context) bool {
	d, ok := ctx.DurableGet(decisionKey)
	if !ok {
		return false
	}
	c.st.Decision = string(d)
	c.st.Phase = "done"
	c.broadcast(ctx, c.st.Decision)
	return true
}

// OnMessage tallies votes. Each participant's vote counts once: a
// duplicated network delivery must not inflate the tally (a double-counted
// YES could otherwise reach quorum while a NO is still in flight).
func (c *Coordinator) OnMessage(ctx dsim.Context, from string, payload []byte) {
	if c.st.Phase != "prepare" || c.st.Voted[from] {
		return
	}
	switch string(payload) {
	case "yes":
		c.st.Yes++
	case "no":
		c.st.No++
	default:
		return
	}
	c.st.Voted[from] = true
	if c.st.Yes+c.st.No == c.cfg.Participants {
		if c.st.No == 0 {
			c.decide(ctx, "commit")
		} else {
			c.decide(ctx, "abort")
		}
	}
}

// OnTimer fires the vote timeout.
func (c *Coordinator) OnTimer(ctx dsim.Context, name string) {
	if name != "vote-timeout" || c.st.Phase != "prepare" {
		return
	}
	c.st.TimedOut = true
	if c.cfg.Buggy {
		// BUG: missing votes are treated as silent assent. A participant
		// that voted "no" (but slowly) will abort unilaterally while the
		// rest commit — atomicity violated.
		if c.st.No == 0 {
			c.decide(ctx, "commit")
			return
		}
	}
	c.decide(ctx, "abort")
}

// OnRollback recovers the durable decision after a crash restart. A
// Time-Machine/heal rollback deliberately rewinds a consistent line so an
// alternate path can re-execute and re-decide; the substrate fences the
// abandoned timeline's cell at rollback (timeline epochs), so a
// crash-restart racing into the pre-re-decision window finds nothing to
// re-install. Recovery is therefore scoped to involuntary crash-restarts.
func (c *Coordinator) OnRollback(ctx dsim.Context, info dsim.RollbackInfo) {
	if info.CrashRestart {
		c.recoverDecision(ctx)
	}
}

// State implements dsim.Machine.
func (p *Participant) State() any { return &p.st }

// Init does nothing; participants are reactive.
func (p *Participant) Init(ctx dsim.Context) {}

func (p *Participant) votesNo() bool {
	for _, i := range p.cfg.NoVoters {
		if i == p.self {
			return true
		}
	}
	return false
}

func (p *Participant) isSlow() bool {
	for _, i := range p.cfg.SlowVoters {
		if i == p.self {
			return true
		}
	}
	return false
}

// OnMessage handles PREPARE and the decision.
func (p *Participant) OnMessage(ctx dsim.Context, from string, payload []byte) {
	switch string(payload) {
	case "prepare":
		vote := "yes"
		if p.votesNo() {
			vote = "no"
			// A no-voter knows the outcome must be abort and aborts
			// unilaterally (standard 2PC: a NO vote is binding).
			p.st.Decision = "abort"
		}
		p.st.Voted = vote
		if p.isSlow() {
			ctx.SetTimer("slow-vote", p.cfg.VoteDelay)
		} else {
			ctx.Send(CoordName, p.w.verb(vote))
		}
	case "commit":
		p.decided(ctx, "commit")
	case "abort":
		p.decided(ctx, "abort")
	}
}

// decided applies the coordinator's decision d.
func (p *Participant) decided(ctx dsim.Context, d string) {
	if p.st.Decision == "" {
		p.st.Decision = d
	} else if p.st.Decision != d {
		// Local detection of the atomicity violation: the coordinator's
		// decision contradicts this participant's binding vote.
		ctx.Fault(fmt.Sprintf("2pc: coordinator says %s but local decision is %s", d, p.st.Decision))
	}
}

// OnTimer sends the delayed vote.
func (p *Participant) OnTimer(ctx dsim.Context, name string) {
	if name == "slow-vote" && p.st.Voted != "" {
		ctx.Send(CoordName, p.w.verb(p.st.Voted))
	}
}

// OnRollback does nothing; the coordinator restarts rounds.
func (p *Participant) OnRollback(ctx dsim.Context, info dsim.RollbackInfo) {}

// TwoPCAtomicity is the global invariant: no two processes decide
// differently (ignoring undecided ones).
func TwoPCAtomicity() fault.GlobalInvariant {
	return fault.GlobalInvariant{
		Name: "2pc: uniform decision",
		Holds: func(states *fault.States) bool {
			first := ""
			for _, proc := range states.Procs() {
				var decision string
				switch {
				case proc == CoordName:
					if st, err := fault.Get[coordState](states, proc); err == nil {
						decision = st.Decision
					}
				case strings.HasPrefix(proc, "part"):
					if st, err := fault.Get[partState](states, proc); err == nil {
						decision = st.Decision
					}
				}
				switch {
				case decision == "":
				case first == "":
					first = decision
				case decision != first:
					return false
				}
			}
			return true
		},
	}
}
