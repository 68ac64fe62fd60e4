package apps

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/dsim"
	"repro/internal/fault"
)

// BankConfig parameterizes the distributed bank workload: each branch owns
// a slice of accounts (balances live in the branch's heap, one 8-byte slot
// per account) and issues transfers to random peers. This is the bulk-state
// workload behind the checkpoint experiments (E2, E5).
type BankConfig struct {
	Branches       int
	AccountsPer    int   // accounts per branch
	InitialBalance int64 // per account
	Transfers      int   // transfers each branch initiates
	MaxAmount      int64 // per-transfer bound (default 100)
	// Buggy skips the funds check on debit, allowing overdrafts (negative
	// balances), detected locally via Context.Fault.
	Buggy bool
	// LoseCredits makes every k-th incoming credit vanish after being
	// acknowledged in the books — violating conservation of money. 0 = off.
	LoseCredits int
}

// BankProcName returns the process ID of branch i.
func BankProcName(i int) string { return bankNames.name(i) }

// bankState is a branch's serializable summary (the full ledger lives in
// the heap).
type bankState struct {
	LocalTotal  int64 // sum of this branch's account balances
	SentCredits int64 // money debited here and sent to peers
	RecvCredits int64 // money received and credited here
	LostCredits int64 // money acknowledged but not applied (the bug)
	Initiated   int
	Overdrafts  int
	Fixed       bool // alternate path after rollback: enforce funds check
}

// Bank is one branch.
type Bank struct {
	st   bankState
	cfg  BankConfig
	self int
	w    wire
}

// NewBank builds the branch machines.
func NewBank(cfg BankConfig) map[string]dsim.Machine {
	if cfg.MaxAmount == 0 {
		cfg.MaxAmount = 100
	}
	ms := make(map[string]dsim.Machine, cfg.Branches)
	for i := 0; i < cfg.Branches; i++ {
		ms[BankProcName(i)] = &Bank{cfg: cfg, self: i}
	}
	return ms
}

// State implements dsim.Machine.
func (b *Bank) State() any { return &b.st }

// balance reads account a's balance from the heap.
func (b *Bank) balance(ctx dsim.Context, a int) int64 {
	return int64(ctx.Heap().ReadUint64(a * 8))
}

// setBalance writes account a's balance into the heap and maintains the
// serializable summary.
func (b *Bank) setBalance(ctx dsim.Context, a int, v int64) {
	old := b.balance(ctx, a)
	ctx.Heap().WriteUint64(a*8, uint64(v))
	b.st.LocalTotal += v - old
}

// Init funds the accounts and schedules the transfer loop.
func (b *Bank) Init(ctx dsim.Context) {
	for a := 0; a < b.cfg.AccountsPer; a++ {
		b.setBalance(ctx, a, b.cfg.InitialBalance)
	}
	if b.cfg.Transfers > 0 && b.cfg.Branches > 1 {
		ctx.SetTimer("xfer", 1+uint64(b.self))
	}
}

// OnTimer initiates the next transfer: debit a local account, send the
// credit to a random peer branch.
func (b *Bank) OnTimer(ctx dsim.Context, name string) {
	if name != "xfer" || b.st.Initiated >= b.cfg.Transfers {
		return
	}
	acct := int(ctx.Random() % uint64(b.cfg.AccountsPer))
	peer := int(ctx.Random() % uint64(b.cfg.Branches))
	if peer == b.self {
		peer = (peer + 1) % b.cfg.Branches
	}
	amount := 1 + int64(ctx.Random()%uint64(b.cfg.MaxAmount))
	bal := b.balance(ctx, acct)
	if b.cfg.Buggy && !b.st.Fixed {
		// BUG: no funds check — the account can go negative.
	} else if bal < amount {
		amount = bal // transfer what's available
	}
	if amount > 0 {
		b.setBalance(ctx, acct, bal-amount)
		b.st.SentCredits += amount
		ctx.Send(BankProcName(peer), b.w.verb("credit").int(int64(acct%b.cfg.AccountsPer)).int(amount))
	}
	if newBal := b.balance(ctx, acct); newBal < 0 {
		b.st.Overdrafts++
		ctx.Fault(fmt.Sprintf("bank: account %d overdrawn to %d", acct, newBal))
	}
	b.st.Initiated++
	if b.st.Initiated < b.cfg.Transfers {
		ctx.SetTimer("xfer", 1+ctx.Random()%4)
	}
}

// OnMessage applies an incoming credit. One naming an account no branch
// has (a corrupted "-1") is dropped like any other unparseable message:
// the money stays in flight rather than in nobody's books.
func (b *Bank) OnMessage(ctx dsim.Context, from string, payload []byte) {
	var f [3][]byte
	if fields(payload, f[:]) != 3 || string(f[0]) != "credit" {
		return
	}
	acct, err1 := strconv.Atoi(string(f[1]))
	amount, err2 := strconv.ParseInt(string(f[2]), 10, 64)
	if err1 != nil || err2 != nil || acct < 0 {
		return
	}
	b.st.RecvCredits += amount
	if b.cfg.LoseCredits > 0 && int(b.st.RecvCredits)%b.cfg.LoseCredits == 0 && !b.st.Fixed {
		// BUG: the credit is acknowledged in the books but never applied
		// to an account — money disappears from the system.
		b.st.LostCredits += amount
		return
	}
	b.setBalance(ctx, acct%b.cfg.AccountsPer, b.balance(ctx, acct%b.cfg.AccountsPer)+amount)
}

// OnRollback enables the alternate, checked execution path.
func (b *Bank) OnRollback(ctx dsim.Context, info dsim.RollbackInfo) {
	b.st.Fixed = true
}

// BankConservation is the global conservation-of-money invariant:
// Σ branch totals + money in flight (sent − received) equals the initial
// endowment.
func BankConservation(cfg BankConfig) fault.GlobalInvariant {
	want := int64(cfg.Branches) * int64(cfg.AccountsPer) * cfg.InitialBalance
	return fault.GlobalInvariant{
		Name: "bank: money conserved",
		Holds: func(states *fault.States) bool {
			var total, sent, recv int64
			for _, proc := range states.Procs() {
				if !strings.HasPrefix(proc, "bank") {
					continue
				}
				st, err := fault.Get[bankState](states, proc)
				if err != nil {
					return false
				}
				total += st.LocalTotal
				sent += st.SentCredits
				recv += st.RecvCredits
			}
			return total+(sent-recv) == want
		},
	}
}

// BankNoOverdraft is the global no-negative-balance invariant.
func BankNoOverdraft() fault.GlobalInvariant {
	return fault.GlobalInvariant{
		Name: "bank: no overdrafts",
		Holds: func(states *fault.States) bool {
			for _, proc := range states.Procs() {
				if !strings.HasPrefix(proc, "bank") {
					continue
				}
				st, err := fault.Get[bankState](states, proc)
				if err != nil {
					return false
				}
				if st.Overdrafts > 0 {
					return false
				}
			}
			return true
		},
	}
}
