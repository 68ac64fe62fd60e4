package apps

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/dsim"
)

// FuzzFields: fields cuts exactly where strings.Split cuts — same count,
// same contents — whatever the bytes and however short dst is.
func FuzzFields(f *testing.F) {
	for _, p := range payloadSeeds {
		f.Add([]byte(p), uint8(5))
	}
	f.Fuzz(func(t *testing.T, data []byte, room uint8) {
		want := strings.Split(string(data), "|")
		for _, n := range []int{int(room), len(want) + 1} {
			dst := make([][]byte, n)
			if got := fields(data, dst); got != len(want) {
				t.Fatalf("fields(%q) with room for %d = %d fields, strings.Split has %d", data, n, got, len(want))
			}
			for i := 0; i < min(n, len(want)); i++ {
				if string(dst[i]) != want[i] {
					t.Fatalf("fields(%q)[%d] = %q, strings.Split has %q", data, i, dst[i], want[i])
				}
			}
		}
		before, after, found := cut(data)
		wb, wa, wf := strings.Cut(string(data), "|")
		if string(before) != wb || string(after) != wa || found != wf {
			t.Fatalf("cut(%q) = %q, %q, %v; strings.Cut has %q, %q, %v", data, before, after, found, wb, wa, wf)
		}
	})
}

// TestWireRendersWhatSprintfRendered: the builder's bytes are the bytes
// the fmt verbs it replaced produced, including past the scratch's end.
func TestWireRendersWhatSprintfRendered(t *testing.T) {
	var w wire
	long := strings.Repeat("x", 3*len(w.buf))
	for _, c := range []struct {
		build func() payload
		want  string
	}{
		{func() payload { return w.verb("prepare") }, "prepare"},
		{func() payload { return w.verb("credit").int(3).int(-17) }, fmt.Sprintf("credit|%d|%d", 3, -17)},
		{func() payload { return w.verb("token").uint(1<<64 - 1) }, fmt.Sprintf("token|%d", uint64(1<<64-1))},
		{func() payload { return w.verb("put").tagged("k", 12).tagged("v", 6999) }, fmt.Sprintf("put|k%d|v%d", 12, 6999)},
		{func() payload { return w.verb("fill").raw([]byte("k1")).str("").uint(0).raw([]byte("7")) },
			fmt.Sprintf("fill|%s|%s|%d|%s", "k1", "", 0, "7")},
		{func() payload { return w.verb("repl").str(long).raw([]byte(long)).uint(9) }, fmt.Sprintf("repl|%s|%s|%d", long, long, 9)},
	} {
		if got := c.build(); string(got) != c.want {
			t.Errorf("built %q, fmt renders %q", got, c.want)
		}
	}
	a, b := w.intern([]byte("k1")), w.intern([]byte("k1"))
	if a != "k1" || len(w.keys) != 1 {
		t.Errorf("intern: %q, %q, table %v", a, b, w.keys)
	}
}

// stubCtx is the cheapest dsim.Context there is: it honours the contract
// (Send and DurablePut keep nothing) and does no work of its own, so an
// allocation counted around a handler call is the handler's.
type stubCtx struct {
	heap   *checkpoint.Heap
	now    uint64
	sends  int
	sent   []byte // the last payload, copied into reused room
	faults int
	fault  string // the last fault report
}

func (c *stubCtx) Self() string   { return "stub" }
func (c *stubCtx) Now() uint64    { c.now++; return c.now }
func (c *stubCtx) Random() uint64 { c.now++; return c.now * 2654435761 }
func (c *stubCtx) Send(to string, payload []byte) {
	c.sends++
	c.sent = append(c.sent[:0], payload...)
}
func (c *stubCtx) SetTimer(string, uint64)               {}
func (c *stubCtx) Heap() *checkpoint.Heap                { return c.heap }
func (c *stubCtx) DurablePut(string, []byte)             {}
func (c *stubCtx) DurableGet(string) ([]byte, bool)      { return nil, false }
func (c *stubCtx) DurableKeys() []string                 { return nil }
func (c *stubCtx) Log(string, ...any)                    {}
func (c *stubCtx) Fault(desc string)                     { c.faults++; c.fault = desc }
func (c *stubCtx) Checkpoint(string) string              { return "" }
func (c *stubCtx) Speculate(string) (string, error)      { return "", nil }
func (c *stubCtx) Commit(string) error                   { return nil }
func (c *stubCtx) AbortSpec(specID, reason string) error { return nil }
func (c *stubCtx) Halt()                                 {}

// TestHandlersAllocateNothing: once a machine has seen its keys, parsing a
// message and formatting the reply costs no allocation in any application.
// Each case warms a machine up, then counts allocations around one more
// turn of its hot handler; the expected send count proves the turn took
// the path that formats.
func TestHandlersAllocateNothing(t *testing.T) {
	ctx := &stubCtx{heap: checkpoint.NewHeap(64 << 10), sent: make([]byte, 0, 64)}
	msg := func(m dsim.Machine, payloads ...string) func() {
		raw := make([][]byte, len(payloads))
		for i, p := range payloads {
			raw[i] = []byte(p)
		}
		return func() {
			for _, p := range raw {
				m.OnMessage(ctx, "peer", p)
			}
		}
	}
	timer := func(m dsim.Machine, name string) func() { return func() { m.OnTimer(ctx, name) } }

	bank := &Bank{cfg: BankConfig{Branches: 3, AccountsPer: 4, InitialBalance: 1 << 40, Transfers: 1 << 40, MaxAmount: 100}}
	ring := &TokenRing{cfg: TokenRingConfig{N: 4, Rounds: 1 << 40, HoldTime: 2}, self: 1}
	var gen uint64
	var peer wire // the ring neighbours' side of the conversation
	kvClient := &KVClient{cfg: KVConfig{Writes: 1 << 40, Keys: 64}}
	kvReplica := &KVNode{cfg: KVConfig{Replicas: 2, Keys: 64}}
	elect := &Election{cfg: ElectionConfig{N: 5}, self: 1}
	part := &Participant{cfg: TwoPCConfig{Participants: 3}}
	svc := &MSService{cfg: MServiceConfig{Hops: 2, Retries: 2, Timeout: 60}}
	back := &MSBackend{cfg: MServiceConfig{Hops: 2}}
	caPrimary := &CAPrimary{cfg: CacheAsideConfig{Keys: 2}}
	caCache := &CACache{cfg: CacheAsideConfig{Keys: 2}}
	caClient := &CAClient{cfg: CacheAsideConfig{Keys: 2, Rounds: 1 << 40}}

	for _, c := range []struct {
		name  string
		m     dsim.Machine
		warm  func()
		turn  func()
		sends int // per turn
	}{
		{"bank transfer", bank, nil, timer(bank, "xfer"), 1},
		{"bank credit", bank, nil, msg(bank, "credit|3|17"), 0},
		{"tokenring lap", ring, nil, func() {
			gen += 4
			ring.OnMessage(ctx, "ring00", peer.verb("token").uint(gen)) // acks, enters the CS
			ring.OnTimer(ctx, "leave")                                  // passes gen+1 on
			ring.OnMessage(ctx, "ring02", peer.verb("ack").uint(gen+1))
		}, 2},
		{"kv client write", kvClient, nil, timer(kvClient, "write"), 1},
		{"kv replica, superseded write", kvReplica, msg(kvReplica, "repl|k12|v7|9"), msg(kvReplica, "repl|k12|v3|4"), 0},
		{"election forward", elect, nil, msg(elect, "cand|3", "leader|4"), 2},
		{"2pc vote", part, nil, msg(part, "prepare", "commit"), 1},
		{"mservice cached verdict", svc, msg(svc, "req|5", "ok|5"), msg(svc, "req|5", "fail|5"), 1},
		{"mservice backend re-serve", back, msg(back, "req|5"), msg(back, "req|5"), 1},
		{"cacheaside fetch", caPrimary, msg(caPrimary, "put|k1|v2"), msg(caPrimary, "fetch|k1|8", "invack|k1|0"), 1},
		{"cacheaside hit", caCache, msg(caCache, "fill|k1|v2|1|0"), msg(caCache, "get|k1|1|9", "inv|k1|1"), 2},
		{"cacheaside ack", caClient, msg(caClient, "wack|k1|1"), msg(caClient, "wack|k1|1", "val|k1|v2|1|99"), 0},
	} {
		t.Run(c.name, func(t *testing.T) {
			c.m.Init(ctx)
			if c.warm != nil {
				c.warm()
			}
			c.turn()
			before := ctx.sends
			const runs = 200
			allocs := testing.AllocsPerRun(runs, c.turn)
			if got := (ctx.sends - before) / (runs + 1); got != c.sends {
				t.Errorf("%d sends a turn, want %d: the turn is not on the path it names (last sent %q)", got, c.sends, ctx.sent)
			}
			if allocs != 0 {
				t.Errorf("%v allocations a turn, want 0", allocs)
			}
		})
	}

	// The one string a write must allocate is the value it keeps; the
	// primary also names the durable cell it forces first.
	primary := &KVNode{cfg: KVConfig{Replicas: 2, Keys: 64}, primary: true}
	primary.Init(ctx)
	put := msg(primary, "put|k12|v7")
	put()
	if allocs := testing.AllocsPerRun(200, put); allocs > 2 {
		t.Errorf("kv primary put: %v allocations, want at most 2 (the kept value, the durable cell's name)", allocs)
	}
	if want := "repl|k12|v7|"; !bytes.HasPrefix(ctx.sent, []byte(want)) {
		t.Errorf("kv primary put replicated %q, want %s<version>", ctx.sent, want)
	}

	// An overdraft on the buggy bank reports a fault each transfer; the
	// report's text is the one string the turn allocates.
	broke := &Bank{cfg: BankConfig{Branches: 3, AccountsPer: 4, Transfers: 1 << 40, MaxAmount: 100, Buggy: true}}
	broke.Init(ctx)
	overdraw := timer(broke, "xfer")
	overdraw()
	sends, faults := ctx.sends, ctx.faults
	if allocs := testing.AllocsPerRun(200, overdraw); allocs > 1 {
		t.Errorf("bank overdraft: %v allocations a turn, want at most 1 (the fault report)", allocs)
	}
	if ctx.faults-faults != 201 || ctx.sends-sends != 201 {
		t.Errorf("bank overdraft: %d faults and %d sends in 201 turns, want one of each a turn", ctx.faults-faults, ctx.sends-sends)
	}
	var acct int
	var bal int64
	if _, err := fmt.Sscanf(ctx.fault, "bank: account %d overdrawn to %d", &acct, &bal); err != nil ||
		ctx.fault != fmt.Sprintf("bank: account %d overdrawn to %d", acct, bal) || bal >= 0 {
		t.Errorf("bank overdraft reported %q", ctx.fault)
	}
}
