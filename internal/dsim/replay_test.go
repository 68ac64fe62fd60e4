package dsim

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/scroll"
)

// allOps calls every recorded Context operation: Init reads the clock and
// the rng, writes, reads (a hit and a miss) and lists stable storage, logs,
// reports a fault, checkpoints and sends; the echo is its receive, and the
// timer it then arms is its timer fire, whose handler logs and sends again.
type allOps struct{ st struct{ Got string } }

func (m *allOps) State() any { return &m.st }
func (m *allOps) Init(ctx Context) {
	ctx.Now()
	ctx.Random()
	ctx.DurablePut("k", []byte("v"))
	ctx.DurableGet("k")
	ctx.DurableGet("absent")
	ctx.DurableKeys()
	ctx.Log("note %d", 1)
	ctx.Fault("local fault")
	ctx.Checkpoint("explicit")
	ctx.Send("echo", []byte("ping"))
}
func (m *allOps) OnMessage(ctx Context, _ string, payload []byte) {
	m.st.Got = string(payload)
	ctx.SetTimer("after", 1)
}
func (m *allOps) OnTimer(ctx Context, _ string) {
	ctx.Log("fired")
	ctx.Send("echo", []byte("done"))
}
func (m *allOps) OnRollback(Context, RollbackInfo) {}

// echoFirst answers the first message it gets.
type echoFirst struct{ st struct{ N int } }

func (m *echoFirst) State() any   { return &m.st }
func (m *echoFirst) Init(Context) {}
func (m *echoFirst) OnMessage(ctx Context, from string, payload []byte) {
	if m.st.N++; m.st.N == 1 {
		ctx.Send(from, payload)
	}
}
func (m *echoFirst) OnTimer(Context, string)          {}
func (m *echoFirst) OnRollback(Context, RollbackInfo) {}

// allOpsRecording records allOps against echoFirst.
func allOpsRecording(t *testing.T) []scroll.Record {
	t.Helper()
	s := New(Config{Seed: 5})
	s.AddProcess("ops", &allOps{})
	s.AddProcess("echo", &echoFirst{})
	s.Run()
	recs := s.Scroll("ops").Records()
	var kinds []string
	for _, r := range recs {
		kinds = append(kinds, r.Kind.String())
	}
	const want = "time random env env env env custom fault ckpt send recv custom custom send"
	if got := strings.Join(kinds, " "); got != want {
		t.Fatalf("recorded %s, want %s", got, want)
	}
	return recs
}

// mutated returns a copy of recs whose record i is mutate'd.
func mutated(recs []scroll.Record, i int, mutate func(*scroll.Record)) []scroll.Record {
	out := slices.Clone(recs)
	mutate(&out[i])
	return out
}

// initWatch is allOps, remembering the Context its Init ran on.
type initWatch struct {
	allOps
	ctx Context
}

func (m *initWatch) Init(ctx Context) {
	m.ctx = ctx
	m.allOps.Init(ctx)
}

// TestReplayKeepsNoCells: replay feeds durable reads from the recording, so
// a replayed put only records the write for the comparison; the replaying
// kernel's cells stay empty.
func TestReplayKeepsNoCells(t *testing.T) {
	m := &initWatch{}
	res, err := Replay("ops", m, allOpsRecording(t), 0, 0)
	if err != nil || res.Diverged {
		t.Fatalf("faithful replay: %+v, %v", res, err)
	}
	if cells := m.ctx.(*replayCtx).Cells(); cells.Len() != 0 {
		t.Errorf("replay kept %d puts, want none", cells.Len())
	}
}

// TestReplayMutations: replay diverges exactly at whichever record of the
// machine's own a recording misstates, whatever field of it is wrong. The
// recorded inputs (deliveries, timer fires) and the backend's records are
// not the machine's; a record of the machine's that appears between
// handlers is one it did not make.
func TestReplayMutations(t *testing.T) {
	recs := allOpsRecording(t)
	faithful, err := Replay("ops", &allOps{}, recs, 0, 0)
	if err != nil || faithful.Diverged || faithful.Events != 2 || faithful.Sends != 2 {
		t.Fatalf("faithful replay: %+v, %v", faithful, err)
	}

	kind := func(k scroll.Kind) func(scroll.Record) bool {
		return func(r scroll.Record) bool { return r.Kind == k }
	}
	msgID := func(id string) func(scroll.Record) bool {
		return func(r scroll.Record) bool { return r.MsgID == id }
	}
	swapped := map[scroll.Kind]scroll.Kind{
		scroll.KindTime: scroll.KindRandom, scroll.KindRandom: scroll.KindTime,
		scroll.KindEnv: scroll.KindCustom, scroll.KindCustom: scroll.KindFault,
		scroll.KindFault: scroll.KindCustom, scroll.KindCkpt: scroll.KindCustom,
		scroll.KindSend: scroll.KindRecv,
	}
	for _, m := range []struct {
		name   string
		of     func(scroll.Record) bool
		mutate func(*scroll.Record)
	}{
		{"send peer", kind(scroll.KindSend), func(r *scroll.Record) { r.Peer = "elsewhere" }},
		{"send payload", kind(scroll.KindSend), func(r *scroll.Record) { r.Payload = []byte("pong") }},
		{"durable put key", msgID(DurablePutMsgID), func(r *scroll.Record) { r.Peer = "k2" }},
		{"durable put value", msgID(DurablePutMsgID), func(r *scroll.Record) { r.Payload = []byte("w") }},
		{"durable get key", msgID(DurableGetMsgID), func(r *scroll.Record) { r.Peer = "k2" }},
		{"durable get outcome damaged", msgID(DurableGetMsgID), func(r *scroll.Record) { r.Payload = []byte{2, 'v'} }},
		{"keys read damaged", msgID(DurableKeysMsgID), func(r *scroll.Record) { r.Payload = []byte{0x80} }},
		{"log text", msgID(logMsgID), func(r *scroll.Record) { r.Payload = []byte("other note") }},
		{"fault text", kind(scroll.KindFault), func(r *scroll.Record) { r.Payload = []byte("other fault") }},
		{"checkpoint label", kind(scroll.KindCkpt), func(r *scroll.Record) { r.Payload = []byte("other") }},
		{"kind swap", func(r scroll.Record) bool { return r.Kind != scroll.KindRecv && !strings.HasPrefix(r.MsgID, "timer:") },
			func(r *scroll.Record) { r.Kind = swapped[r.Kind] }},
	} {
		n := 0
		for i, r := range recs {
			if !m.of(r) {
				continue
			}
			n++
			t.Run(fmt.Sprintf("%s/%d", m.name, i), func(t *testing.T) {
				res, err := Replay("ops", &allOps{}, mutated(recs, i, m.mutate), 0, 0)
				if err != nil || !res.Diverged || res.DivergeAt != uint64(i) {
					t.Errorf("%s of record %d (%v): %+v, %v; want a divergence at %d", m.name, i, r.Kind, res, err, i)
				}
			})
		}
		if n == 0 {
			t.Errorf("%s: no record to mutate", m.name)
		}
	}

	// Records inserted between the two handlers, before the delivery.
	at := slices.IndexFunc(recs, func(r scroll.Record) bool { return r.Kind == scroll.KindRecv })
	for _, c := range []struct {
		name    string
		rec     scroll.Record
		diverge bool
	}{
		{"fault", scroll.Record{Kind: scroll.KindFault, Payload: []byte("local fault")}, true},
		{"log", scroll.Record{Kind: scroll.KindCustom, MsgID: logMsgID, Payload: []byte("note 1")}, true},
		{"send", scroll.Record{Kind: scroll.KindSend, MsgID: "m9", Peer: "echo", Payload: []byte("ping")}, true},
		{"time", scroll.Record{Kind: scroll.KindTime, Payload: make([]byte, 8)}, true},
		{"checkpoint", scroll.Record{Kind: scroll.KindCkpt, MsgID: "ckpt-ops-9", Payload: []byte("cic")}, false},
		{"epoch fence", scroll.Record{Kind: scroll.KindCustom, MsgID: EpochFenceMsgID, Peer: "echo"}, false},
	} {
		t.Run("between handlers/"+c.name, func(t *testing.T) {
			res, err := Replay("ops", &allOps{}, slices.Insert(slices.Clone(recs), at, c.rec), 0, 0)
			switch {
			case err != nil:
				t.Fatal(err)
			case c.diverge && (!res.Diverged || res.DivergeAt != uint64(at)):
				t.Errorf("an unreproduced %s at %d: %+v, want a divergence there", c.name, at, res)
			case !c.diverge && (res.Diverged || res.Events != 2):
				t.Errorf("the backend's %s at %d: %+v, want it stepped over", c.name, at, res)
			}
		})
	}
}

// speculator counts the speculation calls that fail.
type speculator struct{ st struct{ Failed int } }

func (m *speculator) State() any { return &m.st }
func (m *speculator) Init(ctx Context) {
	id, err := ctx.Speculate("assumption")
	for _, err := range []error{err, ctx.Commit(id), ctx.AbortSpec(id, "reason")} {
		if err != nil {
			m.st.Failed++
		}
	}
}
func (m *speculator) OnMessage(Context, string, []byte) {}
func (m *speculator) OnTimer(Context, string)           {}
func (m *speculator) OnRollback(Context, RollbackInfo)  {}

// TestReplaySpeculationFails: no backend records a speculation's outcome,
// so under replay the speculation calls fail instead of inventing one.
func TestReplaySpeculationFails(t *testing.T) {
	m := &speculator{}
	if _, err := Replay("s", m, nil, 0, 0); err != nil {
		t.Fatal(err)
	}
	if m.st.Failed != 3 {
		t.Errorf("%d of Speculate, Commit and AbortSpec failed under replay, want 3", m.st.Failed)
	}
}

// TestReplayPrefix: a recording that stops inside a handler replays as a
// prefix — what the handler does past the end is not compared — and never
// reports a divergence at or past its end.
func TestReplayPrefix(t *testing.T) {
	recs := allOpsRecording(t)
	for n := range len(recs) + 1 {
		res, err := Replay("ops", &allOps{}, recs[:n], 0, 0)
		if err != nil || res.Diverged {
			t.Errorf("first %d records: %+v, %v", n, res, err)
		}
	}
}
