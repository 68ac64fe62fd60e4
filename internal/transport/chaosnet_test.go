package transport

import (
	"testing"
	"time"

	"repro/internal/inject"
)

// chaosEnv wires two endpoints through a ChaosNet-wrapped switch.
func chaosEnv(t *testing.T, net *ChaosNet) (Transport, <-chan Message, <-chan Message) {
	t.Helper()
	sw := NewSwitch()
	t.Cleanup(func() { sw.Close() })
	tr := net.Wrap(sw)
	a, err := tr.Register("a")
	if err != nil {
		t.Fatal(err)
	}
	b, err := tr.Register("b")
	if err != nil {
		t.Fatal(err)
	}
	return tr, a, b
}

func recvWithin(t *testing.T, ch <-chan Message, d time.Duration) (Message, bool) {
	t.Helper()
	select {
	case m := <-ch:
		return m, true
	case <-time.After(d):
		return Message{}, false
	}
}

func TestChaosNetDropAll(t *testing.T) {
	net := NewChaosNet(func() uint64 { return 10 }, time.Millisecond, 1)
	net.Inject(inject.Injection{Kind: inject.Drop, At: 0, Until: 100, Prob: 1.0})
	tr, _, b := chaosEnv(t, net)
	if err := tr.Send(Message{From: "a", To: "b", Payload: []byte("x")}); err != nil {
		t.Fatal(err)
	}
	if _, ok := recvWithin(t, b, 50*time.Millisecond); ok {
		t.Fatal("message survived a p=1.0 drop rule")
	}
	if _, dropped, _ := net.Stats(); dropped != 1 {
		t.Errorf("dropped = %d, want 1", dropped)
	}
}

func TestChaosNetWindowScoping(t *testing.T) {
	var now uint64 = 200 // outside the rule window
	net := NewChaosNet(func() uint64 { return now }, time.Millisecond, 1)
	net.Inject(inject.Injection{Kind: inject.Drop, At: 0, Until: 100, Prob: 1.0})
	tr, _, b := chaosEnv(t, net)
	if err := tr.Send(Message{From: "a", To: "b", Payload: []byte("x")}); err != nil {
		t.Fatal(err)
	}
	if _, ok := recvWithin(t, b, time.Second); !ok {
		t.Fatal("message outside the window was dropped")
	}
}

func TestChaosNetTargetScoping(t *testing.T) {
	net := NewChaosNet(func() uint64 { return 10 }, time.Millisecond, 1)
	net.Inject(inject.Injection{Kind: inject.Drop, Group: []string{"c"}, At: 0, Until: 100, Prob: 1.0}) // neither endpoint matches
	tr, _, b := chaosEnv(t, net)
	if err := tr.Send(Message{From: "a", To: "b", Payload: []byte("x")}); err != nil {
		t.Fatal(err)
	}
	if _, ok := recvWithin(t, b, time.Second); !ok {
		t.Fatal("message to untargeted endpoints was dropped")
	}
}

func TestChaosNetDuplicate(t *testing.T) {
	net := NewChaosNet(func() uint64 { return 10 }, time.Millisecond, 1)
	net.Inject(inject.Injection{Kind: inject.Duplicate, At: 0, Until: 100, Prob: 1.0})
	tr, _, b := chaosEnv(t, net)
	if err := tr.Send(Message{ID: "m1", From: "a", To: "b", Payload: []byte("x")}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if m, ok := recvWithin(t, b, time.Second); !ok || m.ID != "m1" {
			t.Fatalf("copy %d: got %+v ok=%v", i, m, ok)
		}
	}
	if _, _, dup := net.Stats(); dup != 1 {
		t.Errorf("duplicated = %d, want 1", dup)
	}
}

func TestChaosNetDelayHoldsMessage(t *testing.T) {
	net := NewChaosNet(func() uint64 { return 10 }, 5*time.Millisecond, 1)
	net.Inject(inject.Injection{Kind: inject.Delay, At: 0, Until: 100, Extra: 40}) // 40 ticks × 5ms = 200ms
	tr, _, b := chaosEnv(t, net)
	start := time.Now()
	if err := tr.Send(Message{From: "a", To: "b", Payload: []byte("x")}); err != nil {
		t.Fatal(err)
	}
	if net.InFlight() != 1 {
		t.Errorf("in-flight = %d, want 1", net.InFlight())
	}
	if _, ok := recvWithin(t, b, 5*time.Second); !ok {
		t.Fatal("delayed message never arrived")
	}
	if took := time.Since(start); took < 100*time.Millisecond {
		t.Errorf("message arrived after %v, want >= ~200ms of injected delay", took)
	}
}

func TestChaosNetPartition(t *testing.T) {
	net := NewChaosNet(func() uint64 { return 10 }, time.Millisecond, 1)
	net.Inject(inject.Injection{Kind: inject.Partition, Group: []string{"a"}, At: 0, Until: 100})
	tr, a, b := chaosEnv(t, net)
	if err := tr.Send(Message{From: "a", To: "b", Payload: []byte("x")}); err != nil {
		t.Fatal(err)
	}
	if _, ok := recvWithin(t, b, 50*time.Millisecond); ok {
		t.Fatal("message crossed the partition")
	}
	// Same-side traffic is unaffected.
	if err := tr.Send(Message{From: "a", To: "a", Payload: []byte("self")}); err != nil {
		t.Fatal(err)
	}
	if _, ok := recvWithin(t, a, time.Second); !ok {
		t.Fatal("same-side message was cut")
	}
}

func TestChaosNetCorruptMutatesCopy(t *testing.T) {
	net := NewChaosNet(func() uint64 { return 10 }, time.Millisecond, 1)
	net.Inject(inject.Injection{Kind: inject.Corrupt, At: 0, Until: 100, Prob: 1.0})
	tr, _, b := chaosEnv(t, net)
	orig := []byte("payload")
	sent := append([]byte(nil), orig...)
	if err := tr.Send(Message{From: "a", To: "b", Payload: sent}); err != nil {
		t.Fatal(err)
	}
	m, ok := recvWithin(t, b, time.Second)
	if !ok {
		t.Fatal("corrupted message never arrived")
	}
	if string(m.Payload) == string(orig) {
		t.Fatal("payload survived a p=1.0 corrupt rule unmutated")
	}
	if len(m.Payload) != len(orig) {
		t.Errorf("corruption changed the length: %d vs %d", len(m.Payload), len(orig))
	}
	// The mutation happened on a copy: the sender's buffer is untouched.
	if string(sent) != string(orig) {
		t.Errorf("sender's payload buffer was mutated in place: %q", sent)
	}
	if net.corrupted.Load() != 1 || net.delivered.Load() != 1 {
		t.Errorf("corrupted = %d, delivered = %d, want 1 and 1", net.corrupted.Load(), net.delivered.Load())
	}
}

func TestChaosNetCorruptSkipsEmptyPayload(t *testing.T) {
	net := NewChaosNet(func() uint64 { return 10 }, time.Millisecond, 1)
	net.Inject(inject.Injection{Kind: inject.Corrupt, At: 0, Until: 100, Prob: 1.0})
	tr, _, b := chaosEnv(t, net)
	if err := tr.Send(Message{From: "a", To: "b"}); err != nil {
		t.Fatal(err)
	}
	if _, ok := recvWithin(t, b, time.Second); !ok {
		t.Fatal("empty-payload message never arrived")
	}
	if net.corrupted.Load() != 0 {
		t.Errorf("corrupted = %d, want 0 for empty payloads", net.corrupted.Load())
	}
}

func TestChaosNetSlowLagsOnlyReceiver(t *testing.T) {
	net := NewChaosNet(func() uint64 { return 10 }, 5*time.Millisecond, 1)
	net.Inject(inject.Injection{Kind: inject.SlowNode, Proc: "b", At: 0, Until: 100, Extra: 40}) // 40 ticks × 5ms = 200ms, deliveries to b only
	tr, a, b := chaosEnv(t, net)
	start := time.Now()
	if err := tr.Send(Message{From: "a", To: "b", Payload: []byte("x")}); err != nil {
		t.Fatal(err)
	}
	if net.InFlight() != 1 {
		t.Errorf("in-flight = %d, want 1", net.InFlight())
	}
	// Traffic FROM the slow node is not lagged: the rule models a busy
	// handler, not a busy link.
	if err := tr.Send(Message{From: "b", To: "a", Payload: []byte("y")}); err != nil {
		t.Fatal(err)
	}
	if _, ok := recvWithin(t, a, time.Second); !ok {
		t.Fatal("message from the slow node was lagged")
	}
	if _, ok := recvWithin(t, b, 5*time.Second); !ok {
		t.Fatal("delivery to the slow node never arrived")
	}
	if took := time.Since(start); took < 100*time.Millisecond {
		t.Errorf("delivery took %v, want >= ~200ms of slow-node lag", took)
	}
}
