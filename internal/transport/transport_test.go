package transport

import (
	"fmt"
	"testing"
	"time"
)

// pingPong drives rounds request/reply exchanges between two endpoints over
// raw Register/Send: alice sends ping-i, bob answers echo:ping-i, and every
// message must arrive once, intact, in order, with its identity.
func pingPong(t *testing.T, trA, trB Transport, rounds int) {
	t.Helper()
	inA, err := trA.Register("alice")
	if err != nil {
		t.Fatal(err)
	}
	inB, err := trB.Register("bob")
	if err != nil {
		t.Fatal(err)
	}
	bobDone := make(chan error, 1)
	go func() {
		for i := 0; i < rounds; i++ {
			msg := <-inB
			if want := fmt.Sprintf("ping-%d", i); msg.From != "alice" || string(msg.Payload) != want || msg.ID != want {
				bobDone <- fmt.Errorf("bob got %+v, want %s from alice", msg, want)
				return
			}
			if err := trB.Send(Message{ID: "echo-" + msg.ID, From: "bob", To: "alice", Payload: append([]byte("echo:"), msg.Payload...), Lamport: msg.Lamport + 1}); err != nil {
				bobDone <- err
				return
			}
		}
		bobDone <- nil
	}()
	timeout := time.After(5 * time.Second)
	for i := 0; i < rounds; i++ {
		ping := fmt.Sprintf("ping-%d", i)
		if err := trA.Send(Message{ID: ping, From: "alice", To: "bob", Payload: []byte(ping), Lamport: uint64(2 * i)}); err != nil {
			t.Fatal(err)
		}
		select {
		case msg := <-inA:
			if msg.From != "bob" || string(msg.Payload) != "echo:"+ping || msg.Lamport != uint64(2*i+1) {
				t.Fatalf("alice got %+v, want echo:%s", msg, ping)
			}
		case <-timeout:
			t.Fatal("ping-pong timed out")
		}
	}
	if err := <-bobDone; err != nil {
		t.Fatal(err)
	}
}

func TestSwitchPingPong(t *testing.T) {
	tr := NewSwitch()
	defer tr.Close()
	pingPong(t, tr, tr, 5)
}

func TestSwitchErrors(t *testing.T) {
	tr := NewSwitch()
	if _, err := tr.Register("x"); err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Register("x"); err == nil {
		t.Error("duplicate registration accepted")
	}
	if err := tr.Send(Message{To: "ghost"}); err == nil {
		t.Error("send to unknown endpoint accepted")
	}
	tr.Close()
	if err := tr.Send(Message{To: "x"}); err == nil {
		t.Error("send after close accepted")
	}
	if _, err := tr.Register("y"); err == nil {
		t.Error("register after close accepted")
	}
}

func TestTCPHubPingPong(t *testing.T) {
	hub, err := NewHub("127.0.0.1:0")
	if err != nil {
		t.Skipf("loopback TCP unavailable: %v", err)
	}
	defer hub.Close()
	trA := NewTCPTransport(hub.Addr())
	trB := NewTCPTransport(hub.Addr())
	defer trA.Close()
	defer trB.Close()

	pingPong(t, trA, trB, 3)
}
