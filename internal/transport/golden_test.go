package transport

import (
	"encoding/json"
	"testing"

	"repro/internal/vclock"
)

// TestGoldenMessageJSON pins transport.Message's wire form to the bytes
// the map-clock implementation produced (generated at the parent commit):
// a clock is a JSON object with sorted keys, and an empty one — the zero VC
// or a clock with nothing set — is omitted, as `omitempty` omitted the map.
func TestGoldenMessageJSON(t *testing.T) {
	clock := vclock.New()
	clock.Set("b", 2)
	clock.Set("a", 5)
	for _, g := range []struct {
		msg  Message
		want string
	}{
		{Message{ID: "L7", From: "a", To: "b", Payload: []byte("hi"), Lamport: 9, Clock: clock, Epoch: 1},
			`{"id":"L7","from":"a","to":"b","payload":"aGk=","lamport":9,"clock":{"a":5,"b":2},"epoch":1}`},
		{Message{From: "a", To: "b", Payload: []byte("hi"), Lamport: 3},
			`{"from":"a","to":"b","payload":"aGk=","lamport":3}`},
		{Message{From: "a", To: "b", Lamport: 3, Clock: vclock.New()},
			`{"from":"a","to":"b","payload":null,"lamport":3}`},
		{Message{From: "a", To: "b", Lamport: 3, Clock: vclock.NewTable("a", "b").New()},
			`{"from":"a","to":"b","payload":null,"lamport":3}`},
	} {
		got, err := json.Marshal(g.msg)
		if err != nil || string(got) != g.want {
			t.Errorf("Marshal = %s, %v\n        want %s", got, err, g.want)
		}
		var back Message
		if err := json.Unmarshal([]byte(g.want), &back); err != nil {
			t.Fatalf("Unmarshal(%s): %v", g.want, err)
		}
		if back.Clock.Compare(g.msg.Clock) != vclock.Equal || back.ID != g.msg.ID || back.Lamport != g.msg.Lamport {
			t.Errorf("Unmarshal(%s) = %+v", g.want, back)
		}
	}
}
