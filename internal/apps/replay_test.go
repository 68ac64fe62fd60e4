package apps

import (
	"reflect"
	"slices"
	"testing"

	"repro/internal/dsim"
	"repro/internal/scroll"
)

// replayRun records a short run of spec's correct variant.
func replayRun(spec AppSpec) (*dsim.Sim, []string) {
	ms := spec.Make(false)
	cfg := spec.Config(false)
	cfg.Seed, cfg.MaxSteps = 1, 400
	s := dsim.New(cfg)
	ids := sortedProcs(ms)
	for _, id := range ids {
		s.AddProcess(id, ms[id])
	}
	s.Run()
	return s, ids
}

// replayNames is the vocabulary FuzzReplayDecoded draws a record's message
// ID and peer from: every process, timer, log and durable-storage name a
// short run of a Registry application records, sorted.
func replayNames() []string {
	names := []string{""}
	for _, spec := range Registry() {
		s, ids := replayRun(spec)
		for _, id := range ids {
			names = append(names, id)
			for r := range s.Scroll(id).All() {
				names = append(names, r.Peer)
				if r.Kind != scroll.KindRecv && r.Kind != scroll.KindSend {
					names = append(names, r.MsgID)
				}
			}
		}
	}
	slices.Sort(names)
	return slices.Compact(names)
}

// FuzzReplayDecoded: a scroll loaded from disk may hold anything a damaged
// or foreign log holds, and fixd.System.Replay replays such scrolls. The
// input is turned into records — each a kind byte, a message ID and a peer
// (bytes indexing replayNames), a payload length byte and the payload —
// which a durable scroll writes to a WAL; the log is opened again with
// scroll.OpenDurable and replayed by every process of every Registry
// application. Replay may diverge or return an error, but must never
// panic; it must return the same result twice, and a divergence it reports
// must name a record the recording holds. The seeds are the first records
// each application's first process records, and one damaged durable-get
// outcome.
func FuzzReplayDecoded(f *testing.F) {
	names := replayNames()
	for _, spec := range Registry() {
		s, ids := replayRun(spec)
		var seed []byte
		for r := range s.Scroll(ids[0]).All() {
			if r.Seq == 48 {
				break
			}
			msgID, _ := slices.BinarySearch(names, r.MsgID)
			peer, _ := slices.BinarySearch(names, r.Peer)
			seed = append(seed, byte(r.Kind), byte(msgID), byte(peer), byte(min(len(r.Payload), 255)))
			seed = append(seed, r.Payload[:min(len(r.Payload), 255)]...)
		}
		f.Add(seed)
	}
	// A durable-get outcome damaged on disk: its flag byte is neither 0 nor 1.
	if get, ok := slices.BinarySearch(names, dsim.DurableGetMsgID); ok && get < 256 {
		f.Add([]byte{byte(scroll.KindEnv), byte(get), 0, 2, 2, 'x'})
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		w, err := scroll.OpenDurable("fuzz", dir)
		if err != nil {
			t.Fatal(err)
		}
		for len(data) >= 4 {
			n := min(int(data[3]), len(data)-4)
			r := scroll.Record{Kind: scroll.Kind(data[0]), MsgID: names[int(data[1])%len(names)],
				Peer: names[int(data[2])%len(names)], Payload: data[4 : 4+n]}
			if _, err := w.Append(r); err != nil {
				t.Fatal(err)
			}
			data = data[4+n:]
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		s, err := scroll.OpenDurable("fuzz", dir)
		if err != nil {
			t.Fatalf("a log a durable scroll wrote does not load: %v", err)
		}
		recs := s.Records()
		s.Close()
		for _, spec := range Registry() {
			cfg := spec.Config(false)
			for _, id := range sortedProcs(spec.Make(false)) {
				res, err := dsim.Replay(id, spec.Make(false)[id], recs, cfg.HeapSize, cfg.HeapPageSize)
				again, againErr := dsim.Replay(id, spec.Make(false)[id], recs, cfg.HeapSize, cfg.HeapPageSize)
				if !reflect.DeepEqual(res, again) || (err == nil) != (againErr == nil) {
					t.Fatalf("%s %s replays to %+v (%v), then to %+v (%v)", spec.Name, id, res, err, again, againErr)
				}
				if err == nil && res.Diverged && res.DivergeAt >= uint64(len(recs)) {
					t.Fatalf("%s %s diverges at %d of %d records", spec.Name, id, res.DivergeAt, len(recs))
				}
			}
		}
	})
}
