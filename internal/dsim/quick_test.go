package dsim

import (
	"fmt"
	"testing"
	"testing/quick"
)

// TestQuickSimulatorDeterminism: for random configurations and machine
// populations, two runs with the same seed produce identical merged
// scrolls and heap hashes.
func TestQuickSimulatorDeterminism(t *testing.T) {
	f := func(seed int64, latSeed, dropSeed uint8) bool {
		cfg := Config{
			Seed:       seed,
			MinLatency: 1,
			MaxLatency: uint64(latSeed%20) + 1,
			DropRate:   float64(dropSeed%4) * 0.1,
			MaxSteps:   5000,
		}
		run := func() string {
			s := New(cfg)
			a, b := newPingPair(8)
			s.AddProcess("a", a)
			s.AddProcess("b", b)
			c := &counterMachine{ckptAt: 2}
			s.AddProcess("c", c)
			s.AddProcess("drv", &driver{target: "c", n: 5})
			s.Run()
			sig := fmt.Sprintf("%d|%d|%x|%x", s.Stats().Delivered, s.Stats().Dropped,
				s.Heap("a").Hash(), s.Heap("c").Hash())
			for _, r := range s.MergedScroll() {
				sig += fmt.Sprintf(";%s/%d/%d", r.Proc, r.Kind, r.Lamport)
			}
			return sig
		}
		return run() == run()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestQuickRollbackRestoresExactState: for random checkpoint positions,
// rolling back always restores the exact machine state and heap contents
// captured at the checkpoint.
func TestQuickRollbackRestoresExactState(t *testing.T) {
	f := func(seed int64, ckptAtSeed uint8) bool {
		ckptAt := int(ckptAtSeed%8) + 1
		s := New(Config{Seed: seed, MaxSteps: 5000})
		c := &counterMachine{ckptAt: ckptAt}
		s.AddProcess("ctr", c)
		s.AddProcess("drv", &driver{target: "ctr", n: 12})
		s.Run()
		ck := s.Store().Latest("ctr")
		if ck == nil {
			return false
		}
		wantHash := ck.Snap.Hash()
		if err := s.RollbackTo(map[string]string{"ctr": ck.ID}); err != nil {
			return false
		}
		return c.st.Count == ckptAt && s.Heap("ctr").Hash() == wantHash
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestQuickReplayAlwaysFaithful: any completed run's processes replay
// without divergence, for random seeds and latencies.
func TestQuickReplayAlwaysFaithful(t *testing.T) {
	f := func(seed int64, latSeed uint8) bool {
		s := New(Config{Seed: seed, MinLatency: 1, MaxLatency: uint64(latSeed%30) + 1, MaxSteps: 5000})
		a := &randomUser{peer: "b"}
		b := &randomUser{}
		s.AddProcess("a", a)
		s.AddProcess("b", b)
		s.Run()
		for _, id := range []string{"a", "b"} {
			var fresh Machine
			if id == "a" {
				fresh = &randomUser{peer: "b"}
			} else {
				fresh = &randomUser{}
			}
			res, err := Replay(id, fresh, s.Scroll(id).Records(), 0, 0)
			if err != nil || res.Diverged {
				return false
			}
			if res.HeapHash != s.Heap(id).Hash() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestQuickScrollTraceConsistent: the scrolls of any completed run are
// consistent (no orphan receives), for random drop rates.
func TestQuickScrollTraceConsistent(t *testing.T) {
	f := func(seed int64, dropSeed uint8) bool {
		s := New(Config{Seed: seed, DropRate: float64(dropSeed%5) * 0.15, MaxSteps: 5000})
		a, b := newPingPair(10)
		s.AddProcess("a", a)
		s.AddProcess("b", b)
		s.Run()
		return orphanReceive(s.MergedScroll()) == ""
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
