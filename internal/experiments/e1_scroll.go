package experiments

import (
	"repro/internal/apps"
	"repro/internal/dsim"
)

// runE1 reproduces Figure 1 (the Scroll): every nondeterministic action of
// a distributed run is recorded with its outcome, and the log suffices for
// bit-exact isolated replay of each process.
func runE1() *Table {
	t := &Table{
		ID:     "E1",
		Title:  "Figure 1: the Scroll — recording and deterministic replay",
		Header: []string{"procs", "deliveries", "records", "rec/deliv", "replay events", "replay ok"},
	}
	const rounds = 12
	for _, n := range []int{2, 4, 8, 16} {
		ms := apps.NewTokenRing(apps.TokenRingConfig{N: n, Rounds: rounds})
		s := dsim.New(dsim.Config{Seed: int64(n), MaxSteps: 500_000})
		for id, m := range ms {
			s.AddProcess(id, m)
		}
		stats := s.Run()
		records := 0
		for _, id := range s.Procs() {
			records += s.Scroll(id).Len()
		}
		// Replay every ring node in isolation; all must reproduce without
		// divergence.
		replayOK := true
		replayed := 0
		for i := 0; i < n; i++ {
			id := apps.RingProcName(i)
			fresh := apps.NewTokenRing(apps.TokenRingConfig{N: n, Rounds: rounds})[id]
			res, err := dsim.Replay(id, fresh, s.Scroll(id).Records(), 0, 0)
			if err != nil || res.Diverged {
				replayOK = false
				continue
			}
			replayed += res.Events
		}
		t.Add(n, stats.Delivered, records, float64(records)/float64(max(stats.Delivered, 1)), replayed, replayOK)
	}
	t.Note("replay re-executes each process against its scroll with all peers absent (liblog-style local playback, paper §2.2)")
	t.Note("records per delivery > 1 because sends, timers and annotations are logged alongside receives")
	return t
}
