package experiments

import (
	"sort"

	"repro/internal/apps"
	"repro/internal/baselines"
	"repro/internal/dsim"
	"repro/internal/scroll"
	"repro/internal/snapshot"
)

// runE6 reproduces Figure 6 (safe recovery lines via communication-induced
// checkpointing): after a failure, the rollback-propagation algorithm must
// find a consistent line; with CIC checkpoints (one before every receive)
// the line is always at most one interval behind, while sparse
// uncoordinated periodic checkpoints cascade (the domino effect).
//
// Shape expectation: CIC max rollback distance <= 1 interval regardless of
// system size; uncoordinated distance grows with the communication rate
// and checkpoint sparsity.
func runE6() *Table {
	t := &Table{
		ID:     "E6",
		Title:  "Figure 6: recovery lines — CIC vs uncoordinated checkpoints",
		Header: []string{"policy", "procs", "ckpts", "max rollback", "total rollback", "fixpoint iters", "domino to start"},
	}
	const rounds = 12
	for _, n := range []int{4, 8, 16} {
		for _, policy := range []string{"cic", "uncoordinated", "coordinated-cl"} {
			cfg := dsim.Config{Seed: int64(n), MaxSteps: 200_000}
			switch policy {
			case "cic":
				cfg.CICheckpoint = true
			case "uncoordinated":
				cfg.CheckpointEvery = 7
			case "coordinated-cl":
				cfg.FIFO = true // Chandy-Lamport requires FIFO channels
			}
			ms := apps.NewTokenRing(apps.TokenRingConfig{N: n, Rounds: rounds})
			s := dsim.New(cfg)
			for id, m := range ms {
				if policy == "coordinated-cl" {
					var peers []string
					for other := range ms {
						if other != id {
							peers = append(peers, other)
						}
					}
					sort.Strings(peers)
					w := snapshot.Wrap(m, peers)
					if id == apps.RingProcName(0) {
						w.InitiateAt = 25
					}
					s.AddProcess(id, w)
				} else {
					s.AddProcess(id, m)
				}
			}
			s.Run()
			var rep baselines.DominoReport
			if policy == "coordinated-cl" {
				// Exclude protocol markers: they cross the cut by design.
				rep = baselines.AnalyzeRecoveryFunc(s, apps.RingProcName(0), func(r scroll.Record) bool {
					return snapshot.IsMarker(r.Payload)
				})
			} else {
				rep = baselines.AnalyzeRecovery(s, apps.RingProcName(0))
			}
			ckpts := int(s.Stats().Checkpoints)
			t.Add(policy, n, ckpts, rep.MaxRollback, rep.Rollbacks, rep.Iterations, rep.FullRollback)
		}
	}
	t.Note("failure model: ring node 0 loses its volatile state and restores its previous checkpoint")
	t.Note("CIC checkpoints before every receive (Fig. 6), so no receive can become an orphan more than one interval back")
	t.Note("coordinated-cl takes one Chandy-Lamport snapshot (n(n-1) markers, FIFO channels): one checkpoint per process, consistent by construction")
	return t
}
