package chaos

import (
	"reflect"
	"testing"

	"repro/internal/apps"
	"repro/internal/checkpoint"
	"repro/internal/dsim"
	"repro/internal/fault"
	"repro/internal/scroll"
)

// TestDiskAtCheckpointFoldsPuts: on every Registry and Zoo application,
// under an injected rollback and no crash, the disk as of each retained
// checkpoint (DurableSnapshotAt) is the fold of its process's durable:put
// records before the checkpoint. Without a crash the scroll prefix a
// checkpoint pins is exactly the timeline its disk was written on, so the
// fold is a sound oracle; a crash-restart rewinds the scroll but not the
// disk, which is why the scroll is the oracle here and not the
// implementation.
func TestDiskAtCheckpointFoldsPuts(t *testing.T) {
	for _, spec := range append(apps.Registry(), apps.Zoo()...) {
		for seed := int64(1); seed <= 4; seed++ {
			r := Runner{Spec: spec, Seed: seed}
			sched := Schedule{Generate(fault.Rollback, r.Procs(), r.Crashable(), spec.Horizon, seed)}
			a := r.reset(nil)
			r.execute(sched, a)
			s := a.sim
			for _, p := range s.Procs() {
				recs := s.Scroll(p).Records()
				for _, ck := range s.Store().List(p) {
					var want map[string][]byte
					for _, rec := range recs[:ck.ScrollSeq] {
						if rec.Kind == scroll.KindEnv && rec.MsgID == dsim.DurablePutMsgID {
							if want == nil {
								want = map[string][]byte{}
							}
							want[rec.Peer] = rec.Payload
						}
					}
					got := s.DurableSnapshotAt(map[string]*checkpoint.Checkpoint{p: ck})[p]
					if !reflect.DeepEqual(got, want) {
						t.Errorf("%s seed %d (%s): %s as of %s: %q, want the fold of its puts %q",
							spec.Name, seed, sched, p, ck.ID, got, want)
					}
				}
			}
		}
	}
}
