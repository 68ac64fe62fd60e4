package dsim

import (
	"iter"

	"repro/internal/checkpoint"
	"repro/internal/recovery"
)

// Down reports whether the process handles no event: crashed, or halted
// (Context.Halt) since its last restore.
func (k *Kernel) Down() bool { return k.crashed || k.halted }

// Crash takes the process down, and reports false if it already was. Its
// pending timers stay pending: one that comes due while it is down fires
// into nothing, and Restart drops the rest.
func (k *Kernel) Crash() bool {
	up := !k.crashed
	k.crashed = true
	return up
}

// Restart revives a crashed process (crash-restart recovery, paper §3.2),
// and reports false, doing nothing, for one that is not crashed. restore,
// the backend's restore around Kernel.Restore, rewinds it to its latest
// checkpoint in store, and OnRollback follows with CrashRestart set; with
// no checkpoint, drop drops the crashed incarnation's timers and Init runs
// again. The cells stay as the crash left them: they are what it recovers
// from.
func (k *Kernel) Restart(ctx Context, store *checkpoint.Store, restore func(*checkpoint.Checkpoint), drop func()) bool {
	if !k.crashed {
		return false
	}
	k.crashed = false
	if ck := store.Latest(k.id); ck != nil {
		restore(ck)
		k.machine.OnRollback(ctx, RollbackInfo{Manual: true, CrashRestart: true, Reason: "crash restart"})
	} else {
		drop()
		k.machine.Init(ctx)
	}
	return true
}

// Abandon fences the timeline a deliberate rollback of the process to ck
// leaves behind, so that a later crash-restart recovers the restored one:
// its checkpoints in store later than ck, and the puts made after ck
// (Cells.Fence at ck.Disk); it returns the keys that changed, sorted.
// Crash-restart never abandons.
func (k *Kernel) Abandon(store *checkpoint.Store, ck *checkpoint.Checkpoint) []string {
	store.PruneAfter(k.id, ck.ScrollSeq)
	return k.cells.Fence(ck.Disk)
}

// Stagger offsets the process's periodic checkpoints (CheckpointEvery
// every) by rank, its rank among the run's sorted IDs: a seed determines
// the run whatever order the processes were added in.
func (k *Kernel) Stagger(rank int, every uint64) {
	if every > 0 {
		k.ckptSkew = uint64(rank) % every
	}
}

// Delivered counts a delivery, and reports whether the periodic policy
// (CheckpointEvery every, 0 for off) checkpoints once it is handled.
func (k *Kernel) Delivered(every uint64) bool {
	k.delivered++
	return every > 0 && (k.delivered+k.ckptSkew)%every == 0
}

// InjectedLine decides what an injected rollback (inject.Rollback) anchored
// at anchor restores: the latest consistent line over the checkpoints in
// store of the processes ids names (recovery.MaxConsistentSet). The line
// returned, for the backend's RollbackTo, holds the members that are up. A
// crashed member stays down but is cut at the line: its scroll truncated,
// its timeline past it abandoned (Abandon), and cut told, with the fenced
// keys, to drop what the backend holds of it — so re-delivery cannot bring
// its abandoned sends back, and a restart joins the restored timeline.
// procs yields the kernels of ids, in order, each held still while it is
// yielded; the anchor is read as it stands, so the backend runs this on
// the anchor's own thread. A crashed anchor, one with no checkpoint yet, or
// no line makes the injection a no-op: nil.
func InjectedLine(store *checkpoint.Store, ids []string, procs iter.Seq[*Kernel], anchor *Kernel,
	cut func(k *Kernel, ck *checkpoint.Checkpoint, fenced []string)) map[string]string {
	if anchor.crashed || store.Latest(anchor.id) == nil {
		return nil
	}
	set := recovery.MaxConsistentSet(store.Lists(ids))
	if set == nil {
		return nil
	}
	line := make(map[string]string, len(set))
	for k := range procs {
		switch ck := set[k.id]; {
		case ck == nil:
		case k.crashed:
			k.scroll.Truncate(ck.ScrollSeq)
			cut(k, ck, k.Abandon(store, ck))
		default:
			line[k.id] = ck.ID
		}
	}
	return line
}
