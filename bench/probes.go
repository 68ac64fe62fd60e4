package main

import (
	"fmt"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/scroll"
	"repro/internal/vclock"
)

// sink keeps probe results alive so the compiler cannot drop the calls.
var sink any

// probeNs times iters calls of f and returns ns per call.
func probeNs(iters int, f func()) float64 {
	t0 := time.Now()
	for i := 0; i < iters; i++ {
		f()
	}
	return float64(time.Since(t0)) / float64(iters)
}

// layerProbes measures the leaf layers no workload calls directly — vector
// clocks, the COW heap and in-memory scroll append — through their public
// functions, at the sizes the workloads use them. They do not depend on the
// workload, so every traced run reports them.
func layerProbes(iters int) map[string]float64 {
	out := map[string]float64{}
	for _, n := range []int{4, 8} {
		a, b := vclock.New(), vclock.New()
		ids := make([]string, n)
		for i := range ids {
			ids[i] = fmt.Sprintf("proc%d", i)
			a.Set(ids[i], uint64(i+1))
			b.Set(ids[i], uint64(2*n-i))
		}
		i := 0
		out[fmt.Sprintf("vclock.tick_ns_n%d", n)] = probeNs(iters, func() { a.Tick(ids[i%n]); i++ })
		out[fmt.Sprintf("vclock.copy_ns_n%d", n)] = probeNs(iters, func() { sink = a.Copy() })
		out[fmt.Sprintf("vclock.merge_ns_n%d", n)] = probeNs(iters, func() { a.Merge(b); b.Tick(ids[i%n]); i++ })
	}

	// A 64 KiB heap with four dirty pages between checkpoints: dsim's default
	// process heap under a write-light machine.
	h := checkpoint.NewHeap(64 << 10)
	page := h.PageSize()
	var snap *checkpoint.Snapshot
	dirty := func() {
		for p := 0; p < 4; p++ {
			h.WriteUint64(p*page, uint64(p))
		}
	}
	out["checkpoint.heap_snapshot_ns"] = probeNs(iters/10, func() { dirty(); snap = h.Snapshot() })
	out["checkpoint.heap_restore_ns"] = probeNs(iters/10, func() { dirty(); h.Restore(snap) })

	payload := make([]byte, 64)
	clock := vclock.New()
	for i := 0; i < 4; i++ {
		clock.Set(fmt.Sprintf("proc%d", i), uint64(i))
	}
	mem := scroll.NewMemory("probe")
	out["scroll.append_ns_per_record"] = probeNs(iters, func() {
		mem.Append(scroll.Record{Kind: scroll.KindRecv, MsgID: "m", Peer: "proc1", Payload: payload,
			Lamport: uint64(mem.Len()), Clock: clock}) // in-memory append cannot fail
	})
	return out
}
