package apps

import (
	"encoding/binary"
	"strconv"
	"strings"

	"repro/internal/dsim"
	"repro/internal/fault"
)

// KVConfig parameterizes a primary/replica key-value store.
type KVConfig struct {
	Replicas int // replica count (excluding the primary)
	Writes   int // workload size issued by the client
	Keys     int // distinct keys
	// Buggy disables the version check on replicas, so reordered
	// replication messages leave a stale value in place (divergence bug).
	Buggy bool
}

// KVPrimaryName is the primary's process ID.
const KVPrimaryName = "kvprimary"

// KVClientName is the workload client's process ID.
const KVClientName = "kvclient"

// KVReplicaName returns the process ID of replica i.
func KVReplicaName(i int) string { return kvNames.name(i) }

// kvDurablePrefix prefixes the primary's per-key stable-storage cells.
// Each cell holds the key's latest version assignment — 8-byte LE version
// followed by the value bytes — written before the assignment is
// replicated, so a crash-restarted primary never forgets a version a
// replica may already have applied (the hazard that kept the primary out
// of crash-restart chaos before stable storage existed).
const kvDurablePrefix = "kv:"

// kvState is the serializable state of a store node: the visible key
// versions and values (bulk values also mirrored into the heap for
// checkpoint locality).
type kvState struct {
	Values   map[string]string
	Versions map[string]uint64
	Applied  int
	Stale    int  // buggy path: stale overwrites applied
	Fixed    bool // alternate path: version check enabled after rollback
}

// KVNode is a primary or replica.
type KVNode struct {
	st      kvState
	cfg     KVConfig
	primary bool
	index   int
	w       wire
}

// kvClientState is the workload driver's state.
type kvClientState struct{ Issued int }

// KVClient issues Writes writes to the primary, then halts.
type KVClient struct {
	st  kvClientState
	cfg KVConfig
	w   wire
}

// NewKVStore builds the primary, replicas and client.
func NewKVStore(cfg KVConfig) map[string]dsim.Machine {
	if cfg.Keys == 0 {
		cfg.Keys = 4
	}
	ms := map[string]dsim.Machine{
		KVPrimaryName: &KVNode{cfg: cfg, primary: true},
		KVClientName:  &KVClient{cfg: cfg},
	}
	for i := 0; i < cfg.Replicas; i++ {
		ms[KVReplicaName(i)] = &KVNode{cfg: cfg, index: i}
	}
	return ms
}

// State implements dsim.Machine.
func (n *KVNode) State() any { return &n.st }

// Init allocates the maps. A primary restarted without any checkpoint
// recovers its durable version assignments before serving writes.
func (n *KVNode) Init(ctx dsim.Context) {
	n.st.Values = map[string]string{}
	n.st.Versions = map[string]uint64{}
	if n.primary {
		n.recoverAssignments(ctx)
	}
}

// install sets key=value@ver in state and mirrors it into the heap — the
// shared tail of the normal apply path and crash recovery, so the two
// cannot drift. The value is the one string a write has to allocate: it is
// kept.
func (n *KVNode) install(ctx dsim.Context, key string, val []byte, ver uint64) {
	n.st.Values[key] = string(val)
	n.st.Versions[key] = ver
	// One heap page region per key index keeps writes page-local. Only the
	// keys the workload owns have a region: a corrupted "k-1" or "k9999999"
	// is still a key, but not a heap offset.
	if idx, err := strconv.Atoi(strings.TrimPrefix(key, "k")); err == nil && idx >= 0 && idx < n.cfg.Keys {
		ctx.Heap().WriteUint64(idx*512, ver)
	}
}

// replicate broadcasts an assignment to every replica.
func (n *KVNode) replicate(ctx dsim.Context, key string, val []byte, ver uint64) {
	msg := n.w.verb("repl").str(key).raw(val).uint(ver)
	for i := 0; i < n.cfg.Replicas; i++ {
		ctx.Send(KVReplicaName(i), msg)
	}
}

// apply installs key=value@ver. The primary additionally forces the
// assignment to stable storage — before any replica can observe it, since
// apply precedes the replication broadcast.
func (n *KVNode) apply(ctx dsim.Context, key string, val []byte, ver uint64) {
	if n.primary {
		ctx.DurablePut(kvDurablePrefix+key, n.w.cell(ver, val))
	}
	n.install(ctx, key, val, ver)
	n.st.Applied++
}

// recoverAssignments re-installs durably recorded version assignments that
// are ahead of the restored state — a crash restart rewinds the primary to
// a checkpoint that may predate assignments replicas already applied,
// which would otherwise leave replicas "ahead" of the version authority
// forever. Recovered assignments are re-replicated: the restart purged any
// replication of them still in flight.
func (n *KVNode) recoverAssignments(ctx dsim.Context) {
	for _, dk := range ctx.DurableKeys() {
		key, ok := strings.CutPrefix(dk, kvDurablePrefix)
		if !ok {
			continue
		}
		cell, ok := ctx.DurableGet(dk)
		if !ok || len(cell) < 8 {
			continue
		}
		ver := binary.LittleEndian.Uint64(cell[:8])
		if ver <= n.st.Versions[key] {
			continue
		}
		n.install(ctx, key, cell[8:], ver)
		n.replicate(ctx, key, cell[8:], ver)
	}
}

// OnMessage handles client writes (primary) and replication (replicas).
func (n *KVNode) OnMessage(ctx dsim.Context, from string, payload []byte) {
	var f [4][]byte
	nf := fields(payload, f[:])
	switch string(f[0]) {
	case "put": // put|key|value — client write to the primary
		if !n.primary || nf != 3 {
			return
		}
		key, val := n.w.intern(f[1]), f[2]
		ver := n.st.Versions[key] + 1
		n.apply(ctx, key, val, ver)
		n.replicate(ctx, key, val, ver)
	case "repl": // repl|key|value|version — replication to a replica
		if n.primary || nf != 4 {
			return
		}
		ver, err := strconv.ParseUint(string(f[3]), 10, 64)
		if err != nil {
			return
		}
		key, val := n.w.intern(f[1]), f[2]
		if n.cfg.Buggy && !n.st.Fixed {
			// BUG: blind apply. With message reordering a lower version can
			// overwrite a higher one, leaving the replica stale forever.
			if ver < n.st.Versions[key] {
				n.st.Stale++
			}
			n.apply(ctx, key, val, ver)
			return
		}
		if ver > n.st.Versions[key] {
			n.apply(ctx, key, val, ver)
		}
	}
}

// OnTimer is unused.
func (n *KVNode) OnTimer(dsim.Context, string) {}

// OnRollback enables the version check — the healed code path — and, on a
// crash restart of the primary, recovers the durable version assignments
// (deliberate Time-Machine rollbacks rewind replicas consistently and
// fence the abandoned timeline's durable writes, so the checkpoint state
// is already the intended authority there).
func (n *KVNode) OnRollback(ctx dsim.Context, info dsim.RollbackInfo) {
	n.st.Fixed = true
	if n.primary && info.CrashRestart {
		n.recoverAssignments(ctx)
	}
}

// State implements dsim.Machine.
func (c *KVClient) State() any { return &c.st }

// Init schedules the first write.
func (c *KVClient) Init(ctx dsim.Context) {
	ctx.SetTimer("write", 1)
}

// OnMessage is unused.
func (c *KVClient) OnMessage(dsim.Context, string, []byte) {}

// OnTimer issues the next write.
func (c *KVClient) OnTimer(ctx dsim.Context, name string) {
	if name != "write" || c.st.Issued >= c.cfg.Writes {
		return
	}
	key := int(ctx.Random() % uint64(c.cfg.Keys))
	ctx.Send(KVPrimaryName, c.w.verb("put").tagged("k", key).tagged("v", c.st.Issued))
	c.st.Issued++
	if c.st.Issued < c.cfg.Writes {
		ctx.SetTimer("write", 1+ctx.Random()%3)
	}
}

// OnRollback is unused.
func (c *KVClient) OnRollback(dsim.Context, dsim.RollbackInfo) {}

// KVSafety is the loss-tolerant safety invariant: no replica is ever ahead
// of the primary, a replica holding the primary's version of a key holds
// the primary's value, and no stale overwrite was ever applied. Unlike
// KVConvergence it also holds mid-flight and when replication messages are
// lost, so it is the invariant the chaos matrix checks under arbitrary
// fault injection.
func KVSafety() fault.GlobalInvariant {
	return fault.GlobalInvariant{
		Name: "kv: replicas never ahead or stale-overwritten",
		Holds: func(states *fault.States) bool {
			primary, err := stateOrZero[kvState](states, KVPrimaryName)
			if err != nil {
				return false
			}
			for _, proc := range states.Procs() {
				if !strings.HasPrefix(proc, "kvrep") {
					continue
				}
				st, err := fault.Get[kvState](states, proc)
				if err != nil {
					return false
				}
				if st.Stale > 0 {
					return false
				}
				for k, ver := range st.Versions {
					switch pv := primary.Versions[k]; {
					case ver > pv:
						return false
					case ver == pv && st.Values[k] != primary.Values[k]:
						return false
					}
				}
			}
			return true
		},
	}
}

// KVConvergence is the global invariant that every replica's version map
// matches the primary's. It only holds at quiescence, so experiments check
// it after the run drains.
func KVConvergence() fault.GlobalInvariant {
	return fault.GlobalInvariant{
		Name: "kv: replicas converge to primary",
		Holds: func(states *fault.States) bool {
			primary, err := stateOrZero[kvState](states, KVPrimaryName)
			if err != nil {
				return false
			}
			for _, proc := range states.Procs() {
				if !strings.HasPrefix(proc, "kvrep") {
					continue
				}
				st, err := fault.Get[kvState](states, proc)
				if err != nil {
					return false
				}
				for k, ver := range primary.Versions {
					if st.Versions[k] != ver || st.Values[k] != primary.Values[k] {
						return false
					}
				}
			}
			return true
		},
	}
}
