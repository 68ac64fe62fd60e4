package apps

import (
	"encoding/binary"
	"strconv"
	"strings"

	"repro/internal/dsim"
	"repro/internal/fault"
)

// CacheAsideConfig parameterizes a cache-aside workload: a client reads
// through a cache backed by an authoritative store, and writes through the
// store. The correct variant invalidates the cache before acknowledging a
// write and version-fences every read; the buggy variant acknowledges
// writes without invalidating and serves whatever the cache holds — the
// classic stale-read bug.
type CacheAsideConfig struct {
	Keys   int // distinct keys
	Rounds int // write+read rounds per key the client issues
	// Buggy disables write invalidation, lets the cache serve entries older
	// than the client's read fence, and keeps the cache warm across a crash
	// restart — three halves of the same stale-read bug.
	Buggy bool
}

// Process IDs of the cache-aside triad.
const (
	CAClientName  = "caclient"
	CACacheName   = "cacache"
	CAPrimaryName = "caprimary"
)

// caDurablePrefix prefixes the primary's per-key stable-storage cells
// (8-byte LE version + value), written before a write is acknowledged so a
// crash-restarted primary never forgets a version the client's read fence
// already counts on.
const caDurablePrefix = "ca:"

// caPrimaryState is the authoritative store's serializable state.
type caPrimaryState struct {
	Values   map[string]string
	Versions map[string]uint64
	// AckWait parks a write ack until the cache confirms invalidation
	// (correct variant only): key -> version being acknowledged.
	AckWait map[string]uint64
}

// CAPrimary is the authoritative store.
type CAPrimary struct {
	st  caPrimaryState
	cfg CacheAsideConfig
	w   wire
}

// caCacheState is the cache's serializable state.
type caCacheState struct {
	Values   map[string]string
	Versions map[string]uint64
	// InvVer is the per-key invalidation floor: the cache neither serves
	// nor installs versions below it, which is what keeps in-flight stale
	// fills from resurrecting after an invalidation.
	InvVer map[string]uint64
	// Pending parks reads awaiting a fill: read seq -> key|min.
	Pending map[string]string
}

// CACache is the cache tier.
type CACache struct {
	st  caCacheState
	cfg CacheAsideConfig
	w   wire
}

// caRead is one recorded read: the version served against the client's
// read fence (the highest version the store had acknowledged to this
// client when the read was issued).
type caRead struct {
	Key string
	Ver uint64
	Min uint64
}

// caClientState is the workload driver's serializable state.
type caClientState struct {
	Step   int
	Seq    int
	MinVer map[string]uint64 // per-key read fence, advanced by write acks
	Issued map[string]string // read seq -> key|min, awaiting a value
	Reads  []caRead
	Stale  int // reads that came back below the fence
}

// CAClient alternates writes and reads over the key space.
type CAClient struct {
	st  caClientState
	cfg CacheAsideConfig
	w   wire
}

// NewCacheAside builds the client, cache and primary.
func NewCacheAside(cfg CacheAsideConfig) map[string]dsim.Machine {
	if cfg.Keys == 0 {
		cfg.Keys = 2
	}
	if cfg.Rounds == 0 {
		cfg.Rounds = 3
	}
	return map[string]dsim.Machine{
		CAClientName:  &CAClient{cfg: cfg},
		CACacheName:   &CACache{cfg: cfg},
		CAPrimaryName: &CAPrimary{cfg: cfg},
	}
}

// State implements dsim.Machine.
func (p *CAPrimary) State() any { return &p.st }

// Init allocates the maps and recovers durably recorded writes, so a
// crash-restarted primary still holds every version it ever acknowledged.
func (p *CAPrimary) Init(ctx dsim.Context) {
	p.st = caPrimaryState{
		Values:   map[string]string{},
		Versions: map[string]uint64{},
		AckWait:  map[string]uint64{},
	}
	p.recover(ctx)
}

func (p *CAPrimary) recover(ctx dsim.Context) {
	for _, dk := range ctx.DurableKeys() {
		key, ok := strings.CutPrefix(dk, caDurablePrefix)
		if !ok {
			continue
		}
		cell, ok := ctx.DurableGet(dk)
		if !ok || len(cell) < 8 {
			continue
		}
		if ver := binary.LittleEndian.Uint64(cell[:8]); ver > p.st.Versions[key] {
			p.st.Versions[key] = ver
			p.st.Values[key] = string(cell[8:])
		}
	}
}

// OnMessage handles client writes, cache fetches, and invalidation acks.
func (p *CAPrimary) OnMessage(ctx dsim.Context, from string, payload []byte) {
	var f [3][]byte
	nf := fields(payload, f[:])
	switch string(f[0]) {
	case "put": // put|key|value — client write
		if nf != 3 {
			return
		}
		key, val := p.w.intern(f[1]), f[2]
		ver := p.st.Versions[key] + 1
		ctx.DurablePut(caDurablePrefix+key, p.w.cell(ver, val))
		p.st.Versions[key] = ver
		p.st.Values[key] = string(val)
		if p.cfg.Buggy {
			// BUG: the ack races the (never-sent) invalidation — the cache
			// keeps serving the old version after the client saw the ack.
			ctx.Send(CAClientName, p.w.verb("wack").str(key).uint(ver))
			return
		}
		// Invalidate-then-ack: the client's read fence only advances once
		// the cache can no longer serve anything older.
		p.st.AckWait[key] = ver
		ctx.Send(CACacheName, p.w.verb("inv").str(key).uint(ver))
	case "invack": // invack|key|ver — cache confirmed the invalidation
		if nf != 3 {
			return
		}
		key := f[1]
		ver, err := strconv.ParseUint(string(f[2]), 10, 64)
		if err != nil || p.st.AckWait[string(key)] != ver {
			return
		}
		delete(p.st.AckWait, string(key))
		ctx.Send(CAClientName, p.w.verb("wack").raw(key).uint(ver))
	case "fetch": // fetch|key|seq — cache miss
		if nf != 3 {
			return
		}
		key, seq := f[1], f[2]
		ctx.Send(CACacheName, p.w.verb("fill").raw(key).str(p.st.Values[string(key)]).
			uint(p.st.Versions[string(key)]).raw(seq))
	}
}

// OnTimer is unused.
func (p *CAPrimary) OnTimer(dsim.Context, string) {}

// OnRollback recovers the durable write log after a crash restart.
func (p *CAPrimary) OnRollback(ctx dsim.Context, info dsim.RollbackInfo) {
	if info.CrashRestart {
		p.recover(ctx)
	}
}

// State implements dsim.Machine.
func (c *CACache) State() any { return &c.st }

// Init starts cold. That is also the crash-restart story for the correct
// variant: a rebooted cache serves nothing until it refills from the
// primary.
func (c *CACache) Init(ctx dsim.Context) {
	c.st = caCacheState{
		Values:   map[string]string{},
		Versions: map[string]uint64{},
		InvVer:   map[string]uint64{},
		Pending:  map[string]string{},
	}
}

// serveable reports whether the cached entry may answer a read fenced at
// min. The buggy cache trusts its copy unconditionally.
func (c *CACache) serveable(key string, min uint64) bool {
	ver, ok := c.st.Versions[key]
	if !ok {
		return false
	}
	if c.cfg.Buggy {
		return true
	}
	return ver >= min && ver >= c.st.InvVer[key]
}

func (c *CACache) serve(ctx dsim.Context, key string, seq []byte) {
	ctx.Send(CAClientName, c.w.verb("val").str(key).str(c.st.Values[key]).uint(c.st.Versions[key]).raw(seq))
}

// OnMessage serves reads, fetches on miss, installs fills, and applies
// invalidations.
func (c *CACache) OnMessage(ctx dsim.Context, from string, payload []byte) {
	var f [5][]byte
	nf := fields(payload, f[:])
	switch string(f[0]) {
	case "get": // get|key|min|seq — client read, fenced at min
		if nf != 4 {
			return
		}
		key, seq := c.w.intern(f[1]), f[3]
		min, err := strconv.ParseUint(string(f[2]), 10, 64)
		if err != nil {
			return
		}
		if c.serveable(key, min) {
			c.serve(ctx, key, seq)
			return
		}
		c.st.Pending[string(seq)] = string(c.w.verb(key).raw(f[2])) // key|min
		ctx.Send(CAPrimaryName, c.w.verb("fetch").str(key).raw(seq))
	case "inv": // inv|key|ver — raise the invalidation floor, confirm
		if nf != 3 {
			return
		}
		key := c.w.intern(f[1])
		ver, err := strconv.ParseUint(string(f[2]), 10, 64)
		if err != nil {
			return
		}
		if ver > c.st.InvVer[key] {
			c.st.InvVer[key] = ver
		}
		if !c.cfg.Buggy && c.st.Versions[key] < c.st.InvVer[key] {
			delete(c.st.Values, key)
			delete(c.st.Versions, key)
		}
		ctx.Send(CAPrimaryName, c.w.verb("invack").str(key).uint(ver))
	case "fill": // fill|key|value|ver|seq — primary's answer to a fetch
		if nf != 5 {
			return
		}
		key, val, seq := c.w.intern(f[1]), f[2], f[4]
		ver, err := strconv.ParseUint(string(f[3]), 10, 64)
		if err != nil {
			return
		}
		floor := c.st.InvVer[key]
		if c.cfg.Buggy {
			floor = 0 // BUG: stale in-flight fills resurrect invalidated entries
		}
		if ver >= floor && ver >= c.st.Versions[key] {
			c.st.Values[key] = string(val)
			c.st.Versions[key] = ver
		}
		pk, ok := c.st.Pending[string(seq)]
		if !ok {
			return
		}
		pkey, pmin, _ := strings.Cut(pk, "|")
		min, _ := strconv.ParseUint(pmin, 10, 64)
		if pkey == key && c.serveable(key, min) {
			delete(c.st.Pending, string(seq))
			c.serve(ctx, key, seq)
		}
	}
}

// OnTimer is unused.
func (c *CACache) OnTimer(dsim.Context, string) {}

// OnRollback models the reboot: the correct cache comes back cold, the
// buggy one keeps its (possibly invalidated-in-the-meantime) entries warm.
func (c *CACache) OnRollback(ctx dsim.Context, info dsim.RollbackInfo) {
	if !c.cfg.Buggy {
		c.st.Values = map[string]string{}
		c.st.Versions = map[string]uint64{}
		c.st.Pending = map[string]string{}
	}
}

// State implements dsim.Machine.
func (cl *CAClient) State() any { return &cl.st }

// Init allocates the maps and schedules the first operation.
func (cl *CAClient) Init(ctx dsim.Context) {
	cl.st = caClientState{
		MinVer: map[string]uint64{},
		Issued: map[string]string{},
	}
	ctx.SetTimer("op", 1)
}

func (cl *CAClient) key(step int) string { return caKeys.name((step / 2) % cl.cfg.Keys) }

// OnMessage advances the read fence on write acks and judges read replies
// against the fence recorded when the read was issued.
func (cl *CAClient) OnMessage(ctx dsim.Context, from string, payload []byte) {
	var f [5][]byte
	nf := fields(payload, f[:])
	switch string(f[0]) {
	case "wack": // wack|key|ver
		if nf != 3 {
			return
		}
		ver, err := strconv.ParseUint(string(f[2]), 10, 64)
		if err != nil {
			return
		}
		if ver > cl.st.MinVer[string(f[1])] {
			cl.st.MinVer[cl.w.intern(f[1])] = ver
		}
	case "val": // val|key|value|ver|seq
		if nf != 5 {
			return
		}
		pk, ok := cl.st.Issued[string(f[4])]
		if !ok {
			return
		}
		key, pmin, _ := strings.Cut(pk, "|")
		if key != string(f[1]) {
			return
		}
		ver, err := strconv.ParseUint(string(f[3]), 10, 64)
		if err != nil {
			return
		}
		min, _ := strconv.ParseUint(pmin, 10, 64)
		delete(cl.st.Issued, string(f[4]))
		cl.st.Reads = append(cl.st.Reads, caRead{Key: key, Ver: ver, Min: min})
		if ver < min {
			cl.st.Stale++
		}
	}
}

// OnTimer issues the next operation: writes and reads alternate over the
// round-robin key space, every read fenced at the key's acked version.
func (cl *CAClient) OnTimer(ctx dsim.Context, name string) {
	if name != "op" || cl.st.Step >= 2*cl.cfg.Keys*cl.cfg.Rounds {
		return
	}
	key := cl.key(cl.st.Step)
	if cl.st.Step%2 == 0 {
		ctx.Send(CAPrimaryName, cl.w.verb("put").str(key).tagged("v", cl.st.Step))
	} else {
		seq := strconv.Itoa(cl.st.Seq)
		cl.st.Seq++
		min := cl.st.MinVer[key]
		cl.st.Issued[seq] = string(cl.w.verb(key).uint(min)) // key|min
		ctx.Send(CACacheName, cl.w.verb("get").str(key).uint(min).str(seq))
	}
	cl.st.Step++
	if cl.st.Step < 2*cl.cfg.Keys*cl.cfg.Rounds {
		ctx.SetTimer("op", 4+ctx.Random()%4)
	}
}

// OnRollback is unused: a rewound client has a rewound fence, which only
// ever under-approximates staleness.
func (cl *CAClient) OnRollback(dsim.Context, dsim.RollbackInfo) {}

// CANoStaleReads is the cache-aside safety invariant: no read returns a
// version below the fence the store had acknowledged to the client when
// the read was issued. The seeded bug violates it at baseline; on the
// correct variant only byzantine payload corruption (fault.Corrupt mangles
// a version digit in flight) can break it.
func CANoStaleReads() fault.GlobalInvariant {
	return fault.GlobalInvariant{
		Name: "cacheaside: no stale reads",
		Holds: func(states *fault.States) bool {
			if !states.Has(CAClientName) {
				return true
			}
			st, err := fault.Get[caClientState](states, CAClientName)
			if err != nil {
				return false
			}
			return st.Stale == 0
		},
	}
}

// CACacheNeverAhead mirrors kvstore's authority invariant: the cache never
// holds a version the primary has not assigned. Fills carry the primary's
// own versions, so on the correct variant only corruption (a version digit
// mutated upward in flight) can break it.
func CACacheNeverAhead() fault.GlobalInvariant {
	return fault.GlobalInvariant{
		Name: "cacheaside: cache never ahead of primary",
		Holds: func(states *fault.States) bool {
			primary, err := stateOrZero[caPrimaryState](states, CAPrimaryName)
			if err != nil {
				return false
			}
			cache, err := stateOrZero[caCacheState](states, CACacheName)
			if err != nil {
				return false
			}
			for k, ver := range cache.Versions {
				if ver > primary.Versions[k] {
					return false
				}
			}
			return true
		},
	}
}
