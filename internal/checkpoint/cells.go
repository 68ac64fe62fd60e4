package checkpoint

import (
	"maps"
	"slices"
	"sort"
)

// Cells is one process's stable storage (Context.Durable…; the model is in
// internal/dsim/durable.go), held by its dsim.Kernel on every backend: its
// puts in order, each linked to its key's put before it. A restore never
// rewinds it — a disk outlives a crash — so a checkpoint records how many
// puts it held (Checkpoint.Disk, from Len): the disk as of the checkpoint
// is At(Disk), and a deliberate rollback to it cuts the later puts (Fence).
// The zero value is an empty store. Synchronization is the caller's.
type Cells struct {
	puts   []put
	newest map[string]int // key -> index in puts of its newest put
}

type put struct {
	key   string
	value []byte
	prev  int // index of the key's put before this one; -1 for none
}

// Put installs value under key.
// The store keeps value itself, not a copy: the caller hands over a copy it
// made — and may record the write with the same bytes — and nobody may
// modify it afterwards.
func (c *Cells) Put(key string, value []byte) {
	if c.newest == nil {
		c.newest = make(map[string]int)
	}
	prev, ok := c.newest[key]
	if !ok {
		prev = -1
	}
	c.newest[key] = len(c.puts)
	c.puts = append(c.puts, put{key: key, value: value, prev: prev})
}

// Len returns the number of puts the store holds.
func (c *Cells) Len() int { return len(c.puts) }

// Get returns the stored value (not a copy) and whether the key is present.
func (c *Cells) Get(key string) ([]byte, bool) {
	if i, ok := c.newest[key]; ok {
		return c.puts[i].value, true
	}
	return nil, false
}

// Keys returns the sorted keys.
func (c *Cells) Keys() []string {
	keys := make([]string, 0, len(c.newest))
	for k := range c.newest {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// At deep-copies the cells as the first n puts left them (nil when there is
// none): the disk as of a checkpoint whose Disk is n, where Fence cuts, or
// every cell when n is Len.
func (c *Cells) At(n int) map[string][]byte {
	var out map[string][]byte
	for k, i := range c.newest {
		for i >= n {
			i = c.puts[i].prev
		}
		if i < 0 {
			continue
		}
		if out == nil {
			out = make(map[string][]byte, len(c.newest))
		}
		out[k] = append([]byte(nil), c.puts[i].value...)
	}
	return out
}

// Fence is the cell half of timeline fencing: it cuts the store back to its
// first n puts — the writes of the timeline a deliberate rollback abandons,
// which a later crash-restart must not find — and returns the keys that
// changed, sorted: each reads its put before n again, or goes when it had
// none; a put on the new timeline revives it. Crash-restart never fences.
func (c *Cells) Fence(n int) []string {
	var changed []string
	for k, i := range c.newest {
		if i < n {
			continue
		}
		changed = append(changed, k)
		for i >= n {
			i = c.puts[i].prev
		}
		if c.newest[k] = i; i < 0 {
			delete(c.newest, k)
		}
	}
	sort.Strings(changed)
	c.puts = c.puts[:min(n, len(c.puts))]
	return changed
}

// Reset empties the store in place, keeping its memory for the next run.
func (c *Cells) Reset() {
	c.puts = c.puts[:0]
	clear(c.newest)
}

// Clone returns a store that reads as c does. It shares c's puts, clipped:
// its first put copies them, but a Fence or Reset of c cuts what it reads.
func (c *Cells) Clone() Cells {
	return Cells{puts: slices.Clip(c.puts), newest: maps.Clone(c.newest)}
}
