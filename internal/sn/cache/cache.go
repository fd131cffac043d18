// Package cache implements the SN decision cache described in §4 and
// Appendix B: an exact-match match-action table keyed by (L3 source,
// service ID, connection ID). Service modules populate it so the
// pipe-terminus can act on packets without invoking the module.
//
// Per Appendix B.1, implementations may "arbitrarily evict entries, even
// when the connections they are associated with are active" — correctness
// never depends on an entry being present, and modules must be able to
// recompute any decision. This implementation uses CLOCK (second-chance)
// eviction, tracks per-entry hit counts, and exposes the "recently used"
// API Appendix B.2 specifies for services managing their own connection
// state.
//
// To keep the sharded pipe-terminus workers from serializing on a single
// lock, the table is striped across 2^k independent CLOCK shards selected
// by a hash of the flow key. Each shard has its own lock, slots, hand, and
// counters; Snapshot merges the per-shard counters. Striping is invisible
// to correctness: eviction was already allowed to be arbitrary (B.1), so
// per-shard CLOCK sweeps are just one more admissible eviction order.
package cache

import (
	"runtime"
	"sort"
	"sync"
	"time"

	"interedge/internal/telemetry"
	"interedge/internal/wire"
)

// Action is the cached forwarding decision for a flow.
type Action struct {
	// Forward lists next-hop destinations; the pipe-terminus sends a copy
	// of the packet to each ("the decision can specify multiple forwarding
	// destinations", §4).
	Forward []wire.Addr
	// Drop discards the packet (used by e.g. DDoS protection). Drop takes
	// precedence over Forward.
	Drop bool
	// Deliver hands the packet to the local delivery hook (for packets
	// terminating at this SN, e.g. addressed to an attached host agent).
	Deliver bool
	// RewriteHeader, if non-nil, replaces the encoded ILP header on
	// forwarded copies (services may rewrite per-hop metadata).
	RewriteHeader []byte
	// For, when valid, names the endpoint the decision serves when Forward
	// only leads toward it (ipfwd's destination host behind a next-hop
	// SN). InvalidateDest(For) drops the entry, so a decision taken from
	// a record that has since moved is taken again.
	For wire.Addr
}

// Stats aggregates cache counters across all shards.
type Stats struct {
	Hits      uint64
	Misses    uint64
	Evictions uint64
	Inserts   uint64
	Size      int
	Capacity  int
}

type entry struct {
	key      wire.FlowKey
	action   Action
	hits     uint64
	lastUsed time.Time
	ref      bool // CLOCK reference bit
	live     bool
}

// shard is one independently locked CLOCK cache.
type shard struct {
	mu      sync.Mutex
	index   map[wire.FlowKey]int
	slots   []entry
	hand    int
	now     func() time.Time
	hits    uint64
	misses  uint64
	evicts  uint64
	inserts uint64
	enabled bool
}

// minShardCapacity is the smallest per-shard slot count auto-striping will
// produce; small caches stay single-shard so their eviction behavior (and
// the tests pinning it) is unchanged.
const minShardCapacity = 1024

// Cache is a fixed-capacity decision cache striped over power-of-two many
// CLOCK shards. It is safe for concurrent use.
type Cache struct {
	shards []*shard
	mask   uint64
	// srcAffine selects shards by wire.ShardIndex over the flow source
	// alone, mirroring the pipe manager's RX-worker sharding so worker i
	// exclusively owns shard i (NewSourceAffine).
	srcAffine bool
}

// New creates a cache with the given total capacity (entries) and an
// automatic shard count: the largest power of two ≤ GOMAXPROCS that keeps
// every shard at or above minShardCapacity. Capacity must be positive.
func New(capacity int) *Cache {
	n := 1
	for n < runtime.GOMAXPROCS(0) {
		n <<= 1
	}
	for n > 1 && capacity/n < minShardCapacity {
		n >>= 1
	}
	return NewSharded(capacity, n)
}

// NewSharded creates a cache with an explicit shard count (rounded up to a
// power of two, clamped so every shard holds at least one entry). Capacity
// is the total across shards and must be positive.
func NewSharded(capacity, shards int) *Cache {
	if shards < 1 {
		shards = 1
	}
	n := 1
	for n < shards {
		n <<= 1
	}
	for n > capacity && n > 1 {
		n >>= 1
	}
	return newCache(capacity, n, false)
}

// NewSourceAffine creates a cache with exactly `workers` shards selected
// by the flow's source address via wire.ShardIndex — the same hash the
// pipe manager uses to pick the RX worker for a source. With one cache
// shard per RX worker, every fast-path lookup lands on the shard its
// worker exclusively owns: the shard's lock and CLOCK state stay in that
// worker's cache hierarchy instead of bouncing between cores. The shard
// count is not rounded to a power of two because it must equal the worker
// count exactly for the affinity to hold.
func NewSourceAffine(capacity, workers int) *Cache {
	if workers < 1 {
		workers = 1
	}
	if workers > capacity {
		workers = capacity
	}
	return newCache(capacity, workers, true)
}

func newCache(capacity, n int, srcAffine bool) *Cache {
	if capacity <= 0 {
		panic("cache: capacity must be positive")
	}
	c := &Cache{shards: make([]*shard, n), mask: uint64(n - 1), srcAffine: srcAffine}
	base, rem := capacity/n, capacity%n
	for i := range c.shards {
		sz := base
		if i < rem {
			sz++
		}
		c.shards[i] = &shard{
			index:   make(map[wire.FlowKey]int, sz),
			slots:   make([]entry, sz),
			now:     time.Now,
			enabled: true,
		}
	}
	return c
}

// ShardCount returns the number of independent CLOCK shards.
func (c *Cache) ShardCount() int { return len(c.shards) }

// hashKey mixes the full flow key with FNV-1a; the low bits select the
// shard. Allocation-free (Addr.As16 returns a value array).
func hashKey(k wire.FlowKey) uint64 {
	const prime = uint64(1099511628211)
	h := uint64(14695981039346656037)
	a := k.Src.As16()
	for _, b := range a {
		h = (h ^ uint64(b)) * prime
	}
	h = (h ^ uint64(k.Service)) * prime
	h = (h ^ uint64(k.Conn)) * prime
	return h
}

func (c *Cache) shardFor(key wire.FlowKey) *shard {
	if len(c.shards) == 1 {
		return c.shards[0]
	}
	if c.srcAffine {
		return c.shards[wire.ShardIndex(key.Src, len(c.shards))]
	}
	return c.shards[hashKey(key)&c.mask]
}

// SetNowFunc overrides the time source (tests).
func (c *Cache) SetNowFunc(f func() time.Time) {
	for _, s := range c.shards {
		s.mu.Lock()
		s.now = f
		s.mu.Unlock()
	}
}

// SetEnabled turns the cache on or off. When disabled, Lookup always
// misses; used by the ablation benchmarks.
func (c *Cache) SetEnabled(on bool) {
	for _, s := range c.shards {
		s.mu.Lock()
		s.enabled = on
		s.mu.Unlock()
	}
}

// Lookup returns the cached action for key, if any, recording a hit or
// miss and marking the entry recently used.
func (c *Cache) Lookup(key wire.FlowKey) (Action, bool) {
	return c.LookupN(key, 1)
}

// LookupN is Lookup for a run of n same-key packets: the batched fast
// path coalesces decision-cache traffic per (src, SPI) run, so one lock
// acquisition accounts the whole run. Hit counters advance by n (Appendix
// B.2 services read hit counts to detect live connections, so a
// run-coalesced hit must be indistinguishable from n sequential hits);
// a miss records n misses.
func (c *Cache) LookupN(key wire.FlowKey, n uint64) (Action, bool) {
	s := c.shardFor(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.enabled {
		s.misses += n
		return Action{}, false
	}
	i, ok := s.index[key]
	if !ok {
		s.misses += n
		return Action{}, false
	}
	e := &s.slots[i]
	e.hits += n
	e.ref = true
	e.lastUsed = s.now()
	s.hits += n
	return e.action, true
}

// Add installs (or replaces) the action for key, evicting via CLOCK within
// the key's shard if that shard is full.
func (c *Cache) Add(key wire.FlowKey, action Action) {
	s := c.shardFor(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.inserts++
	if i, ok := s.index[key]; ok {
		s.slots[i].action = action
		s.slots[i].ref = true
		s.slots[i].lastUsed = s.now()
		return
	}
	i := s.findSlot()
	if s.slots[i].live {
		delete(s.index, s.slots[i].key)
		s.evicts++
	}
	// New entries start with the reference bit clear: only an actual
	// Lookup grants a second chance, so one-shot flows evict first.
	s.slots[i] = entry{key: key, action: action, lastUsed: s.now(), live: true}
	s.index[key] = i
}

// findSlot returns a free slot index, running the CLOCK hand if the shard
// is full. Must be called with s.mu held.
func (s *shard) findSlot() int {
	for range s.slots {
		e := &s.slots[s.hand]
		i := s.hand
		s.hand = (s.hand + 1) % len(s.slots)
		if !e.live {
			return i
		}
	}
	// All live: second-chance scan.
	for {
		e := &s.slots[s.hand]
		i := s.hand
		s.hand = (s.hand + 1) % len(s.slots)
		if e.ref {
			e.ref = false
			continue
		}
		return i
	}
}

// Invalidate removes the entry for key, if present.
func (c *Cache) Invalidate(key wire.FlowKey) {
	s := c.shardFor(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	if i, ok := s.index[key]; ok {
		delete(s.index, key)
		s.slots[i] = entry{}
	}
}

// InvalidateSource removes all entries whose flow source is src (used when
// a pipe to a peer is torn down).
func (c *Cache) InvalidateSource(src wire.Addr) {
	for _, s := range c.shards {
		s.mu.Lock()
		for key, i := range s.index {
			if key.Src == src {
				delete(s.index, key)
				s.slots[i] = entry{}
			}
		}
		s.mu.Unlock()
	}
}

// InvalidateDest removes all entries whose cached action forwards to dst
// or is marked For dst (used when the pipe to a next hop dies, or when a
// host's address record changes: the stale route must fall back to the
// slow path so the module can re-decide it once the pipe — with fresh
// keys and epochs — is re-established, or from the new record).
func (c *Cache) InvalidateDest(dst wire.Addr) {
	for _, s := range c.shards {
		s.mu.Lock()
		for key, i := range s.index {
			if a := &s.slots[i].action; a.For.IsValid() && a.For == dst {
				delete(s.index, key)
				s.slots[i] = entry{}
				continue
			}
			for _, fwd := range s.slots[i].action.Forward {
				if fwd == dst {
					delete(s.index, key)
					s.slots[i] = entry{}
					break
				}
			}
		}
		s.mu.Unlock()
	}
}

// CollectDest returns up to max flow keys whose cached action forwards to
// dst — the cache-warmth hints a draining SN ships to its successor so the
// moved host's flows keep hitting instead of each taking a cold miss.
// Entries most recently used come first within each shard; max <= 0 means
// no limit. Like Snapshot, the result is per-shard consistent, not one cut.
func (c *Cache) CollectDest(dst wire.Addr, max int) []wire.FlowKey {
	var out []wire.FlowKey
	for _, s := range c.shards {
		s.mu.Lock()
		var keys []wire.FlowKey
		for key, i := range s.index {
			for _, fwd := range s.slots[i].action.Forward {
				if fwd == dst {
					keys = append(keys, key)
					break
				}
			}
		}
		sort.Slice(keys, func(a, b int) bool {
			return s.slots[s.index[keys[a]]].lastUsed.After(s.slots[s.index[keys[b]]].lastUsed)
		})
		s.mu.Unlock()
		out = append(out, keys...)
		if max > 0 && len(out) >= max {
			return out[:max]
		}
	}
	return out
}

// HitCount returns the entry's hit counter — the Appendix B.2 API
// ("retrieving the hit-count for an entry") services use to learn whether
// a connection is still active.
func (c *Cache) HitCount(key wire.FlowKey) (uint64, bool) {
	s := c.shardFor(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	i, ok := s.index[key]
	if !ok {
		return 0, false
	}
	return s.slots[i].hits, true
}

// RecentlyUsed reports whether the entry was hit within the given window.
func (c *Cache) RecentlyUsed(key wire.FlowKey, window time.Duration) bool {
	s := c.shardFor(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	i, ok := s.index[key]
	if !ok {
		return false
	}
	return s.now().Sub(s.slots[i].lastUsed) <= window
}

// RegisterTelemetry implements telemetry.Registrable. The cache keeps its
// counters as cheap per-shard fields under the shard locks (registry
// atomics would put contended cache lines back on the lookup path that
// striping exists to avoid), so the instruments are lazy: each snapshot
// read merges the shards on demand.
func (c *Cache) RegisterTelemetry(r *telemetry.Registry) {
	stat := func(pick func(Stats) uint64) func() uint64 {
		return func() uint64 { return pick(c.Snapshot()) }
	}
	_ = r.Register(
		telemetry.NewCounterFunc("cache_hits_total", stat(func(s Stats) uint64 { return s.Hits })),
		telemetry.NewCounterFunc("cache_misses_total", stat(func(s Stats) uint64 { return s.Misses })),
		telemetry.NewCounterFunc("cache_evictions_total", stat(func(s Stats) uint64 { return s.Evictions })),
		telemetry.NewCounterFunc("cache_inserts_total", stat(func(s Stats) uint64 { return s.Inserts })),
		telemetry.NewGaugeFunc("cache_entries", func() int64 { return int64(c.Len()) }),
		telemetry.NewGaugeFunc("cache_capacity", func() int64 {
			n := 0
			for _, s := range c.shards {
				n += len(s.slots)
			}
			return int64(n)
		}),
	)
}

// Snapshot returns current counters merged across all shards. Each shard is
// read under its own lock; the merged struct is not one consistent cut
// across shards.
func (c *Cache) Snapshot() Stats {
	var st Stats
	for _, s := range c.shards {
		s.mu.Lock()
		st.Hits += s.hits
		st.Misses += s.misses
		st.Evictions += s.evicts
		st.Inserts += s.inserts
		st.Size += len(s.index)
		st.Capacity += len(s.slots)
		s.mu.Unlock()
	}
	return st
}

// Len returns the number of live entries across all shards.
func (c *Cache) Len() int {
	n := 0
	for _, s := range c.shards {
		s.mu.Lock()
		n += len(s.index)
		s.mu.Unlock()
	}
	return n
}
