// Package cache is the pairwise-distance memoization layer of the
// reproduction: a sharded, lock-striped LRU of metric values keyed by
// (metric id, 128-bit ranking fingerprint pair). Real vote ensembles are
// duplicate-heavy — the same partial rankings recur across millions of
// users — so aggregation passes (distance matrices, best-of-inputs sweeps,
// candidate scoring) keep recomputing distances they have already paid for.
// The cache turns every repeat pair into one hash probe.
//
// Determinism: a distance function is pure, so serving a memoized value is
// bit-for-bit identical to recomputing it, provided fingerprint equality
// implies ranking equality. Fingerprints are 128 bits (see
// ranking.Fingerprint), so the expected number of colliding pairs over any
// realistic workload is negligible (~2^-128 per pair); the cached engines
// therefore produce exactly the results of their uncached counterparts.
//
// Concurrency: keys hash to one of a power-of-two number of shards, each an
// independently locked LRU, so GOMAXPROCS workers probing concurrently
// contend only when they collide on a shard. Hit, miss, eviction, and insert
// counts are kept per cache (always-on atomics, like the access accountant)
// and mirrored into telemetry-gated counters in the process registry.
package cache

import (
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/ranking"
	"repro/internal/telemetry"
)

// Gated telemetry mirrors of the per-cache counters, shared by all caches in
// the process registry.
var (
	tHits      = telemetry.GetCounter("cache.distance.hits")
	tMisses    = telemetry.GetCounter("cache.distance.misses")
	tEvictions = telemetry.GetCounter("cache.distance.evictions")
	tInserts   = telemetry.GetCounter("cache.distance.inserts")
)

// Key identifies one cached pairwise metric value: which metric, and the
// fingerprints of the two rankings. For symmetric metrics build keys with
// PairKey, which canonicalizes the pair order so (a, b) and (b, a) share an
// entry.
type Key struct {
	Metric uint32
	A, B   ranking.Fingerprint
}

// PairKey builds the canonical key for a symmetric metric: the two
// fingerprints are stored in lexicographic order, so both orientations of a
// pair probe the same entry. Every paper metric is symmetric.
func PairKey(metric uint32, a, b ranking.Fingerprint) Key {
	if b.Less(a) {
		a, b = b, a
	}
	return Key{Metric: metric, A: a, B: b}
}

// hash folds a key into the shard index space. The fingerprints are already
// strong hashes, so combining the halves with distinct odd multipliers is
// enough to spread pairs across shards.
func (k Key) hash() uint64 {
	h := k.A.Hi ^ k.A.Lo*0x9e3779b97f4a7c15 ^ k.B.Hi*0xc2b2ae3d27d4eb4f ^ k.B.Lo*0xff51afd7ed558ccd
	return h ^ uint64(k.Metric)*0x2545f4914f6cdd1d
}

// entry is one shard-resident LRU node; prev/next form an intrusive
// recency list with the shard's sentinel as head (head.next = most recent).
type entry struct {
	key        Key
	val        float64
	prev, next *entry
}

// shard is one independently locked LRU segment.
type shard struct {
	mu   sync.Mutex
	m    map[Key]*entry
	head entry // sentinel of the recency ring
	cap  int
}

func (s *shard) init(capacity int) {
	s.m = make(map[Key]*entry, capacity)
	s.head.prev = &s.head
	s.head.next = &s.head
	s.cap = capacity
}

// unlink removes e from the recency ring.
func (e *entry) unlink() {
	e.prev.next = e.next
	e.next.prev = e.prev
}

// pushFront inserts e as the most recently used entry.
func (s *shard) pushFront(e *entry) {
	e.prev = &s.head
	e.next = s.head.next
	e.next.prev = e
	s.head.next = e
}

// Cache is a sharded LRU of pairwise metric values. The zero value is not
// usable; construct with New. All methods are safe for concurrent use.
type Cache struct {
	shards []shard
	mask   uint64

	hits      atomic.Int64
	misses    atomic.Int64
	evictions atomic.Int64
	inserts   atomic.Int64
}

// DefaultCapacity is the entry budget New applies when given a
// non-positive capacity: enough for the full upper triangle of a
// 1024-ranking ensemble. New sizes every shard's map for its whole share up
// front, so an empty default cache is already a table of about 58 MB (an
// idle rankserve is 66 MB resident with it and 8 MB without), and each
// stored entry adds a 64-byte node. The empty table also acts as GC ballast;
// DESIGN §9 records what dropping it costs.
const DefaultCapacity = 1024 * 1023 / 2

// New returns a cache bounded to roughly capacity entries, split over a
// power-of-two number of shards. The shard count grows with the machine (up
// to 4*GOMAXPROCS, capped at 256) so concurrent workers rarely collide on a
// lock, but never so far that a shard would hold fewer than ~8 entries —
// tiny caches stay coherent LRUs instead of degenerating into single-entry
// slots. A non-positive capacity selects DefaultCapacity.
func New(capacity int) *Cache {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	const minPerShard = 8
	nShards := 1
	for nShards < 4*runtime.GOMAXPROCS(0) && nShards < 256 && nShards*2*minPerShard <= capacity {
		nShards <<= 1
	}
	c := &Cache{shards: make([]shard, nShards), mask: uint64(nShards - 1)}
	per := (capacity + nShards - 1) / nShards
	for i := range c.shards {
		c.shards[i].init(per)
	}
	return c
}

func (c *Cache) shardFor(k Key) *shard {
	return &c.shards[k.hash()&c.mask]
}

// Get returns the cached value for k, marking it most recently used.
func (c *Cache) Get(k Key) (float64, bool) {
	s := c.shardFor(k)
	s.mu.Lock()
	e, ok := s.m[k]
	if !ok {
		s.mu.Unlock()
		c.misses.Add(1)
		tMisses.Inc()
		return 0, false
	}
	if s.head.next != e {
		e.unlink()
		s.pushFront(e)
	}
	v := e.val
	s.mu.Unlock()
	c.hits.Add(1)
	tHits.Inc()
	return v, true
}

// Put inserts or refreshes k -> v, evicting the shard's least recently used
// entry when the shard is at capacity.
func (c *Cache) Put(k Key, v float64) {
	s := c.shardFor(k)
	s.mu.Lock()
	if e, ok := s.m[k]; ok {
		e.val = v
		if s.head.next != e {
			e.unlink()
			s.pushFront(e)
		}
		s.mu.Unlock()
		return
	}
	if len(s.m) >= s.cap {
		lru := s.head.prev
		lru.unlink()
		delete(s.m, lru.key)
		c.evictions.Add(1)
		tEvictions.Inc()
	}
	e := &entry{key: k, val: v}
	s.m[k] = e
	s.pushFront(e)
	s.mu.Unlock()
	c.inserts.Add(1)
	tInserts.Inc()
}

// Len returns the live entry count across all shards.
func (c *Cache) Len() int {
	total := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		total += len(s.m)
		s.mu.Unlock()
	}
	return total
}

// Stats is a point-in-time view of one cache's counters. Unlike the gated
// registry mirrors these are always counted, so hit rates are available
// whether or not telemetry is enabled.
type Stats struct {
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Evictions int64 `json:"evictions"`
	Inserts   int64 `json:"inserts"`
}

// HitRate returns Hits / (Hits + Misses), or 0 before any probe.
func (st Stats) HitRate() float64 {
	total := st.Hits + st.Misses
	if total == 0 {
		return 0
	}
	return float64(st.Hits) / float64(total)
}

// Stats snapshots the cache's counters.
func (c *Cache) Stats() Stats {
	return Stats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Evictions: c.evictions.Load(),
		Inserts:   c.inserts.Load(),
	}
}
