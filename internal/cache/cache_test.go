package cache

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/ranking"
)

func fp(hi, lo uint64) ranking.Fingerprint { return ranking.Fingerprint{Hi: hi, Lo: lo} }

func TestPairKeyCanonicalizesOrder(t *testing.T) {
	a, b := fp(9, 1), fp(2, 7)
	if PairKey(3, a, b) != PairKey(3, b, a) {
		t.Error("pair orientation changed the key")
	}
	if PairKey(3, a, b) == PairKey(4, a, b) {
		t.Error("metric id ignored by the key")
	}
	k := PairKey(1, a, b)
	if !k.A.Less(k.B) && k.A != k.B {
		t.Errorf("key pair not canonically ordered: %+v", k)
	}
}

func TestGetPutRoundTrip(t *testing.T) {
	c := New(64)
	k := PairKey(1, fp(1, 2), fp(3, 4))
	if _, ok := c.Get(k); ok {
		t.Fatal("hit on empty cache")
	}
	c.Put(k, 2.5)
	if v, ok := c.Get(k); !ok || v != 2.5 {
		t.Fatalf("Get = %v, %v after Put", v, ok)
	}
	// Refresh overwrites in place.
	c.Put(k, 3.5)
	if v, _ := c.Get(k); v != 3.5 {
		t.Fatalf("refreshed value = %v, want 3.5", v)
	}
	st := c.Stats()
	if st.Hits != 2 || st.Misses != 1 || st.Inserts != 1 {
		t.Errorf("stats = %+v, want 2 hits, 1 miss, 1 insert", st)
	}
	if got := st.HitRate(); got < 0.66 || got > 0.67 {
		t.Errorf("hit rate = %v, want 2/3", got)
	}
}

// sameShardKeys returns count distinct keys that all land in one shard of c,
// so LRU ordering is observable regardless of shard count.
func sameShardKeys(c *Cache, count int) []Key {
	rng := rand.New(rand.NewSource(5))
	var keys []Key
	want := uint64(0)
	for len(keys) < count {
		k := PairKey(1, fp(rng.Uint64(), rng.Uint64()), fp(rng.Uint64(), rng.Uint64()))
		if len(keys) == 0 {
			want = k.hash() & c.mask
			keys = append(keys, k)
			continue
		}
		if k.hash()&c.mask == want {
			keys = append(keys, k)
		}
	}
	return keys
}

func TestLRUEvictionOrder(t *testing.T) {
	c := New(64) // minPerShard keeps every shard's capacity >= 8
	per := c.shards[0].cap
	if per < 2 {
		t.Fatalf("test needs per-shard capacity >= 2, got %d", per)
	}
	keys := sameShardKeys(c, per+1)
	for i, k := range keys[:per] {
		c.Put(k, float64(i))
	}
	// Touch keys[0] so keys[1] is now the least recently used.
	if _, ok := c.Get(keys[0]); !ok {
		t.Fatal("warm entry missing")
	}
	c.Put(keys[per], 99) // must evict keys[1]
	if _, ok := c.Get(keys[1]); ok {
		t.Error("least recently used entry survived eviction")
	}
	if _, ok := c.Get(keys[0]); !ok {
		t.Error("recently used entry was evicted")
	}
	if _, ok := c.Get(keys[per]); !ok {
		t.Error("newly inserted entry missing")
	}
	if ev := c.Stats().Evictions; ev != 1 {
		t.Errorf("evictions = %d, want 1", ev)
	}
}

func TestCapacityBound(t *testing.T) {
	c := New(32)
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 10_000; i++ {
		c.Put(PairKey(1, fp(rng.Uint64(), rng.Uint64()), fp(rng.Uint64(), rng.Uint64())), float64(i))
	}
	// Per-shard rounding can push the bound slightly above the request, but
	// never unboundedly.
	bound := 0
	for i := range c.shards {
		bound += c.shards[i].cap
	}
	if got := c.Len(); got > bound {
		t.Errorf("Len = %d exceeds shard capacity sum %d", got, bound)
	}
	if c.Stats().Evictions == 0 {
		t.Error("overfilled cache never evicted")
	}
}

func TestTinyCapacities(t *testing.T) {
	for _, capacity := range []int{1, 2, 3} {
		c := New(capacity)
		rng := rand.New(rand.NewSource(3))
		for i := 0; i < 100; i++ {
			k := PairKey(1, fp(rng.Uint64(), rng.Uint64()), fp(rng.Uint64(), rng.Uint64()))
			c.Put(k, float64(i))
			if v, ok := c.Get(k); !ok || v != float64(i) {
				t.Fatalf("capacity %d: just-inserted key missing", capacity)
			}
		}
	}
	if New(0) == nil || New(-5) == nil {
		t.Error("non-positive capacity not defaulted")
	}
}

// Concurrent probes and inserts on shared keys; run under -race in CI.
func TestCacheConcurrent(t *testing.T) {
	c := New(256)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 2_000; i++ {
				k := PairKey(1, fp(rng.Uint64()%64, 1), fp(rng.Uint64()%64, 2))
				if v, ok := c.Get(k); ok && v != float64(k.A.Hi+k.B.Hi) {
					t.Errorf("corrupted value %v for %+v", v, k)
					return
				}
				c.Put(k, float64(k.A.Hi+k.B.Hi))
			}
		}(g)
	}
	wg.Wait()
	st := c.Stats()
	if st.Hits == 0 || st.Inserts == 0 {
		t.Errorf("concurrent run recorded no activity: %+v", st)
	}
}
