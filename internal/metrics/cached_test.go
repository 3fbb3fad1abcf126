package metrics

import (
	"errors"
	"math/rand"
	"testing"

	"repro/internal/cache"
	"repro/internal/randrank"
	"repro/internal/ranking"
	"repro/internal/telemetry"
)

// dupHeavyEnsemble draws `distinct` Mallows voters and inflates them to m
// rankings by cloning: the duplicates are distinct structs with equal
// content, so cache hits must come from fingerprint equality, never pointer
// identity.
func dupHeavyEnsemble(rng *rand.Rand, n, distinct, m int) []*ranking.PartialRanking {
	base, _ := randrank.MallowsEnsemble(rng, n, distinct, 1.0)
	out := make([]*ranking.PartialRanking, m)
	for i := range out {
		out[i] = base[rng.Intn(distinct)].Clone()
	}
	return out
}

// Cached engines must be bit-for-bit identical to their uncached
// counterparts across all four paper metrics, and repeat sweeps must be
// served from the cache. Run under -race in CI: the matrix sweep probes one
// shared cache from GOMAXPROCS workers. With telemetry on, the registry's
// cache counters move by exactly the cache's own tallies.
func TestCachedMatrixMatchesUncached(t *testing.T) {
	was := telemetry.Enabled()
	telemetry.Enable()
	defer func() {
		if !was {
			telemetry.Disable()
		}
	}()
	telHits := telemetry.GetCounter("cache.distance.hits")
	telMisses := telemetry.GetCounter("cache.distance.misses")
	rng := rand.New(rand.NewSource(41))
	in := dupHeavyEnsemble(rng, 18, 4, 28)
	cases := []struct {
		name     string
		uncached DistanceWS
		cached   func(*cache.Cache) DistanceWS
	}{
		{"kprof", KProfWS, CachedKProf},
		{"fprof", FProfWS, CachedFProf},
		{"khaus", KHausWS, CachedKHaus},
		{"fhaus", FHausWS, CachedFHaus},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want, err := DistanceMatrixWith(in, tc.uncached)
			if err != nil {
				t.Fatal(err)
			}
			c := cache.New(4096)
			d := tc.cached(c)
			hits0, misses0 := telHits.Value(), telMisses.Value()
			for pass := 0; pass < 2; pass++ {
				got, err := DistanceMatrixWith(in, d)
				if err != nil {
					t.Fatal(err)
				}
				for i := range want {
					for j := range want[i] {
						if got[i][j] != want[i][j] {
							t.Fatalf("pass %d: [%d][%d] = %v, want %v", pass, i, j, got[i][j], want[i][j])
						}
					}
				}
			}
			st := c.Stats()
			if st.Hits == 0 {
				t.Errorf("duplicate-heavy sweep recorded no cache hits: %+v", st)
			}
			// Only 4 distinct rankings exist, so at most C(4,2) cross pairs plus
			// 4 equal-content pairs (two clones of one base at different matrix
			// indices) = 10 distinct keys can ever miss; everything else must hit.
			if st.Inserts > 10 {
				t.Errorf("inserted %d values for <= 10 distinct pairs", st.Inserts)
			}
			if h, m := telHits.Value()-hits0, telMisses.Value()-misses0; h != st.Hits || m != st.Misses {
				t.Errorf("telemetry counted %d hits, %d misses; cache counted %d, %d", h, m, st.Hits, st.Misses)
			}
		})
	}
}

// A single Cached wrapper serves both orientations of a pair from one entry,
// and values are exactly the kernel's.
func TestCachedSymmetricOrientation(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	c := cache.New(128)
	d := CachedKProf(c)
	ws := GetWorkspace()
	defer PutWorkspace(ws)
	for trial := 0; trial < 50; trial++ {
		a := randrank.Partial(rng, 12, 3)
		b := randrank.Partial(rng, 12, 3)
		want, err := KProfWS(ws, a, b)
		if err != nil {
			t.Fatal(err)
		}
		ab, err := d(ws, a, b)
		if err != nil {
			t.Fatal(err)
		}
		ba, err := d(ws, b, a)
		if err != nil {
			t.Fatal(err)
		}
		if ab != want || ba != want {
			t.Fatalf("trial %d: cached %v/%v, want %v", trial, ab, ba, want)
		}
	}
	st := c.Stats()
	// The reversed orientation of every pair must have hit its canonical key.
	if st.Hits < 50 {
		t.Errorf("hits = %d, want >= 50 (one per reversed probe)", st.Hits)
	}
}

// Distinct metric IDs sharing one cache must never serve each other's values.
func TestCachedMetricIDsIsolated(t *testing.T) {
	c := cache.New(128)
	kprof := CachedKProf(c)
	fprof := CachedFProf(c)
	ws := GetWorkspace()
	defer PutWorkspace(ws)
	a := ranking.MustFromOrder([]int{0, 1, 2, 3})
	b := a.Reverse()
	kWant, _ := KProf(a, b)
	fWant, _ := FProf(a, b)
	if kWant == fWant {
		t.Fatal("test pair does not distinguish the metrics")
	}
	if got, _ := kprof(ws, a, b); got != kWant {
		t.Errorf("kprof = %v, want %v", got, kWant)
	}
	if got, _ := fprof(ws, a, b); got != fWant {
		t.Errorf("fprof after kprof primed the cache = %v, want %v", got, fWant)
	}
}

// Errors pass through uncached: nothing is inserted, and a later success is
// computed fresh.
func TestCachedErrorNotMemoized(t *testing.T) {
	c := cache.New(128)
	boom := errors.New("boom")
	fail := true
	d := Cached(c, 99, func(ws *Workspace, a, b *ranking.PartialRanking) (float64, error) {
		if fail {
			return 0, boom
		}
		return 7, nil
	})
	ws := GetWorkspace()
	defer PutWorkspace(ws)
	a := ranking.MustFromOrder([]int{0, 1})
	b := ranking.MustFromOrder([]int{1, 0})
	if _, err := d(ws, a, b); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if c.Len() != 0 {
		t.Error("failed compute left an entry behind")
	}
	fail = false
	if v, err := d(ws, a, b); err != nil || v != 7 {
		t.Errorf("recovered compute = %v, %v, want 7", v, err)
	}
}
