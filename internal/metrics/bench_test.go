package metrics

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/cache"
	"repro/internal/randrank"
	"repro/internal/ranking"
)

func benchRankings(n, maxBucket int) (*ranking.PartialRanking, *ranking.PartialRanking) {
	rng := rand.New(rand.NewSource(int64(n + maxBucket)))
	return randrank.Partial(rng, n, maxBucket), randrank.Partial(rng, n, maxBucket)
}

func BenchmarkCountPairs(b *testing.B) {
	for _, n := range []int{100, 1000, 10000} {
		a, c := benchRankings(n, 6)
		b.Run(fmt.Sprintf("fast/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := CountPairs(a, c); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	for _, n := range []int{100, 1000} {
		a, c := benchRankings(n, 6)
		b.Run(fmt.Sprintf("naive/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := CountPairsNaive(a, c); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkKendallFull(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1000, 100000} {
		a := randrank.Full(rng, n)
		c := randrank.Full(rng, n)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := Kendall(a, c); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// Benchmark the tie-density effect: the same n with very coarse vs very
// fine bucket structure.
func BenchmarkKProfTieDensity(b *testing.B) {
	for _, maxB := range []int{1, 10, 100} {
		a, c := benchRankings(10000, maxB)
		b.Run(fmt.Sprintf("maxBucket=%d", maxB), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := KProf(a, c); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkDistanceMatrix(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	var in []*ranking.PartialRanking
	for i := 0; i < 16; i++ {
		in = append(in, randrank.Partial(rng, 2000, 6))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DistanceMatrix(in, KProf); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkKendallW(b *testing.B) {
	rng := rand.New(rand.NewSource(10))
	in, _ := randrank.MallowsEnsemble(rng, 10000, 9, 0.5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := KendallW(in); err != nil {
			b.Fatal(err)
		}
	}
}

// Ablation: the bucket-aware discordance counter vs the sort-based engine,
// across tie densities. Heavy ties (few buckets) should favor the bucketed
// engine sharply.
func BenchmarkCountPairsAblation(b *testing.B) {
	for _, maxB := range []int{1, 10, 1000} {
		a, c := benchRankings(20000, maxB)
		b.Run(fmt.Sprintf("bucketed/maxBucket=%d", maxB), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := CountPairs(a, c); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("viaSort/maxBucket=%d", maxB), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := countPairsViaSort(a, c); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDistanceMatrixDuplicates sweeps a duplicate-heavy ensemble (8
// distinct Mallows rankings cloned out to 64 voters) with and without the
// distance cache. The cache lives across iterations, so after the first
// sweep every pair is a hit; TestCachedMatrixMatchesUncached pins the counts.
func BenchmarkDistanceMatrixDuplicates(b *testing.B) {
	in := dupHeavyEnsemble(rand.New(rand.NewSource(42)), 1000, 8, 64)
	for _, c := range []struct {
		name string
		d    DistanceWS
	}{
		{"uncached", KProfWS},
		{"cached", CachedKProf(cache.New(0))},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := DistanceMatrixWith(in, c.d); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
