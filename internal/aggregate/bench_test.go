package aggregate

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/cache"
	"repro/internal/metrics"
	"repro/internal/randrank"
	"repro/internal/ranking"
)

func benchEnsemble(n, m int, theta float64) []*ranking.PartialRanking {
	rng := rand.New(rand.NewSource(int64(n*31 + m)))
	in, _ := randrank.MallowsEnsemble(rng, n, m, theta)
	return in
}

func BenchmarkMedianScores(b *testing.B) {
	run := func(name string, in []*ranking.PartialRanking) {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := MedianScores(in, LowerMedian); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	for _, n := range []int{1000, 100000} {
		run(fmt.Sprintf("n=%d", n), benchEnsemble(n, 7, 0.5))
	}
	// The agg-cached workload's catalog shape.
	in, _ := randrank.MallowsPartialEnsemble(rand.New(rand.NewSource(300)), 300, 24, 0.1, 10)
	run("n=300,m=24,buckets=10", in)
}

// BenchmarkLocalKemenize runs local Kemenization on two benchmark workloads'
// catalog shapes: agg-cached's (n=300, m=24, 10 buckets) from the median
// start the service passes and from its reversal, and overload-deadline's
// (n=2000, m=32, 8 values) from the median start.
func BenchmarkLocalKemenize(b *testing.B) {
	run := func(name string, in []*ranking.PartialRanking, reverse bool) {
		start, err := MedianTopK(in, in[0].N())
		if err != nil {
			b.Fatal(err)
		}
		if reverse {
			order := start.Order()
			slices.Reverse(order)
			start = ranking.MustFromOrder(order)
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := LocalKemenize(start, in); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	in, _ := randrank.MallowsPartialEnsemble(rand.New(rand.NewSource(300)), 300, 24, 0.1, 10)
	run("n=300,m=24/median", in, false)
	run("n=300,m=24/reversed", in, true)
	catalog := randrank.CatalogEnsemble(rand.New(rand.NewSource(2000)), 2000, 32, 8, 1, 0.05)
	run("n=2000,m=32/median", catalog.Rankings, false)
}

func BenchmarkOptimalPartialEngines(b *testing.B) {
	for _, n := range []int{200, 800, 3200} {
		rng := rand.New(rand.NewSource(int64(n)))
		f := make([]float64, n)
		for i := range f {
			f[i] = float64(rng.Intn(2*n)) / 2
		}
		b.Run(fmt.Sprintf("figure1/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := OptimalPartialFigure1(f); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("prefixsum/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := OptimalPartial(f); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkHungarian(b *testing.B) {
	for _, n := range []int{50, 200} {
		in := benchEnsemble(n, 5, 0.5)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := FootruleOptimalFull(in); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkBaselines(b *testing.B) {
	in := benchEnsemble(500, 5, 0.5)
	b.Run("borda", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := Borda(in); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("mc4", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := MarkovChain(in, MC4, MarkovChainOptions{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("localkemeny", func(b *testing.B) {
		start, err := Borda(in)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := LocalKemenize(start, in); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkKemenyOptimalDP(b *testing.B) {
	for _, n := range []int{10, 14, 18} {
		in := benchEnsemble(n, 5, 0.5)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := KemenyOptimalDP(in); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkBestOfInputsDuplicates scores every input of a duplicate-heavy
// ensemble (8 distinct Mallows rankings cloned out to 64 voters) as the
// candidate consensus: serially, on parallel workers, and on parallel
// workers through a distance cache that lives across iterations.
func BenchmarkBestOfInputsDuplicates(b *testing.B) {
	in := dupEnsemble(rand.New(rand.NewSource(42)), 1000, 8, 64)
	b.Run("serial", func(b *testing.B) {
		ws := metrics.NewWorkspace()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, _, err := BestOfInputsWith(ws, in, metrics.KProfWS); err != nil {
				b.Fatal(err)
			}
		}
	})
	for _, c := range []struct {
		name string
		d    metrics.DistanceWS
	}{
		{"parallel", metrics.KProfWS},
		{"parallel_cached", metrics.CachedKProf(cache.New(0))},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, _, err := BestOfInputsParallel(in, c.d); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
