package rankties

// The benchmark harness regenerates every reproduction table (experiments
// E1-E14; one benchmark per table) and measures the core engines. Run:
//
//	go test -bench=. -benchmem
//
// BenchmarkExperimentEx reports the wall-clock cost of regenerating the
// corresponding table in EXPERIMENTS.md; the table contents themselves are
// printed by cmd/experiments.

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/aggregate"
	"repro/internal/experiments"
	"repro/internal/metrics"
	"repro/internal/randrank"
	"repro/internal/ranking"
)

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Run(id, 2004); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExperimentE1(b *testing.B)  { benchExperiment(b, "E1") }
func BenchmarkExperimentE2(b *testing.B)  { benchExperiment(b, "E2") }
func BenchmarkExperimentE3(b *testing.B)  { benchExperiment(b, "E3") }
func BenchmarkExperimentE4(b *testing.B)  { benchExperiment(b, "E4") }
func BenchmarkExperimentE5(b *testing.B)  { benchExperiment(b, "E5") }
func BenchmarkExperimentE6(b *testing.B)  { benchExperiment(b, "E6") }
func BenchmarkExperimentE7(b *testing.B)  { benchExperiment(b, "E7") }
func BenchmarkExperimentE8(b *testing.B)  { benchExperiment(b, "E8") }
func BenchmarkExperimentE9(b *testing.B)  { benchExperiment(b, "E9") }
func BenchmarkExperimentE10(b *testing.B) { benchExperiment(b, "E10") }
func BenchmarkExperimentE11(b *testing.B) { benchExperiment(b, "E11") }
func BenchmarkExperimentE12(b *testing.B) { benchExperiment(b, "E12") }
func BenchmarkExperimentE13(b *testing.B) { benchExperiment(b, "E13") }
func BenchmarkExperimentE14(b *testing.B) { benchExperiment(b, "E14") }

// --- Core engine micro-benchmarks -----------------------------------------

func benchPair(n, maxBucket int) (*ranking.PartialRanking, *ranking.PartialRanking) {
	rng := rand.New(rand.NewSource(int64(n)))
	return randrank.Partial(rng, n, maxBucket), randrank.Partial(rng, n, maxBucket)
}

func BenchmarkKProf(b *testing.B) {
	for _, n := range []int{100, 1000, 10000, 100000} {
		a, c := benchPair(n, 6)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := metrics.KProf(a, c); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkFProf(b *testing.B) {
	for _, n := range []int{1000, 100000} {
		a, c := benchPair(n, 6)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := metrics.FProf(a, c); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkKHaus(b *testing.B) {
	for _, n := range []int{1000, 100000} {
		a, c := benchPair(n, 6)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := metrics.KHaus(a, c); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkFHaus(b *testing.B) {
	for _, n := range []int{1000, 100000} {
		a, c := benchPair(n, 6)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := metrics.FHaus(a, c); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Workspace kernel benchmarks ------------------------------------------
//
// Each pair compares the retained pre-workspace engine ("alloc" or
// "refinement") against the zero-allocation workspace kernel ("workspace")
// on the same inputs, over the pair shapes of kernelPairs. Run with
// -benchmem; BENCH_PR1.json recorded the maxBucket=6 measurements.

type kernelPair struct {
	name string
	a, b *ranking.PartialRanking
}

// kernelPairs returns the kernel benchmark shapes: a 1000-element pair with
// buckets of up to 6, and the shapes the server computes on — two 10-bucket
// 300-element catalog lists (agg-cached, ingest-churn), two 6-value
// 1000-element lists (the top-k catalogs), and a full 300-ranking against a
// 10-bucket list (an aggregate's median against one input).
func kernelPairs() []kernelPair {
	a, c := benchPair(1000, 6)
	churn, center := randrank.MallowsPartialEnsemble(rand.New(rand.NewSource(1)), 300, 16, 0.1, 10)
	catalog := randrank.CatalogEnsemble(rand.New(rand.NewSource(2)), 1000, 16, 6, 1, 0.05).Rankings
	return []kernelPair{
		{"maxBucket=6", a, c},
		{"churn", churn[0], churn[1]},
		{"catalog", catalog[0], catalog[1]},
		{"full-vs-10", center, churn[0]},
	}
}

func BenchmarkCountPairsKernel(b *testing.B) {
	for _, p := range kernelPairs() {
		b.Run(p.name+"/alloc", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := metrics.CountPairsAlloc(p.a, p.b); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(p.name+"/workspace", func(b *testing.B) {
			ws := metrics.NewWorkspace()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := ws.CountPairs(p.a, p.b); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkFHausKernel(b *testing.B) {
	for _, p := range kernelPairs() {
		b.Run(p.name+"/refinement", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := metrics.FHausViaRefinement(p.a, p.b); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(p.name+"/workspace", func(b *testing.B) {
			ws := metrics.NewWorkspace()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := ws.FHaus(p.a, p.b); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func benchEnsemble(m, n int) []*ranking.PartialRanking {
	rng := rand.New(rand.NewSource(42))
	out := make([]*ranking.PartialRanking, m)
	for i := range out {
		out[i] = randrank.Partial(rng, n, 6)
	}
	return out
}

// BenchmarkDistanceMatrixKProf is the m=64, n=1000 ensemble sweep of the
// PR 1 acceptance criteria: the workspace path must at least halve total
// allocations versus the seed-style closure over the allocating engine.
func BenchmarkDistanceMatrixKProf(b *testing.B) {
	in := benchEnsemble(64, 1000)
	b.Run("alloc", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := metrics.DistanceMatrix(in, func(x, y *ranking.PartialRanking) (float64, error) {
				pc, err := metrics.CountPairsAlloc(x, y)
				if err != nil {
					return 0, err
				}
				return metrics.KProfFromCounts(pc), nil
			}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("workspace", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := metrics.DistanceMatrixWith(in, metrics.KProfWS); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkSumDistanceKProf(b *testing.B) {
	in := benchEnsemble(64, 1000)
	b.Run("alloc", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := aggregate.SumDistance(in[0], in, func(x, y *ranking.PartialRanking) (float64, error) {
				pc, err := metrics.CountPairsAlloc(x, y)
				if err != nil {
					return 0, err
				}
				return metrics.KProfFromCounts(pc), nil
			}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("workspace", func(b *testing.B) {
		ws := metrics.NewWorkspace()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := aggregate.SumDistanceWith(ws, in[0], in, metrics.KProfWS); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkCompareAllEnsemble measures the batched four-metric sweep.
func BenchmarkCompareAllEnsemble(b *testing.B) {
	in := benchEnsemble(32, 500)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := metrics.CompareAll(in); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDPOptimalPartial exhibits the O(n^2) shape of the Figure 1 DP.
func BenchmarkDPOptimalPartial(b *testing.B) {
	for _, n := range []int{100, 400, 1600} {
		rng := rand.New(rand.NewSource(int64(n)))
		f := make([]float64, n)
		for i := range f {
			f[i] = float64(rng.Intn(2*n)) / 2
		}
		b.Run(fmt.Sprintf("figure1/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := aggregate.OptimalPartialFigure1(f); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("general/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := aggregate.OptimalPartial(f); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFootruleOptimal measures the Hungarian matching the paper calls
// computationally heavy (O(n^3)) — the price median aggregation avoids.
func BenchmarkFootruleOptimal(b *testing.B) {
	for _, n := range []int{50, 100, 200} {
		rng := rand.New(rand.NewSource(int64(n)))
		in, _ := randrank.MallowsEnsemble(rng, n, 5, 0.5)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := aggregate.FootruleOptimalFull(in); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkMedianFull(b *testing.B) {
	for _, n := range []int{1000, 10000} {
		rng := rand.New(rand.NewSource(int64(n)))
		in, _ := randrank.MallowsEnsemble(rng, n, 5, 0.5)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := aggregate.MedianFull(in); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkMedRank measures the streaming top-k engine on correlated vs
// uniform inputs; the correlated case must be dramatically cheaper.
func BenchmarkMedRank(b *testing.B) {
	for _, tc := range []struct {
		name  string
		theta float64
	}{
		{"correlated", 2.0},
		{"uniform", 0.0},
	} {
		rng := rand.New(rand.NewSource(5))
		in, _ := randrank.MallowsEnsemble(rng, 5000, 5, tc.theta)
		b.Run(tc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := MedRank(in, 10, GlobalMerge); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
