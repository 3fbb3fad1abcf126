package topk

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/faults"
	"repro/internal/randrank"
	"repro/internal/ranking"
	"repro/internal/telemetry"
)

// The instance-optimality story in numbers: probes on correlated inputs
// stay near the certificate bound; uniform inputs force deep reads.
func BenchmarkMedRankPolicies(b *testing.B) {
	for _, theta := range []float64{2.0, 0.0} {
		rng := rand.New(rand.NewSource(9))
		in, _ := randrank.MallowsEnsemble(rng, 5000, 5, theta)
		for _, pol := range []struct {
			name string
			p    Policy
		}{{"merge", GlobalMerge}, {"roundrobin", RoundRobin}} {
			b.Run(fmt.Sprintf("theta=%.0f/%s", theta, pol.name), func(b *testing.B) {
				var total int
				for i := 0; i < b.N; i++ {
					res, err := runSpec(in, Spec{K: 10, Policy: pol.p}, nil)
					if err != nil {
						b.Fatal(err)
					}
					total = res.Stats.Total
				}
				b.ReportMetric(float64(total), "probes")
			})
		}
	}
}

func BenchmarkListSourceScan(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	pr := randrank.Partial(rng, 100000, 50)
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src := NewListSource(pr, telemetry.NewAccessAccountant(1), 0)
		for {
			if _, ok, _ := src.Next(ctx); !ok {
				break
			}
		}
	}
}

func BenchmarkMedRankFewValuedCatalog(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	ens := randrank.CatalogEnsemble(rng, 10000, 5, 5, 1.0, 1.5)
	var in []*ranking.PartialRanking = ens.Rankings
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := runSpec(in, Spec{K: 10, Policy: RoundRobin}, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngines runs each engine over list sources on the allocation
// ceilings' catalog (TestEngineAllocCeilings), telemetry off.
func BenchmarkEngines(b *testing.B) {
	setTelemetry(b, false)
	in := engineShape()
	for _, c := range engineSpecs {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := runSpec(in, c.spec, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkEnginesServed runs the engines the service runs (servedSpecs:
// MEDRANK under GlobalMerge, TA, NRA, CA at ratio 10; k=10) on the top-k
// catalogs the repository benchmark serves, topk-mixed's 1000×16×6 and
// overload-deadline's 2000×32×8, telemetry off.
func BenchmarkEnginesServed(b *testing.B) {
	setTelemetry(b, false)
	for _, sh := range servedShapes() {
		for _, c := range servedSpecs {
			b.Run(sh.name+"/"+c.name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := runSpec(sh.in, c.spec, nil); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkEnginesWide runs each engine, k=5, on full Mallows rankings of the
// overload CI job's shape (rankload -n 2400 -m 600 -k 5): concentrated at
// θ=1.0, rankload's default, and flatter at θ=0.1, where certification reads
// deeper. It is the only benchmark with more than 64 lists, so per-probe work
// that grows with m shows here first.
func BenchmarkEnginesWide(b *testing.B) {
	setTelemetry(b, false)
	for _, theta := range []float64{1.0, 0.1} {
		in, _ := randrank.MallowsEnsemble(rand.New(rand.NewSource(7)), 2400, 600, theta)
		for _, c := range engineSpecs {
			spec := c.spec
			spec.K = 5
			b.Run(fmt.Sprintf("theta=%.1f/%s", theta, c.name), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := runSpec(in, spec, nil); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkEnginesUnderFaults prices the fault paths on the same catalog:
// retries absorbing a 2 % transient failure rate, and list 0 dying on its
// second access so the run rebuilds over the four survivors and finishes
// degraded. Sources are stateful, so each run builds its own stack.
func BenchmarkEnginesUnderFaults(b *testing.B) {
	setTelemetry(b, false)
	in := engineShape()
	transient := func(int) *faults.Plan { return &faults.Plan{TransientRate: 0.02} }
	killFirst := func(i int) *faults.Plan {
		if i != 0 {
			return nil
		}
		return &faults.Plan{DeathAfter: 1}
	}
	medrank := Spec{Algo: AlgoMedRank, K: 10, Policy: RoundRobin}
	for _, c := range []struct {
		name  string
		spec  Spec
		plan  func(i int) *faults.Plan
		retry bool
	}{
		{"medrank_retry", medrank, transient, true},
		{"medrank_degraded", medrank, killFirst, false},
		{"nra_degraded", Spec{Algo: AlgoNRA, K: 10}, killFirst, false},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				acc := telemetry.NewAccessAccountant(len(in))
				srcs := listSources(in, acc, func(i int, s faults.Source, _ *telemetry.AccessAccountant) faults.Source {
					if p := c.plan(i); p != nil {
						p.Seed, p.Sleeper = int64(i), &faults.FakeSleeper{}
						s = faults.Inject(s, *p)
					}
					if c.retry {
						pol := faults.DefaultRetryPolicy()
						pol.Sleeper = &faults.FakeSleeper{}
						s = faults.WithRetry(s, pol, acc, i)
					}
					return s
				})
				if _, err := Run(context.Background(), c.spec, srcs, acc); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTracing runs MEDRANK three ways: telemetry disabled, enabled
// inside an unsampled request (the path every production request takes;
// TestUnsampledTracingAllocCeiling pins its allocations), and inside a
// sampled request that collects the span tree.
func BenchmarkTracing(b *testing.B) {
	in := engineShape()
	spec := Spec{Algo: AlgoMedRank, K: 10, Policy: RoundRobin}
	run := func(b *testing.B, ctx context.Context) {
		acc := telemetry.NewAccessAccountant(len(in))
		if _, err := Run(ctx, spec, listSources(in, acc, nil), acc); err != nil {
			b.Fatal(err)
		}
	}
	b.Run("disabled", func(b *testing.B) {
		setTelemetry(b, false)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			run(b, context.Background())
		}
	})
	b.Run("unsampled", func(b *testing.B) {
		setTelemetry(b, true)
		ctx := telemetry.WithTrace(context.Background(), 1, false)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			run(b, ctx)
		}
	})
	b.Run("sampled", func(b *testing.B) {
		setTelemetry(b, true)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ctx := telemetry.WithTrace(context.Background(), uint64(i+1), true)
			run(b, ctx)
			telemetry.FinishTrace(ctx, telemetry.TraceMeta{Endpoint: "bench"})
		}
	})
}
