package topk

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

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
