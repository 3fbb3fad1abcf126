package experiments

import (
	"context"
	"fmt"
	"math/rand"

	"repro/internal/randrank"
	"repro/internal/ranking"
	"repro/internal/topk"
)

// runTopK runs spec over in-memory rankings.
func runTopK(in []*ranking.PartialRanking, spec topk.Spec) (*topk.Result, error) {
	return topk.RunRankings(context.Background(), spec, in, nil)
}

// medrankAccess runs MEDRANK for the top k and formats its total access
// cost as a fraction of the full scan.
func medrankAccess(in []*ranking.PartialRanking, k int) (string, error) {
	res, err := runTopK(in, topk.Spec{K: k, Policy: topk.RoundRobin})
	if err != nil {
		return "", err
	}
	full := topk.FullScanCost(in)
	return fmt.Sprintf("%d/%d (%.1f%%)", res.Stats.Total, full.Total,
		100*float64(res.Stats.Total)/float64(full.Total)), nil
}

// E7InstanceOptimality reproduces the Section 6 access-cost claim: MEDRANK
// reads "essentially as few elements of each partial ranking as are
// necessary to determine the winner(s)". For each workload it reports the
// probes of both probe policies, the full-scan cost, a per-instance
// certificate lower bound that any correct sequential-access algorithm must
// pay, and the resulting instance-optimality ratio.
func E7InstanceOptimality(seed int64) (*Table, error) {
	t := &Table{
		ID:      "E7",
		Title:   "MEDRANK access cost (m=5 lists)",
		Claim:   "Sec. 6 / [11,12]: MEDRANK is instance-optimal among sequential-access algorithms",
		Headers: []string{"workload", "n", "k", "merge probes", "round-robin probes", "bucket I/Os", "full scan", "certificate LB", "ratio (merge/LB)"},
	}
	rng := rand.New(rand.NewSource(seed))
	const m = 5

	type workload struct {
		name string
		gen  func(n int) []*ranking.PartialRanking
	}
	workloads := []workload{
		{"correlated (Mallows theta=2)", func(n int) []*ranking.PartialRanking {
			in, _ := randrank.MallowsEnsemble(rng, n, m, 2.0)
			return in
		}},
		{"semi-correlated (theta=0.5)", func(n int) []*ranking.PartialRanking {
			in, _ := randrank.MallowsEnsemble(rng, n, m, 0.5)
			return in
		}},
		{"random (theta=0)", func(n int) []*ranking.PartialRanking {
			in, _ := randrank.MallowsEnsemble(rng, n, m, 0)
			return in
		}},
		{"few-valued catalog (5 values)", func(n int) []*ranking.PartialRanking {
			return randrank.CatalogEnsemble(rng, n, m, 5, 1.0, 1.5).Rankings
		}},
	}

	for _, w := range workloads {
		for _, n := range []int{1000, 10000} {
			for _, k := range []int{1, 10} {
				in := w.gen(n)
				merge, err := runTopK(in, topk.Spec{K: k, Policy: topk.GlobalMerge})
				if err != nil {
					return nil, err
				}
				rr, err := runTopK(in, topk.Spec{K: k, Policy: topk.RoundRobin})
				if err != nil {
					return nil, err
				}
				if !merge.TopK.Equal(rr.TopK) {
					return nil, fmt.Errorf("E7: policies disagree on %s n=%d k=%d", w.name, n, k)
				}
				bucket, err := runTopK(in, topk.Spec{K: k, Policy: topk.GlobalMergeBuckets})
				if err != nil {
					return nil, err
				}
				if !bucket.TopK.Equal(merge.TopK) {
					return nil, fmt.Errorf("E7: bucket policy disagrees on %s n=%d k=%d", w.name, n, k)
				}
				full := topk.FullScanCost(in)
				// MEDRANK is sequential-only, so its instance-optimality
				// ratio is priced in the NRA cost regime (cs=1, cr=0) —
				// numerically identical to the old total/bound quotient, but
				// routed through the cost-aware accounting instead of the
				// deprecated equal-weights one.
				lb := topk.CertificateLowerBoundCost(in, merge.Winners, 1, 0)
				ratio := "-"
				if lb > 0 {
					ratio = fmt.Sprintf("%.2f", merge.Stats.CostOptimalityRatio(1, 0, lb))
				}
				t.AddRow(w.name, n, k, merge.Stats.Total, rr.Stats.Total,
					bucket.Stats.TotalBucketProbes, full.Total, lb, ratio)
			}
		}
	}
	t.Notef("the certificate LB is conservative (it only charges for observing the winners), so ratios overstate the true gap")
	t.Notef("bucket I/Os price the realistic access model where one index-scan I/O returns a whole run of tied rows; on the few-valued catalog it collapses the element-read blow-up")
	t.Notef("on correlated inputs the probes stay near the LB and far below the full scan; on uniform inputs every algorithm must read deep")
	return t, nil
}
