package metrics

import (
	"repro/internal/ranking"
)

// KHaus returns the Hausdorff-Kendall distance between two partial rankings
// using the counting formula of Proposition 6:
//
//	KHaus(sigma, tau) = |U| + max{|S|, |T|},
//
// where U is the set of pairs in different buckets of both rankings and in
// different orders, S the pairs tied only in sigma, and T the pairs tied
// only in tau. Runs in one walk over the C non-empty bucket cells of the
// pair, O(n + C log t) (see (*Workspace).CountPairs).
func KHaus(a, b *ranking.PartialRanking) (int64, error) {
	pc, err := CountPairs(a, b)
	if err != nil {
		return 0, err
	}
	return KHausFromCounts(pc), nil
}

// KHausFromCounts applies the Proposition 6 formula to a precomputed pair
// classification.
func KHausFromCounts(pc PairCounts) int64 {
	return pc.Discordant + max64(pc.TiedOnlyInA, pc.TiedOnlyInB)
}

// hausdorffWitnesses builds the two candidate full-ranking pairs of
// Theorem 5 with rho = identity:
//
//	sigma1 = rho*tauR*sigma   tau1 = rho*sigma*tau
//	sigma2 = rho*tau*sigma    tau2 = rho*sigmaR*tau
//
// One of the pairs exhibits the Hausdorff distance for both F and K.
func hausdorffWitnesses(a, b *ranking.PartialRanking) (s1, t1, s2, t2 *ranking.PartialRanking) {
	rho := identityRanking(a.N())
	aR := a.Reverse()
	bR := b.Reverse()
	s1 = a.RefineBy(bR).RefineBy(rho)
	t1 = b.RefineBy(a).RefineBy(rho)
	s2 = a.RefineBy(b).RefineBy(rho)
	t2 = b.RefineBy(aR).RefineBy(rho)
	return s1, t1, s2, t2
}

// KHausViaRefinement computes KHaus by the Theorem 5 refinement
// construction: max{K(sigma1, tau1), K(sigma2, tau2)}. It must always agree
// with KHaus (Proposition 6); both are exported so the tests and experiment
// E2 can pin them together.
func KHausViaRefinement(a, b *ranking.PartialRanking) (int64, error) {
	if err := ranking.CheckSameDomain(a, b); err != nil {
		return 0, err
	}
	s1, t1, s2, t2 := hausdorffWitnesses(a, b)
	k1, err := Kendall(s1, t1)
	if err != nil {
		return 0, err
	}
	k2, err := Kendall(s2, t2)
	if err != nil {
		return 0, err
	}
	return max64(k1, k2), nil
}

// FHaus returns the Hausdorff-footrule distance between two partial rankings
// via the Theorem 5 characterization: max{F(sigma1, tau1), F(sigma2, tau2)}
// over the two witness pairs. The result is an integer because F between
// full rankings is integral. Runs in one walk over the C non-empty bucket
// cells of the pair, O(n + C log t), on a pooled workspace; the witness
// rankings are never materialized (see (*Workspace).FHaus).
func FHaus(a, b *ranking.PartialRanking) (int64, error) {
	ws := GetWorkspace()
	defer PutWorkspace(ws)
	return ws.FHaus(a, b)
}

// FHausViaRefinement computes FHaus by materializing the Theorem 5 witness
// refinements, exactly as the pre-workspace engine did. It must always agree
// with FHaus; the property tests and benchmark harness pin the two together.
func FHausViaRefinement(a, b *ranking.PartialRanking) (int64, error) {
	if err := ranking.CheckSameDomain(a, b); err != nil {
		return 0, err
	}
	s1, t1, s2, t2 := hausdorffWitnesses(a, b)
	f1, err := Footrule(s1, t1)
	if err != nil {
		return 0, err
	}
	f2, err := Footrule(s2, t2)
	if err != nil {
		return 0, err
	}
	return max64(f1, f2), nil
}

// Hausdorff returns the Hausdorff distance (Equation 2 of the paper) between
// two non-empty finite sets under an arbitrary distance function:
//
//	max{ max_{x in as} min_{y in bs} d(x,y), max_{y in bs} min_{x in as} d(x,y) }.
//
// It is the generic definition the paper instantiates with K and F over the
// sets of full refinements; the brute-force references use it directly.
func Hausdorff[T any](as, bs []T, d func(a, b T) float64) float64 {
	if len(as) == 0 || len(bs) == 0 {
		panic("metrics: Hausdorff of empty set")
	}
	worst := 0.0
	dir := func(xs, ys []T) {
		for _, x := range xs {
			best := -1.0
			for _, y := range ys {
				v := d(x, y)
				if best < 0 || v < best {
					best = v
				}
			}
			if best > worst {
				worst = best
			}
		}
	}
	dir(as, bs)
	dir(bs, as)
	return worst
}

// identityRanking returns the full ranking 0 < 1 < ... < n-1, used as the
// arbitrary tie-breaker rho of Theorem 5.
func identityRanking(n int) *ranking.PartialRanking {
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	return ranking.MustFromOrder(order)
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

func abs64(x int64) int64 {
	if x < 0 {
		return -x
	}
	return x
}
