package rankties

import (
	"repro/internal/metrics"
)

// PairCounts classifies all element pairs with respect to two partial
// rankings (Section 3.1 / Proposition 6): concordant, discordant (U), tied
// only in one ranking (S and T), tied in both.
type PairCounts = metrics.PairCounts

// CountPairs classifies all pairs in O(n log n); it is the engine behind
// every Kendall-family metric.
func CountPairs(a, b *PartialRanking) (PairCounts, error) { return metrics.CountPairs(a, b) }

// Kendall returns the Kendall tau distance between two full rankings
// (Section 2.2). O(n log n); errors if an input has ties.
func Kendall(a, b *PartialRanking) (int64, error) { return metrics.Kendall(a, b) }

// Footrule returns the Spearman footrule distance between two full rankings
// (Section 2.2). Errors if an input has ties.
func Footrule(a, b *PartialRanking) (int64, error) { return metrics.Footrule(a, b) }

// KProf returns the Kendall profile metric Kprof = K^(1/2) between partial
// rankings (Section 3.1): discordant pairs count 1, pairs tied in exactly
// one ranking count 1/2. The value is an exact multiple of 1/2.
func KProf(a, b *PartialRanking) (float64, error) { return metrics.KProf(a, b) }

// FProf returns the footrule profile metric Fprof between partial rankings:
// the L1 distance between position vectors (Section 3.1).
func FProf(a, b *PartialRanking) (float64, error) { return metrics.FProf(a, b) }

// KWithPenalty returns the Kendall distance with penalty parameter
// p in [0, 1] (Section 3.1). Proposition 13: a metric for p >= 1/2, a near
// metric for 0 < p < 1/2, and not a distance measure at p = 0.
func KWithPenalty(a, b *PartialRanking, p float64) (float64, error) {
	return metrics.KWithPenalty(a, b, p)
}

// KHaus returns the Hausdorff-Kendall metric between partial rankings,
// computed with the Proposition 6 formula |U| + max(|S|, |T|).
func KHaus(a, b *PartialRanking) (int64, error) { return metrics.KHaus(a, b) }

// FHaus returns the Hausdorff-footrule metric between partial rankings,
// computed with the Theorem 5 refinement characterization.
func FHaus(a, b *PartialRanking) (int64, error) { return metrics.FHaus(a, b) }

// KAvg returns the average Kendall distance over all pairs of full
// refinements (Appendix A.3). It equals KProf exactly when no pair is tied
// in both rankings; on general partial rankings it is not a distance
// measure.
func KAvg(a, b *PartialRanking) (float64, error) { return metrics.KAvg(a, b) }

// FLocation returns the footrule distance with location parameter l between
// two top-k lists (Appendix A.3). At l = (n+k+1)/2 it coincides with FProf.
func FLocation(a, b *PartialRanking, l float64) (float64, error) {
	return metrics.FLocation(a, b, l)
}

// GoodmanKruskalGamma returns the Goodman-Kruskal gamma association in
// [-1, 1], or ErrGammaUndefined when no pair is untied in both rankings —
// the partiality the paper cites as its disadvantage.
func GoodmanKruskalGamma(a, b *PartialRanking) (float64, error) {
	return metrics.GoodmanKruskalGamma(a, b)
}

// ErrGammaUndefined reports a vanishing gamma denominator.
var ErrGammaUndefined = metrics.ErrGammaUndefined

// AllDistances bundles the four paper metrics for one pair of partial
// rankings.
type AllDistances = metrics.AllDistances

// Distances computes all four metrics of Theorem 7 in one
// pair-classification pass on a pooled workspace. The values always satisfy
// KProf <= FProf <= 2 KProf, KHaus <= FHaus <= 2 KHaus, and
// KProf <= KHaus <= 2 KProf.
func Distances(a, b *PartialRanking) (AllDistances, error) {
	return metrics.Distances(a, b)
}

// Workspace is reusable scratch state for the metric engines. A warm
// workspace computes CountPairs, the Kendall family, and the footrule
// family with zero heap allocations, so loops that evaluate many distances
// (ensemble scoring, aggregation objectives, nearest-neighbor sweeps) pay
// O(1) allocations per distance instead of O(n). Reuse one Workspace per
// goroutine — the zero value is ready — or rely on the package pool that
// backs the plain metric functions. See also CompareAll and
// DistanceMatrixWith, which manage per-worker workspaces for you.
type Workspace = metrics.Workspace

// NewWorkspace returns an empty workspace whose scratch buffers grow on
// first use and are retained across calls.
func NewWorkspace() *Workspace { return metrics.NewWorkspace() }

// KendallTauA returns Kendall's tau-a coefficient in [-1, 1] (ties dilute
// toward 0).
func KendallTauA(a, b *PartialRanking) (float64, error) { return metrics.KendallTauA(a, b) }

// KendallTauB returns Kendall's tie-corrected tau-b coefficient (Kendall
// 1945, the Related Work's normalized profile distance).
func KendallTauB(a, b *PartialRanking) (float64, error) { return metrics.KendallTauB(a, b) }

// SpearmanRho returns the Spearman correlation of the position vectors
// (mid-rank tie treatment).
func SpearmanRho(a, b *PartialRanking) (float64, error) { return metrics.SpearmanRho(a, b) }

// NormalizedKProf returns Kprof scaled into [0, 1] by n(n-1)/2.
func NormalizedKProf(a, b *PartialRanking) (float64, error) { return metrics.NormalizedKProf(a, b) }

// NormalizedFProf returns Fprof scaled into [0, 1] by floor(n^2/2).
func NormalizedFProf(a, b *PartialRanking) (float64, error) { return metrics.NormalizedFProf(a, b) }

// ErrCorrelationUndefined reports a vanishing correlation denominator.
var ErrCorrelationUndefined = metrics.ErrCorrelationUndefined

// ReflectOrder builds the reflected-duplicate full ranking sigma_pi of
// Appendix A.5.2 over the doubled domain; see NestFreeOrder.
func ReflectOrder(sigma, pi *PartialRanking) *PartialRanking {
	return metrics.ReflectOrder(sigma, pi)
}

// NestFreeOrder returns the tie-breaking order of Lemma 23, under which the
// reflected footrule equals 4*FProf exactly.
func NestFreeOrder(sigma, tau *PartialRanking) (*PartialRanking, error) {
	return metrics.NestFreeOrder(sigma, tau)
}

// RankingDistance is a distance function between partial rankings, as
// consumed by DistanceMatrix.
type RankingDistance = metrics.Distance

// RankingDistanceWS is a workspace-aware distance function, as consumed by
// DistanceMatrixWith. The adapters KProfWS, FProfWS, KHausWS, and FHausWS
// cover the four paper metrics; custom distances receive the worker's warm
// workspace and may use any of its kernels.
type RankingDistanceWS = metrics.DistanceWS

// Workspace-aware adapters for the four paper metrics. The Hausdorff pair
// return float64 for signature uniformity; the values are exact integers.
var (
	KProfWS RankingDistanceWS = metrics.KProfWS
	FProfWS RankingDistanceWS = metrics.FProfWS
	KHausWS RankingDistanceWS = metrics.KHausWS
	FHausWS RankingDistanceWS = metrics.FHausWS
)

// DistanceMatrix computes the symmetric pairwise distance matrix of an
// ensemble in parallel.
func DistanceMatrix(rankings []*PartialRanking, d RankingDistance) ([][]float64, error) {
	return metrics.DistanceMatrix(rankings, d)
}

// DistanceMatrixWith computes the symmetric pairwise distance matrix of an
// ensemble in parallel with one warm workspace per worker goroutine, so an
// m-ranking ensemble performs O(workers) scratch allocations instead of
// O(m^2). The first error stops the remaining cells from being computed.
func DistanceMatrixWith(rankings []*PartialRanking, d RankingDistanceWS) ([][]float64, error) {
	return metrics.DistanceMatrixWith(rankings, d)
}

// CompareAll computes the full symmetric matrix of AllDistances for an
// ensemble — all four paper metrics for every pair — in one batched
// parallel pass with per-worker workspace reuse. It is the ensemble entry
// point for middleware-scale workloads: m rankings cost one bucket-cell walk
// and one position sweep per pair and O(workers) scratch allocations total.
func CompareAll(rankings []*PartialRanking) ([][]AllDistances, error) {
	return metrics.CompareAll(rankings)
}

// KendallW returns Kendall's coefficient of concordance among the rankings,
// with the standard tie correction: 1 = complete agreement, near 0 = none.
func KendallW(rankings []*PartialRanking) (float64, error) {
	return metrics.KendallW(rankings)
}
