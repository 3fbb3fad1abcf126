package aggregate

import (
	"fmt"

	"repro/internal/guard"
	"repro/internal/ranking"
	"repro/internal/telemetry"
)

// MedianTopK implements the aggregation of Theorem 9: compute the median
// position vector f, take the k elements with the smallest medians ordered
// by f (ties among the top k broken deterministically by element ID), and
// return the resulting top-k list. For every top-k list tau,
//
//	sum_i L1(result, sigma_i) <= 3 * sum_i L1(tau, sigma_i).
//
// The streaming MEDRANK engine in internal/topk computes the same output
// while reading only a prefix of each input.
func MedianTopK(rankings []*ranking.PartialRanking, k int) (_ *ranking.PartialRanking, err error) {
	defer guard.Capture(&err)
	defer telemetry.StartSpan("aggregate.median_topk").End()
	f, err := MedianScores(rankings, LowerMedian)
	if err != nil {
		return nil, err
	}
	return TopKByScore(f, k)
}

// TopKByScore is the rounding step of Theorem 9: the top-k list of the k
// elements with the smallest scores, ordered by score with ties broken by
// element ID. MedianTopK applies it to the median position vector; a caller
// that already holds that vector applies it directly.
func TopKByScore(f []float64, k int) (*ranking.PartialRanking, error) {
	n := len(f)
	if k < 0 || k > n {
		return nil, fmt.Errorf("aggregate: k=%d out of range [0,%d]", k, n)
	}
	return ranking.TopKList(n, k, sortedByScore(f))
}

// MedianFull implements the aggregation of Theorem 11: return a full
// ranking that refines the bucket order induced by the median position
// vector, breaking ties deterministically by element ID. When the inputs
// are full rankings, for every partial ranking tau,
//
//	sum_i L1(result, sigma_i) <= 2 * sum_i L1(tau, sigma_i).
//
// For general partial-ranking inputs the factor-3 guarantee of Theorem 9
// (with k = n) applies instead.
func MedianFull(rankings []*ranking.PartialRanking) (_ *ranking.PartialRanking, err error) {
	defer guard.Capture(&err)
	defer telemetry.StartSpan("aggregate.median_full").End()
	if err := checkInputs(rankings); err != nil {
		return nil, err
	}
	f, err := MedianScores(rankings, LowerMedian)
	if err != nil {
		return nil, err
	}
	return ranking.MustFromOrder(sortedByScore(f)), nil
}

// MedianPartialOfType implements the generalized Theorem 9 (Corollary 30):
// return a partial ranking of the given type consistent with the median
// position vector. For every partial ranking tau of the same type the
// factor-3 bound holds, and when all inputs share that type the factor
// improves to 2.
func MedianPartialOfType(rankings []*ranking.PartialRanking, alpha []int) (*ranking.PartialRanking, error) {
	if err := checkInputs(rankings); err != nil {
		return nil, err
	}
	f, err := MedianScores(rankings, LowerMedian)
	if err != nil {
		return nil, err
	}
	return ranking.ConsistentOfType(f, alpha)
}

// MedianInduced returns the bucket order f-bar induced by the median
// position vector itself: elements with equal medians are tied. This is the
// partial ranking whose refinements Theorem 11 speaks about.
func MedianInduced(rankings []*ranking.PartialRanking) (*ranking.PartialRanking, error) {
	if err := checkInputs(rankings); err != nil {
		return nil, err
	}
	f, err := MedianScores(rankings, LowerMedian)
	if err != nil {
		return nil, err
	}
	return ranking.FromScores(f), nil
}

// sortedByScore returns element IDs sorted by ascending score, ties broken
// by ascending ID (deterministic "arbitrary" tie-break).
func sortedByScore(f []float64) []int {
	idx := make([]int, len(f))
	for i := range idx {
		idx[i] = i
	}
	// Stable sort on an initially-ascending slice breaks ties by ID.
	stableSortByScore(idx, f)
	return idx
}
