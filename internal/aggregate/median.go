// Package aggregate implements the rank-aggregation algorithms of Section 6
// of Fagin, Kumar, Mahdian, Sivakumar, and Vee, "Comparing and Aggregating
// Rankings with Ties" (PODS 2004), together with the baselines they are
// measured against.
//
// The centerpiece is median rank aggregation: the coordinate-wise median of
// the input position vectors minimizes the summed L1 distance (Lemma 8), and
// rounding it into a top-k list, full ranking, or optimal partial ranking
// yields the paper's approximation guarantees:
//
//   - Theorem 9: a top-k list read off the median is a 3-approximation to
//     the best top-k list under sum-of-Fprof.
//   - Theorem 10: the L1-closest partial ranking to the median (computed by
//     the Figure 1 dynamic program in O(n^2)) is a 2-approximation over all
//     partial rankings when the inputs are partial rankings, and a
//     3-approximation in general.
//   - Theorem 11: with full-ranking inputs, any refinement of the median's
//     induced bucket order is a 2-approximation over all partial rankings —
//     answering the open question of Dwork et al. and Fagin et al.
//
// Baselines: the footrule-optimal full aggregation via minimum-cost perfect
// matching (Hungarian algorithm), Borda / average rank, best-of-inputs, the
// Markov-chain heuristics MC1-MC4 of Dwork et al., local Kemenization, and
// exhaustive optima for small domains.
package aggregate

import (
	"errors"
	"slices"
	"sort"

	"repro/internal/metrics"
	"repro/internal/ranking"
)

// The parallel candidate-evaluation paths in this package (MedianScores2,
// FootruleOptimalFull's cost fill, BestOfInputsParallel,
// SumDistanceParallel) all ride metrics.ParallelEach and share its
// determinism contract: parallel fill of disjoint slots, serial reduce in
// index order.

// ErrNoInput is returned by aggregators called with no rankings.
var ErrNoInput = errors.New("aggregate: no input rankings")

// checkInputs validates a non-empty same-domain ensemble.
func checkInputs(rankings []*ranking.PartialRanking) error {
	if len(rankings) == 0 {
		return ErrNoInput
	}
	return ranking.CheckSameDomain(rankings...)
}

// MedianSet returns the paper's median(a_1, ..., a_m) set boundaries for a
// non-empty list: for odd m the single middle value is returned as lo = hi;
// for even m, lo and hi are the two central order statistics (the set also
// contains their mean). The input is not modified.
func MedianSet(values []float64) (lo, hi float64) {
	if len(values) == 0 {
		panic("aggregate: MedianSet of empty list")
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	m := len(s)
	if m%2 == 1 {
		return s[m/2], s[m/2]
	}
	return s[m/2-1], s[m/2]
}

// MedianChoice selects which member of the median set MedianScores uses at
// every coordinate when m is even.
type MedianChoice int

const (
	// LowerMedian takes the lower central order statistic a_{m/2}. It keeps
	// doubled positions integral, which the linear-space Figure 1 DP relies
	// on, and is the choice the paper suggests ("a_{floor((m+1)/2)}").
	LowerMedian MedianChoice = iota
	// UpperMedian takes a_{m/2+1}.
	UpperMedian
	// MeanMedian takes (a_{m/2} + a_{m/2+1})/2.
	MeanMedian
)

// MedianScores returns the coordinate-wise median position vector
// f(d) = median(sigma_1(d), ..., sigma_m(d)) of the input rankings, with the
// given even-m tie policy. By Lemma 8 every such f minimizes
// sum_i L1(f, sigma_i) over all functions g: D -> R.
func MedianScores(rankings []*ranking.PartialRanking, choice MedianChoice) ([]float64, error) {
	f2, err := MedianScores2(rankings, choice)
	if err != nil {
		return nil, err
	}
	out := make([]float64, len(f2))
	for i, v := range f2 {
		out[i] = float64(v) / 4
	}
	return out, nil
}

// MedianScores2 returns the median position vector scaled by 4 as exact
// integers (positions are half-integral, and MeanMedian can halve once
// more). LowerMedian and UpperMedian outputs are always multiples of 2.
//
// Coordinates are independent, so sweeps big enough to matter (n*m position
// reads above medianParallelCells) are chunked across the parallel
// evaluation pool; every coordinate's value is the same exact integer either
// way, so the parallel fill is indistinguishable from the serial one.
func MedianScores2(rankings []*ranking.PartialRanking, choice MedianChoice) ([]int64, error) {
	if err := checkInputs(rankings); err != nil {
		return nil, err
	}
	n := rankings[0].N()
	m := len(rankings)
	out := make([]int64, n)
	const chunk = 256
	if n*m >= medianParallelCells && n > chunk {
		chunks := (n + chunk - 1) / chunk
		if err := metrics.ParallelEach(chunks, "median_scores", func(_ *metrics.Workspace, c int) error {
			lo, hi := c*chunk, (c+1)*chunk
			if hi > n {
				hi = n
			}
			return medianFill2(rankings, choice, out, lo, hi)
		}); err != nil {
			return nil, err
		}
		return out, nil
	}
	if err := medianFill2(rankings, choice, out, 0, n); err != nil {
		return nil, err
	}
	return out, nil
}

// medianParallelCells is the n*m size past which MedianScores2 fans its
// coordinate sweep out across the worker pool.
const medianParallelCells = 1 << 15

// medianFill2 fills out[lo:hi] with quadrupled coordinate-wise medians; each
// call owns its sort buffer, so chunks run concurrently.
func medianFill2(rankings []*ranking.PartialRanking, choice MedianChoice, out []int64, lo, hi int) error {
	m := len(rankings)
	buf := make([]int64, m)
	for e := lo; e < hi; e++ {
		for i, r := range rankings {
			buf[i] = r.Pos2(e)
		}
		slices.Sort(buf)
		// buf holds doubled positions; out holds quadrupled medians.
		if m%2 == 1 {
			out[e] = 2 * buf[m/2]
		} else {
			switch choice {
			case LowerMedian:
				out[e] = 2 * buf[m/2-1]
			case UpperMedian:
				out[e] = 2 * buf[m/2]
			case MeanMedian:
				out[e] = buf[m/2-1] + buf[m/2]
			default:
				panic("aggregate: unknown MedianChoice")
			}
		}
	}
	return nil
}

// InMedianSet reports whether g(d) lies in median(sigma_1(d), ..., sigma_m(d))
// for every d, i.e. whether g is a valid median function in the paper's
// set-valued sense.
func InMedianSet(rankings []*ranking.PartialRanking, g []float64) (bool, error) {
	if err := checkInputs(rankings); err != nil {
		return false, err
	}
	n := rankings[0].N()
	if len(g) != n {
		return false, errors.New("aggregate: score vector length mismatch")
	}
	m := len(rankings)
	buf := make([]float64, m)
	for e := 0; e < n; e++ {
		for i, r := range rankings {
			buf[i] = r.Pos(e)
		}
		lo, hi := MedianSet(buf)
		v := g[e]
		if m%2 == 1 {
			if v != lo {
				return false, nil
			}
			continue
		}
		if v != lo && v != hi && v != (lo+hi)/2 {
			return false, nil
		}
	}
	return true, nil
}

// SumL1 returns sum_i L1(g, sigma_i), the objective of Lemma 8 and of all
// the approximation theorems, for a candidate score vector g.
func SumL1(g []float64, rankings []*ranking.PartialRanking) float64 {
	var sum float64
	for _, r := range rankings {
		for e := 0; e < r.N(); e++ {
			d := g[e] - r.Pos(e)
			if d < 0 {
				d = -d
			}
			sum += d
		}
	}
	return sum
}

// SumL1Ranking returns sum_i L1(candidate, sigma_i) for a candidate partial
// ranking, i.e. the summed Fprof objective. The position sweep reads the
// candidate through its copy-free accessors, so no position vector is
// materialized.
func SumL1Ranking(candidate *ranking.PartialRanking, rankings []*ranking.PartialRanking) (float64, error) {
	var sum2 int64
	for _, r := range rankings {
		d2, err := metrics.FProf2(candidate, r)
		if err != nil {
			return 0, err
		}
		sum2 += d2
	}
	return float64(sum2) / 2, nil
}
