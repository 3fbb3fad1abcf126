package aggregate

import (
	"math"

	"repro/internal/metrics"
	"repro/internal/permutation"
	"repro/internal/ranking"
)

// LocalKemenize applies the local Kemenization of Dwork et al. to a full
// ranking: repeatedly swap adjacent elements when the voters expressing a
// preference favor the swapped order by strict majority (ties abstain),
// until no adjacent swap helps. Every swap strictly reduces the summed
// Kprof objective — the pair's cost is (#against) + (#tied)/2 whichever way
// it is ordered — so the procedure terminates at a locally Kemeny-optimal
// ranking, which in particular satisfies the extended Condorcet criterion
// on adjacent pairs.
//
// Margins are computed only for the pairs the passes query, and a pass
// skips every adjacent pair it already kept whose elements have not moved
// since: that query would return false again, so the passes make exactly
// the swaps of the plain loop, in the same order. Memory is O(nm + n).
func LocalKemenize(candidate *ranking.PartialRanking, rankings []*ranking.PartialRanking) (*ranking.PartialRanking, error) {
	if err := checkInputs(rankings); err != nil {
		return nil, err
	}
	if err := ranking.CheckSameDomain(candidate, rankings[0]); err != nil {
		return nil, err
	}
	if !candidate.IsFull() {
		// Refine ties by element ID first.
		candidate = candidate.RefineBy(identityFull(candidate.N()))
	}
	order := candidate.Order()
	n, m := len(order), len(rankings)
	// rows[e*m+i] is e's bucket in input i, so a margin reads two
	// contiguous rows of m.
	rows := make([]int32, n*m)
	for i, r := range rankings {
		for e, b := range r.BucketIndices() {
			rows[e*m+i] = int32(b)
		}
	}
	// checked[i]: order[i] and order[i+1] were compared and kept (or just
	// swapped), and neither has moved since. The margin is antisymmetric,
	// so a swapped pair never swaps back. checked[n-1] is never read; it
	// lets a swap at the last pair clear its right neighbour unguarded.
	checked := make([]bool, n)
	for changed := true; changed; {
		changed = false
		for i := 0; i+1 < n; i++ {
			if checked[i] {
				continue
			}
			checked[i] = true
			if majorityPrefers(rows, m, order[i+1], order[i]) {
				order[i], order[i+1] = order[i+1], order[i]
				changed = true
				if i > 0 {
					checked[i-1] = false
				}
				checked[i+1] = false
			}
		}
	}
	return ranking.FromOrder(order)
}

// majorityPrefers reports whether strictly more inputs rank a ahead of b
// than b ahead of a, over LocalKemenize's element-major bucket rows. Keep the
// two separate tests rather than a switch: they compile to conditional moves
// on amd64, and the passes ran 2–4x faster than with the switch on
// BenchmarkLocalKemenize's shapes.
func majorityPrefers(rows []int32, m, a, b int) bool {
	ra, rb := rows[a*m:a*m+m], rows[b*m:b*m+m]
	rb = rb[:len(ra)] // lets the compiler drop the bounds check in the loop
	margin := 0
	for i, x := range ra {
		y := rb[i]
		if x < y {
			margin++
		}
		if x > y {
			margin--
		}
	}
	return margin > 0
}

// KemenyOptimalBrute returns a full ranking minimizing the summed Kprof
// distance to the inputs (the Kemeny optimum generalized to partial-ranking
// inputs), by enumerating all n! candidates. Exponential; reference for the
// approximation experiments.
func KemenyOptimalBrute(rankings []*ranking.PartialRanking) (*ranking.PartialRanking, float64, error) {
	// One workspace serves the entire n! * m objective sweep.
	ws := metrics.GetWorkspace()
	defer metrics.PutWorkspace(ws)
	return bruteOverFull(rankings, func(cand *ranking.PartialRanking) (float64, error) {
		return SumDistanceWith(ws, cand, rankings, metrics.KProfWS)
	})
}

// FootruleOptimalFullBrute returns a full ranking minimizing the summed
// Fprof distance by enumeration; it validates FootruleOptimalFull.
func FootruleOptimalFullBrute(rankings []*ranking.PartialRanking) (*ranking.PartialRanking, float64, error) {
	return bruteOverFull(rankings, func(cand *ranking.PartialRanking) (float64, error) {
		return SumL1Ranking(cand, rankings)
	})
}

// OptimalTopKBrute returns a top-k list minimizing sum_i L1(tau, sigma_i)
// over all top-k lists, by enumerating every ordered selection of k winners.
// Exponential; reference for the Theorem 9 factor-3 experiment.
func OptimalTopKBrute(rankings []*ranking.PartialRanking, k int) (*ranking.PartialRanking, float64, error) {
	if err := checkInputs(rankings); err != nil {
		return nil, 0, err
	}
	n := rankings[0].N()
	bestObj := math.Inf(1)
	var best *ranking.PartialRanking
	sel := make([]int, 0, k)
	used := make([]bool, n)
	var rec func() error
	rec = func() error {
		if len(sel) == k {
			cand, err := ranking.TopKList(n, k, sel)
			if err != nil {
				return err
			}
			obj, err := SumL1Ranking(cand, rankings)
			if err != nil {
				return err
			}
			if obj < bestObj {
				bestObj = obj
				best = cand
			}
			return nil
		}
		for e := 0; e < n; e++ {
			if used[e] {
				continue
			}
			used[e] = true
			sel = append(sel, e)
			if err := rec(); err != nil {
				return err
			}
			sel = sel[:len(sel)-1]
			used[e] = false
		}
		return nil
	}
	if err := rec(); err != nil {
		return nil, 0, err
	}
	return best, bestObj, nil
}

// OptimalPartialRankingBrute returns a partial ranking minimizing
// sum_i L1(tau, sigma_i) over ALL bucket orders of the domain, by
// enumerating the Fubini(n) candidates. Exponential; reference for the
// Theorem 10 factor-2 experiment.
func OptimalPartialRankingBrute(rankings []*ranking.PartialRanking) (*ranking.PartialRanking, float64, error) {
	if err := checkInputs(rankings); err != nil {
		return nil, 0, err
	}
	n := rankings[0].N()
	bestObj := math.Inf(1)
	var best *ranking.PartialRanking
	ranking.ForEachPartialRanking(n, func(cand *ranking.PartialRanking) bool {
		obj := SumL1(cand.Positions(), rankings)
		if obj < bestObj {
			bestObj = obj
			best = cand
		}
		return true
	})
	return best, bestObj, nil
}

// bruteOverFull minimizes an objective over all full rankings of the domain.
func bruteOverFull(rankings []*ranking.PartialRanking, objective func(*ranking.PartialRanking) (float64, error)) (*ranking.PartialRanking, float64, error) {
	if err := checkInputs(rankings); err != nil {
		return nil, 0, err
	}
	n := rankings[0].N()
	bestObj := math.Inf(1)
	var best *ranking.PartialRanking
	var oerr error
	permutation.ForEach(n, func(p []int) bool {
		cand := ranking.MustFromOrder(p)
		obj, err := objective(cand)
		if err != nil {
			oerr = err
			return false
		}
		if obj < bestObj {
			bestObj = obj
			best = cand
		}
		return true
	})
	if oerr != nil {
		return nil, 0, oerr
	}
	return best, bestObj, nil
}

// identityFull returns the full ranking 0 < 1 < ... < n-1.
func identityFull(n int) *ranking.PartialRanking {
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	return ranking.MustFromOrder(order)
}
