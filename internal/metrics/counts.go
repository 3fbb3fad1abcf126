// Package metrics implements the distance measures of Fagin, Kumar, Mahdian,
// Sivakumar, and Vee, "Comparing and Aggregating Rankings with Ties"
// (PODS 2004): the classical Kendall tau and Spearman footrule on full
// rankings (Section 2.2), the penalty-parameter family K^(p) and the profile
// metrics Kprof = K^(1/2) and Fprof (Section 3.1), the Hausdorff metrics
// KHaus and FHaus via both the Theorem 5 refinement characterization and the
// Proposition 6 counting formula, the top-k comparison measures Kavg and
// F^(l) of Appendix A.3, Goodman-Kruskal gamma (Related work), and
// brute-force reference implementations that enumerate full refinements.
//
// The pair kernels walk the non-empty cells of the two rankings' bucket
// table, O(n + C log t) for C ≤ min(n, ta·tb) cells: O(n log n) on full
// rankings, near-linear on few-valued ones. Every fast path is pinned to an
// O(n^2) or exhaustive reference by the package tests.
package metrics

import (
	"fmt"
	"sort"

	"repro/internal/permutation"
	"repro/internal/ranking"
)

// PairCounts classifies all unordered pairs {i, j} of distinct domain
// elements with respect to two partial rankings, following the case analysis
// of Section 3.1 and Proposition 6 of the paper.
type PairCounts struct {
	// Concordant counts pairs in different buckets of both rankings, in the
	// same order (Case 1, no penalty).
	Concordant int64
	// Discordant counts pairs in different buckets of both rankings, in
	// opposite orders (Case 1, penalty 1). This is the set U of Prop. 6.
	Discordant int64
	// TiedOnlyInA counts pairs tied in the first ranking but not the second
	// (the set S of Prop. 6 with sigma = first argument).
	TiedOnlyInA int64
	// TiedOnlyInB counts pairs tied in the second ranking but not the first
	// (the set T of Prop. 6).
	TiedOnlyInB int64
	// TiedInBoth counts pairs tied in both rankings (Case 2, no penalty).
	TiedInBoth int64
}

// Total returns the number of classified pairs, n(n-1)/2.
func (pc PairCounts) Total() int64 {
	return pc.Concordant + pc.Discordant + pc.TiedOnlyInA + pc.TiedOnlyInB + pc.TiedInBoth
}

// CountPairs classifies all pairs of distinct elements. It is the single
// counting engine behind K^(p), Kprof, KHaus (Prop. 6), Kavg, and
// Goodman-Kruskal gamma. It borrows a pooled Workspace, so repeated calls
// reuse scratch state instead of rebuilding it; batch engines that hold
// their own Workspace should call (*Workspace).CountPairs directly.
func CountPairs(a, b *ranking.PartialRanking) (PairCounts, error) {
	ws := GetWorkspace()
	pc, err := ws.CountPairs(a, b)
	PutWorkspace(ws)
	return pc, err
}

// CountPairsAlloc is the pre-workspace engine, retained verbatim as an
// independent reference: it walks a's buckets in order, counts discordances
// with a freshly allocated Fenwick tree indexed by b's bucket indices, and
// counts pairs tied in both rankings with a hash map keyed by (a-bucket,
// b-bucket). The property tests pin the workspace kernel to it exactly, and
// the benchmark harness uses it as the before-side of the allocation
// regression numbers.
func CountPairsAlloc(a, b *ranking.PartialRanking) (PairCounts, error) {
	if err := ranking.CheckSameDomain(a, b); err != nil {
		return PairCounts{}, err
	}
	n := a.N()
	var pc PairCounts

	// Pairs tied in a and tied in b, via bucket sizes.
	tiedA := tiedPairs(a)
	tiedB := tiedPairs(b)

	// Pairs tied in both: group elements by (bucket in a, bucket in b).
	joint := make(map[uint64]int64, n)
	for e := 0; e < n; e++ {
		key := uint64(a.BucketOf(e))<<32 | uint64(uint32(b.BucketOf(e)))
		joint[key]++
	}
	for _, c := range joint {
		pc.TiedInBoth += c * (c - 1) / 2
	}
	pc.TiedOnlyInA = tiedA - pc.TiedInBoth
	pc.TiedOnlyInB = tiedB - pc.TiedInBoth

	// Discordant pairs among those untied in both: walk a's buckets from
	// best to worst; an earlier element e and a later element f are
	// discordant exactly when b ranks f strictly ahead of e. Summing, for
	// each new element, the count of already-seen elements in strictly
	// later b-buckets gives |U|. Elements of one a-bucket are inserted only
	// after the whole bucket is counted, so a-tied pairs contribute
	// nothing; b-tied pairs are excluded by the strict range.
	ft := permutation.NewFenwick(b.NumBuckets())
	var seen int64
	for ai := 0; ai < a.NumBuckets(); ai++ {
		bucket := a.Bucket(ai)
		for _, e := range bucket {
			bi := b.BucketOf(e)
			// Already-seen elements with b-bucket > bi.
			pc.Discordant += seen - ft.PrefixSum(bi)
		}
		for _, e := range bucket {
			ft.Add(b.BucketOf(e), 1)
		}
		seen += int64(len(bucket))
	}

	total := int64(n) * int64(n-1) / 2
	pc.Concordant = total - tiedA - tiedB + pc.TiedInBoth - pc.Discordant
	return pc, nil
}

// countPairsViaSort is the previous engine — sort by (a-position,
// b-position), then count strict inversions of the b sequence — retained as
// an independent implementation for cross-checks and the ablation
// benchmark.
func countPairsViaSort(a, b *ranking.PartialRanking) (PairCounts, error) {
	if err := ranking.CheckSameDomain(a, b); err != nil {
		return PairCounts{}, err
	}
	n := a.N()
	var pc PairCounts
	tiedA := tiedPairs(a)
	tiedB := tiedPairs(b)
	joint := make(map[uint64]int64, n)
	for e := 0; e < n; e++ {
		key := uint64(a.BucketOf(e))<<32 | uint64(uint32(b.BucketOf(e)))
		joint[key]++
	}
	for _, c := range joint {
		pc.TiedInBoth += c * (c - 1) / 2
	}
	pc.TiedOnlyInA = tiedA - pc.TiedInBoth
	pc.TiedOnlyInB = tiedB - pc.TiedInBoth
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(x, y int) bool {
		ax, ay := a.Pos2(idx[x]), a.Pos2(idx[y])
		if ax != ay {
			return ax < ay
		}
		return b.Pos2(idx[x]) < b.Pos2(idx[y])
	})
	seq := make([]int64, n)
	for i, e := range idx {
		seq[i] = b.Pos2(e)
	}
	pc.Discordant = permutation.CountInversions(seq)
	total := int64(n) * int64(n-1) / 2
	pc.Concordant = total - tiedA - tiedB + pc.TiedInBoth - pc.Discordant
	return pc, nil
}

// CountPairsNaive is the O(n^2) reference classifier.
func CountPairsNaive(a, b *ranking.PartialRanking) (PairCounts, error) {
	if err := ranking.CheckSameDomain(a, b); err != nil {
		return PairCounts{}, err
	}
	var pc PairCounts
	n := a.N()
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			ta, tb := a.Tied(i, j), b.Tied(i, j)
			switch {
			case ta && tb:
				pc.TiedInBoth++
			case ta:
				pc.TiedOnlyInA++
			case tb:
				pc.TiedOnlyInB++
			case a.Ahead(i, j) == b.Ahead(i, j):
				pc.Concordant++
			default:
				pc.Discordant++
			}
		}
	}
	return pc, nil
}

// tiedPairs returns the number of pairs sharing a bucket.
func tiedPairs(pr *ranking.PartialRanking) int64 {
	var t int64
	for i := 0; i < pr.NumBuckets(); i++ {
		s := int64(pr.BucketSize(i))
		t += s * (s - 1) / 2
	}
	return t
}

// errNotFull is returned by the full-ranking metrics when an input has ties.
func errNotFull(name string) error {
	return fmt.Errorf("metrics: %s requires full rankings (no ties)", name)
}

// errPenaltyRange is returned by the K^(p) family for p outside [0, 1].
func errPenaltyRange(p float64) error {
	return fmt.Errorf("metrics: penalty parameter p=%v out of [0,1]", p)
}
