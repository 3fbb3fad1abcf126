package aggregate

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/cache"
	"repro/internal/metrics"
	"repro/internal/randrank"
	"repro/internal/ranking"
)

// dupEnsemble draws `distinct` random partial rankings and inflates them to m
// voters by cloning, so cached runs see heavy fingerprint-level duplication.
func dupEnsemble(rng *rand.Rand, n, distinct, m int) []*ranking.PartialRanking {
	base := make([]*ranking.PartialRanking, distinct)
	for i := range base {
		base[i] = randrank.Partial(rng, n, 3)
	}
	out := make([]*ranking.PartialRanking, m)
	for i := range out {
		out[i] = base[rng.Intn(distinct)].Clone()
	}
	return out
}

// SumDistanceParallel must be bit-for-bit identical to SumDistanceWith for
// every paper metric, with and without the memoization layer.
func TestSumDistanceParallelMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	in := dupEnsemble(rng, 15, 5, 40)
	cand := randrank.Partial(rng, 15, 3)
	ws := metrics.GetWorkspace()
	defer metrics.PutWorkspace(ws)
	dists := []struct {
		name string
		d    metrics.DistanceWS
	}{
		{"kprof", metrics.KProfWS},
		{"fprof", metrics.FProfWS},
		{"khaus", metrics.KHausWS},
		{"fhaus", metrics.FHausWS},
		{"kprof_cached", metrics.CachedKProf(cache.New(1024))},
		{"fhaus_cached", metrics.CachedFHaus(cache.New(1024))},
	}
	for _, tc := range dists {
		want, err := SumDistanceWith(ws, cand, in, tc.d)
		if err != nil {
			t.Fatalf("%s serial: %v", tc.name, err)
		}
		got, err := SumDistanceParallel(cand, in, tc.d)
		if err != nil {
			t.Fatalf("%s parallel: %v", tc.name, err)
		}
		if got != want {
			t.Errorf("%s: parallel %v != serial %v", tc.name, got, want)
		}
	}
}

// BestOfInputsParallel must return the same winner index, struct, and
// objective as the serial sweep — including the first-minimum tie-break,
// which duplicate-heavy ensembles exercise hard (clones tie exactly).
func TestBestOfInputsParallelMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	ws := metrics.GetWorkspace()
	defer metrics.PutWorkspace(ws)
	for trial := 0; trial < 10; trial++ {
		in := dupEnsemble(rng, 12, 4, 24)
		for _, d := range []metrics.DistanceWS{metrics.KProfWS, metrics.CachedKProf(cache.New(1024))} {
			wantIdx, wantR, wantObj, err := BestOfInputsWith(ws, in, d)
			if err != nil {
				t.Fatal(err)
			}
			gotIdx, gotR, gotObj, err := BestOfInputsParallel(in, d)
			if err != nil {
				t.Fatal(err)
			}
			if gotIdx != wantIdx || gotR != wantR || gotObj != wantObj {
				t.Fatalf("trial %d: parallel (%d, %p, %v) != serial (%d, %p, %v)",
					trial, gotIdx, gotR, gotObj, wantIdx, wantR, wantObj)
			}
		}
	}
	// Degenerate inputs behave like the serial path.
	if _, _, _, err := BestOfInputsParallel(nil, metrics.KProfWS); !errors.Is(err, ErrNoInput) {
		t.Errorf("empty ensemble err = %v, want ErrNoInput", err)
	}
}

// Errors inside a parallel objective term short-circuit and surface.
func TestSumDistanceParallelPropagatesErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	in := dupEnsemble(rng, 10, 3, 16)
	boom := errors.New("boom")
	_, err := SumDistanceParallel(in[0], in, func(_ *metrics.Workspace, a, b *ranking.PartialRanking) (float64, error) {
		return 0, boom
	})
	if !errors.Is(err, boom) {
		t.Errorf("err = %v, want boom", err)
	}
}

// MedianScores2's chunked parallel sweep must produce exactly the integers
// the serial fill does, for every tie policy, above and below the fan-out
// threshold.
func TestMedianScores2ParallelMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(54))
	// n=600 > chunk size 256 and n*m = 60000 >= 1<<15: the parallel path runs.
	const n, m = 600, 100
	var in []*ranking.PartialRanking
	for i := 0; i < m; i++ {
		in = append(in, randrank.Partial(rng, n, 8))
	}
	for _, choice := range []MedianChoice{LowerMedian, UpperMedian, MeanMedian} {
		got, err := MedianScores2(in, choice)
		if err != nil {
			t.Fatal(err)
		}
		want := make([]int64, n)
		if err := medianFill2(in, choice, want, 0, n); err != nil {
			t.Fatal(err)
		}
		for e := range want {
			if got[e] != want[e] {
				t.Fatalf("choice %d: coordinate %d = %d, want %d", choice, e, got[e], want[e])
			}
		}
	}
}

// refKemenize is a direct serial transcription of the local Kemenization
// swap loop: every pass queries every adjacent pair, with on-the-fly
// majority scans. LocalKemenize must match it swap for swap.
func refKemenize(t *testing.T, candidate *ranking.PartialRanking, rankings []*ranking.PartialRanking) *ranking.PartialRanking {
	t.Helper()
	if !candidate.IsFull() {
		candidate = candidate.RefineBy(identityFull(candidate.N()))
	}
	order := candidate.Order()
	n := len(order)
	prefers := func(a, b int) bool {
		margin := 0
		for _, r := range rankings {
			switch {
			case r.Ahead(a, b):
				margin++
			case r.Ahead(b, a):
				margin--
			}
		}
		return margin > 0
	}
	for changed := true; changed; {
		changed = false
		for i := 0; i+1 < n; i++ {
			if prefers(order[i+1], order[i]) {
				order[i], order[i+1] = order[i+1], order[i]
				changed = true
			}
		}
	}
	return ranking.MustFromOrder(order)
}

// reversedOrder returns the full ranking that lists pr's order back to front.
func reversedOrder(pr *ranking.PartialRanking) *ranking.PartialRanking {
	order := pr.Order()
	slices.Reverse(order)
	return ranking.MustFromOrder(order)
}

// LocalKemenize reads margins from its bucket rows and skips the adjacent
// pairs it already kept; it must still land on exactly the reference's
// ranking from random, reversed, Borda and partial candidates, on inputs
// that are all one bucket, and on the agg-cached workload's catalog shape
// (n=300, m=24, 10 buckets) from the median start and its reversal.
func TestLocalKemenizeMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	check := func(name string, cand *ranking.PartialRanking, in []*ranking.PartialRanking) {
		t.Helper()
		got, err := LocalKemenize(cand, in)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if want := refKemenize(t, cand, in); !got.Equal(want) {
			t.Fatalf("%s: LocalKemenize %v != reference %v", name, got, want)
		}
	}
	for trial := 0; trial < 20; trial++ {
		n := 5 + rng.Intn(30)
		m := 3 + rng.Intn(8)
		var in []*ranking.PartialRanking
		for i := 0; i < m; i++ {
			in = append(in, randrank.Partial(rng, n, 4))
		}
		name := fmt.Sprintf("trial %d (n=%d, m=%d)", trial, n, m)
		check(name+", random", randrank.Full(rng, n), in)
		median, err := MedianFull(in)
		if err != nil {
			t.Fatal(err)
		}
		check(name+", reversed median", reversedOrder(median), in)
		borda, err := Borda(in)
		if err != nil {
			t.Fatal(err)
		}
		check(name+", Borda", borda, in)
		partial := randrank.Partial(rng, n, 4)
		check(name+", partial", partial, in)
		flat := make([]*ranking.PartialRanking, m)
		for i := range flat {
			flat[i] = ranking.MustFromBuckets(n, [][]int{identityFull(n).Order()})
		}
		check(name+", one-bucket inputs", partial, flat)
	}
	in, _ := randrank.MallowsPartialEnsemble(rng, 300, 24, 0.1, 10)
	start, err := MedianTopK(in, 300)
	if err != nil {
		t.Fatal(err)
	}
	check("n=300, m=24, median start", start, in)
	check("n=300, m=24, reversed median start", reversedOrder(start), in)
}
