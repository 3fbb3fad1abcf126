package metrics

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/randrank"
	"repro/internal/ranking"
)

// workspacePairCases yields the pair workloads the kernels must agree on:
// Mallows(theta) full-ranking ensembles at several dispersions, random
// bucket orders, heavily-tied orders (buckets up to half the domain),
// degenerate shapes (single bucket, identity, reverse, top-k lists), and the
// shapes the server computes on (10-bucket and 6-value catalog lists, and a
// full ranking against a 10-bucket list), each in both argument orders.
func workspacePairCases(t *testing.T) [][2]*ranking.PartialRanking {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	var cases [][2]*ranking.PartialRanking
	addPairs := func(rs []*ranking.PartialRanking) {
		for i := 0; i+1 < len(rs); i += 2 {
			cases = append(cases, [2]*ranking.PartialRanking{rs[i], rs[i+1]})
		}
	}
	for _, theta := range []float64{0, 0.5, 2} {
		for _, n := range []int{1, 2, 7, 40, 150} {
			in, _ := randrank.MallowsEnsemble(rng, n, 6, theta)
			addPairs(in)
		}
	}
	for _, n := range []int{3, 10, 60, 200} {
		for _, maxBucket := range []int{2, 5, n/2 + 1, n} {
			addPairs([]*ranking.PartialRanking{
				randrank.Partial(rng, n, maxBucket),
				randrank.Partial(rng, n, maxBucket),
			})
		}
		one := ranking.MustFromBuckets(n, [][]int{allOf(n)})
		cases = append(cases,
			[2]*ranking.PartialRanking{one, randrank.Partial(rng, n, 4)},
			[2]*ranking.PartialRanking{one, one},
			[2]*ranking.PartialRanking{randrank.TopK(rng, n, n/3+1), randrank.TopK(rng, n, n/2)},
		)
		id := identityRanking(n)
		cases = append(cases, [2]*ranking.PartialRanking{id, id.Reverse()})
	}
	churn, center := randrank.MallowsPartialEnsemble(rng, 300, 16, 0.1, 10)
	catalog := randrank.CatalogEnsemble(rng, 1000, 16, 6, 1, 0.05).Rankings
	for _, p := range [][2]*ranking.PartialRanking{
		{churn[0], churn[1]}, {churn[2], churn[3]},
		{catalog[0], catalog[1]}, {catalog[2], catalog[3]},
		{center, churn[4]}, {randrank.Full(rng, 300), churn[5]},
	} {
		cases = append(cases, p, [2]*ranking.PartialRanking{p[1], p[0]})
	}
	return cases
}

func allOf(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// TestWorkspaceKernelsMatchAllocatingPaths pins every workspace kernel to
// the retained allocating engines, reusing ONE workspace across all cases —
// including shrinking and growing domain sizes — so stale scratch state
// would be caught.
func TestWorkspaceKernelsMatchAllocatingPaths(t *testing.T) {
	ws := NewWorkspace()
	for ci, c := range workspacePairCases(t) {
		a, b := c[0], c[1]
		name := fmt.Sprintf("case %d (n=%d)", ci, a.N())

		want, err := CountPairsAlloc(a, b)
		if err != nil {
			t.Fatalf("%s: CountPairsAlloc: %v", name, err)
		}
		got, err := ws.CountPairs(a, b)
		if err != nil {
			t.Fatalf("%s: ws.CountPairs: %v", name, err)
		}
		if got != want {
			t.Errorf("%s: ws.CountPairs = %+v, want %+v", name, got, want)
		}
		viaSort, err := countPairsViaSort(a, b)
		if err != nil {
			t.Fatalf("%s: countPairsViaSort: %v", name, err)
		}
		if got != viaSort {
			t.Errorf("%s: ws.CountPairs = %+v, sort engine %+v", name, got, viaSort)
		}

		wantFH, err := FHausViaRefinement(a, b)
		if err != nil {
			t.Fatalf("%s: FHausViaRefinement: %v", name, err)
		}
		gotFH, err := ws.FHaus(a, b)
		if err != nil {
			t.Fatalf("%s: ws.FHaus: %v", name, err)
		}
		if gotFH != wantFH {
			t.Errorf("%s: ws.FHaus = %d, want %d", name, gotFH, wantFH)
		}

		d, err := ws.Distances(a, b)
		if err != nil {
			t.Fatalf("%s: ws.Distances: %v", name, err)
		}
		if d.KProf != KProfFromCounts(want) {
			t.Errorf("%s: Distances.KProf = %v, want %v", name, d.KProf, KProfFromCounts(want))
		}
		if wantF, _ := FProf(a, b); d.FProf != wantF {
			t.Errorf("%s: Distances.FProf = %v, want %v", name, d.FProf, wantF)
		}
		if d.KHaus != KHausFromCounts(want) {
			t.Errorf("%s: Distances.KHaus = %v, want %v", name, d.KHaus, KHausFromCounts(want))
		}
		if d.FHaus != wantFH {
			t.Errorf("%s: Distances.FHaus = %d, want %d", name, d.FHaus, wantFH)
		}

		if a.IsFull() && b.IsFull() {
			wantK, err := KendallViaInversions(a, b)
			if err != nil {
				t.Fatalf("%s: KendallViaInversions: %v", name, err)
			}
			gotK, err := ws.Kendall(a, b)
			if err != nil {
				t.Fatalf("%s: ws.Kendall: %v", name, err)
			}
			if gotK != wantK {
				t.Errorf("%s: ws.Kendall = %d, want %d", name, gotK, wantK)
			}
		}
	}
}

// TestWorkspaceKernelsMatchNaive pins the workspace engine to the O(n^2)
// classifier on every workspacePairCases pair and on small random
// instances, independently of the other fast engines.
func TestWorkspaceKernelsMatchNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	ws := NewWorkspace()
	for ci, c := range workspacePairCases(t) {
		want, err := CountPairsNaive(c[0], c[1])
		if err != nil {
			t.Fatal(err)
		}
		if got, _ := ws.CountPairs(c[0], c[1]); got != want {
			t.Errorf("case %d (n=%d): ws.CountPairs = %+v, naive %+v", ci, c[0].N(), got, want)
		}
	}
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(12)
		a := randrank.Partial(rng, n, 1+rng.Intn(n))
		b := randrank.Partial(rng, n, 1+rng.Intn(n))
		want, err := CountPairsNaive(a, b)
		if err != nil {
			t.Fatal(err)
		}
		got, err := ws.CountPairs(a, b)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("trial %d: ws.CountPairs = %+v, naive %+v\na=%v\nb=%v", trial, got, want, a, b)
		}
	}
}

// TestWorkspaceErrors checks the kernels propagate domain and fullness
// errors like the package-level paths.
func TestWorkspaceErrors(t *testing.T) {
	ws := NewWorkspace()
	a := ranking.MustFromOrder([]int{0, 1, 2})
	b := ranking.MustFromOrder([]int{0, 1})
	if _, err := ws.CountPairs(a, b); err == nil {
		t.Error("domain mismatch accepted by ws.CountPairs")
	}
	if _, err := ws.FHaus(a, b); err == nil {
		t.Error("domain mismatch accepted by ws.FHaus")
	}
	if _, err := ws.Distances(a, b); err == nil {
		t.Error("domain mismatch accepted by ws.Distances")
	}
	tied := ranking.MustFromBuckets(3, [][]int{{0, 1}, {2}})
	if _, err := ws.Kendall(a, tied); err == nil {
		t.Error("tied input accepted by ws.Kendall")
	}
	if _, err := ws.Footrule(a, tied); err == nil {
		t.Error("tied input accepted by ws.Footrule")
	}
	if _, err := ws.KWithPenalty(a, a, 1.5); err == nil {
		t.Error("p=1.5 accepted by ws.KWithPenalty")
	}
}

// TestWorkspaceZeroAllocs is the allocation-regression pin of the PR 1
// acceptance criteria: warm workspace kernels must perform zero heap
// allocations per call. Skipped under the race detector, whose
// instrumentation allocates.
func TestWorkspaceZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is unreliable under -race")
	}
	rng := rand.New(rand.NewSource(3))
	a := randrank.Partial(rng, 1000, 6)
	b := randrank.Partial(rng, 1000, 6)
	full1 := randrank.Full(rng, 1000)
	full2 := randrank.Full(rng, 1000)
	ws := NewWorkspace()
	// Warm-up: size every scratch buffer once.
	if _, err := ws.Distances(a, b); err != nil {
		t.Fatal(err)
	}
	if _, err := ws.Kendall(full1, full2); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		fn   func()
	}{
		{"CountPairs", func() { ws.CountPairs(a, b) }},
		{"KProf", func() { ws.KProf(a, b) }},
		{"FProf", func() { ws.FProf(a, b) }},
		{"KHaus", func() { ws.KHaus(a, b) }},
		{"FHaus", func() { ws.FHaus(a, b) }},
		{"KWithPenalty", func() { ws.KWithPenalty(a, b, 0.25) }},
		{"KAvg", func() { ws.KAvg(a, b) }},
		{"Gamma", func() { ws.Gamma(a, b) }},
		{"Distances", func() { ws.Distances(a, b) }},
		{"Kendall", func() { ws.Kendall(full1, full2) }},
		{"Footrule", func() { ws.Footrule(full1, full2) }},
	} {
		if allocs := testing.AllocsPerRun(100, tc.fn); allocs != 0 {
			t.Errorf("warm ws.%s: %.1f allocs/op, want 0", tc.name, allocs)
		}
	}
}

// TestPooledPathsLowAllocs checks the pooled package-level wrappers stay at
// O(1) allocations (they may pay for the pool bookkeeping but must not
// rebuild scratch state).
func TestPooledPathsLowAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is unreliable under -race")
	}
	rng := rand.New(rand.NewSource(4))
	a := randrank.Partial(rng, 1000, 6)
	b := randrank.Partial(rng, 1000, 6)
	if _, err := CountPairs(a, b); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(100, func() { CountPairs(a, b) }); allocs > 2 {
		t.Errorf("pooled CountPairs: %.1f allocs/op, want <= 2", allocs)
	}
	if allocs := testing.AllocsPerRun(100, func() { FHaus(a, b) }); allocs > 2 {
		t.Errorf("pooled FHaus: %.1f allocs/op, want <= 2", allocs)
	}
}

// TestWorkspaceMallowsEnsembleSweep exercises one shared workspace over a
// whole Mallows ensemble's pairwise sweep and pins every distance to the
// allocating engines — the ensemble shape the batch engines rely on.
func TestWorkspaceMallowsEnsembleSweep(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	in, _ := randrank.MallowsEnsemble(rng, 35, 8, 1.0)
	// Coarsen half the ensemble into heavily-tied bucket orders by score.
	for i := 1; i < len(in); i += 2 {
		scores := make([]float64, in[i].N())
		for e := range scores {
			scores[e] = float64(int(in[i].Pos(e)) / 7)
		}
		in[i] = ranking.FromScores(scores)
	}
	ws := NewWorkspace()
	for i := range in {
		for j := i + 1; j < len(in); j++ {
			want, err := CountPairsAlloc(in[i], in[j])
			if err != nil {
				t.Fatal(err)
			}
			got, err := ws.CountPairs(in[i], in[j])
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("pair (%d,%d): ws %+v, alloc %+v", i, j, got, want)
			}
			wantFH, err := FHausViaRefinement(in[i], in[j])
			if err != nil {
				t.Fatal(err)
			}
			gotFH, err := ws.FHaus(in[i], in[j])
			if err != nil {
				t.Fatal(err)
			}
			if gotFH != wantFH {
				t.Fatalf("pair (%d,%d): ws.FHaus %d, refinement %d", i, j, gotFH, wantFH)
			}
		}
	}
}

// TestCompareAllMatchesPointwise pins the batched ensemble engine to the
// single-pair paths.
func TestCompareAllMatchesPointwise(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	var in []*ranking.PartialRanking
	for i := 0; i < 11; i++ {
		in = append(in, randrank.Partial(rng, 30, 5))
	}
	mat, err := CompareAll(in)
	if err != nil {
		t.Fatal(err)
	}
	for i := range in {
		if mat[i][i] != (AllDistances{}) {
			t.Errorf("diagonal [%d] = %+v, want zero", i, mat[i][i])
		}
		for j := range in {
			want, err := Distances(in[i], in[j])
			if err != nil {
				t.Fatal(err)
			}
			if mat[i][j] != want {
				t.Errorf("[%d][%d] = %+v, want %+v", i, j, mat[i][j], want)
			}
			if mat[i][j] != mat[j][i] {
				t.Errorf("CompareAll not symmetric at %d,%d", i, j)
			}
		}
	}
	if _, err := CompareAll(nil); err != nil {
		t.Errorf("empty ensemble: %v", err)
	}
}
