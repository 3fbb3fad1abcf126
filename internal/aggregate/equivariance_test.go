package aggregate

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"repro/internal/metrics"
	"repro/internal/randrank"
	"repro/internal/ranking"
	"repro/internal/topk"
)

// Metamorphic properties: relabeling the domain consistently must relabel
// the outputs; duplicating every voter must not change them; and metrics
// must be invariant. These hold for every algorithm in the library and
// catch symmetry-breaking bugs (e.g. an accidental dependence on element
// IDs beyond the documented deterministic tie-breaks).

// relabelAll applies one permutation to a whole ensemble.
func relabelAll(t *testing.T, in []*ranking.PartialRanking, perm []int) []*ranking.PartialRanking {
	t.Helper()
	out := make([]*ranking.PartialRanking, len(in))
	for i, r := range in {
		rl, err := r.Relabel(perm)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = rl
	}
	return out
}

func TestMetricsRelabelInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 80; trial++ {
		n := 1 + rng.Intn(12)
		a := randrank.Partial(rng, n, 4)
		b := randrank.Partial(rng, n, 4)
		perm := rng.Perm(n)
		ar, err := a.Relabel(perm)
		if err != nil {
			t.Fatal(err)
		}
		br, err := b.Relabel(perm)
		if err != nil {
			t.Fatal(err)
		}
		kp, _ := metrics.KProf(a, b)
		kpr, _ := metrics.KProf(ar, br)
		fp, _ := metrics.FProf(a, b)
		fpr, _ := metrics.FProf(ar, br)
		kh, _ := metrics.KHaus(a, b)
		khr, _ := metrics.KHaus(ar, br)
		fh, _ := metrics.FHaus(a, b)
		fhr, _ := metrics.FHaus(ar, br)
		if kp != kpr || fp != fpr || kh != khr || fh != fhr {
			t.Fatalf("metric not relabel-invariant:\na=%v b=%v perm=%v\nK %v/%v F %v/%v KH %d/%d FH %d/%d",
				a, b, perm, kp, kpr, fp, fpr, kh, khr, fh, fhr)
		}
	}
}

// Exact optimizers must be relabel-equivariant in achieved objective: the
// relabeled output of the original instance scores exactly like the output
// on the relabeled instance. (Tie-broken heuristics like MedianFull are
// equivariant only up to the element-ID tie-break — different labelings can
// legitimately pick different refinements of the median bucket order, all
// within Theorem 11's bound — so they are checked separately below.)
func TestAggregationRelabelEquivariantObjective(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	exact := map[string]func([]*ranking.PartialRanking) (*ranking.PartialRanking, error){
		"dp": OptimalPartialAggregate,
		"hungarian": func(in []*ranking.PartialRanking) (*ranking.PartialRanking, error) {
			pr, _, err := FootruleOptimalFull(in)
			return pr, err
		},
	}
	for trial := 0; trial < 25; trial++ {
		n := 2 + rng.Intn(8)
		m := 1 + rng.Intn(5)
		var in []*ranking.PartialRanking
		for i := 0; i < m; i++ {
			in = append(in, randrank.Partial(rng, n, 3))
		}
		perm := rng.Perm(n)
		inR := relabelAll(t, in, perm)
		for name, run := range exact {
			orig, err := run(in)
			if err != nil {
				t.Fatal(err)
			}
			rel, err := run(inR)
			if err != nil {
				t.Fatal(err)
			}
			origMapped, err := orig.Relabel(perm)
			if err != nil {
				t.Fatal(err)
			}
			objA, err := SumL1Ranking(origMapped, inR)
			if err != nil {
				t.Fatal(err)
			}
			objB, err := SumL1Ranking(rel, inR)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(objA-objB) > 1e-9 {
				t.Fatalf("%s not equivariant: relabeled-original obj %v, relabeled-instance obj %v\nperm=%v inputs=%v",
					name, objA, objB, perm, in)
			}
		}
	}
}

// Tie-broken methods are fully equivariant whenever their score vector has
// no ties (the ID tie-break never fires); with ties, both labelings must
// still satisfy their theorem bounds.
func TestTieBrokenMethodsRelabel(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	exactChecks, boundChecks := 0, 0
	for trial := 0; trial < 80; trial++ {
		n := 2 + rng.Intn(6)
		m := 1 + rng.Intn(5)
		var in []*ranking.PartialRanking
		for i := 0; i < m; i++ {
			in = append(in, randrank.Partial(rng, n, 3))
		}
		perm := rng.Perm(n)
		inR := relabelAll(t, in, perm)

		f, err := MedianScores(in, LowerMedian)
		if err != nil {
			t.Fatal(err)
		}
		distinct := true
		seen := map[float64]bool{}
		for _, v := range f {
			if seen[v] {
				distinct = false
				break
			}
			seen[v] = true
		}
		orig, err := MedianFull(in)
		if err != nil {
			t.Fatal(err)
		}
		rel, err := MedianFull(inR)
		if err != nil {
			t.Fatal(err)
		}
		if distinct {
			exactChecks++
			origMapped, err := orig.Relabel(perm)
			if err != nil {
				t.Fatal(err)
			}
			if !origMapped.Equal(rel) {
				t.Fatalf("MedianFull with distinct medians not equivariant:\nperm=%v in=%v\nmapped=%v rel=%v",
					perm, in, origMapped, rel)
			}
		} else {
			boundChecks++
			// Both labelings must obey Theorem 9's factor-3 bound against
			// the best FULL ranking (a top-n list); the DP optimum over
			// partial rankings is not the right reference, since tied
			// candidates can be unboundedly better on tied inputs.
			objRel, err := SumL1Ranking(rel, inR)
			if err != nil {
				t.Fatal(err)
			}
			_, objOpt, err := FootruleOptimalFull(inR)
			if err != nil {
				t.Fatal(err)
			}
			if objOpt > 0 && objRel > 3*objOpt+1e-9 {
				t.Fatalf("relabeled median output violates factor 3: %v vs %v", objRel, objOpt)
			}
		}
	}
	// Distinct medians are rare with heavy ties; require a handful of each.
	if exactChecks < 3 || boundChecks < 10 {
		t.Fatalf("unbalanced coverage: %d exact, %d bound checks", exactChecks, boundChecks)
	}
}

// Duplicating every voter must leave median-family outputs unchanged.
func TestVoterDuplicationInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 40; trial++ {
		n := 1 + rng.Intn(10)
		m := 1 + rng.Intn(5)
		var in []*ranking.PartialRanking
		for i := 0; i < m; i++ {
			in = append(in, randrank.Partial(rng, n, 4))
		}
		doubled := append(append([]*ranking.PartialRanking{}, in...), in...)

		f1, err := MedianScores(in, LowerMedian)
		if err != nil {
			t.Fatal(err)
		}
		f2, err := MedianScores(doubled, LowerMedian)
		if err != nil {
			t.Fatal(err)
		}
		for e := range f1 {
			if f1[e] != f2[e] {
				t.Fatalf("median moved under voter duplication at %d: %v vs %v", e, f1[e], f2[e])
			}
		}
		a1, err := MedianFull(in)
		if err != nil {
			t.Fatal(err)
		}
		a2, err := MedianFull(doubled)
		if err != nil {
			t.Fatal(err)
		}
		if !a1.Equal(a2) {
			t.Fatalf("MedianFull moved under voter duplication: %v vs %v", a1, a2)
		}
		b1, err := Borda(in)
		if err != nil {
			t.Fatal(err)
		}
		b2, err := Borda(doubled)
		if err != nil {
			t.Fatal(err)
		}
		if !b1.Equal(b2) {
			t.Fatalf("Borda moved under voter duplication: %v vs %v", b1, b2)
		}
	}
}

// The streaming engine inherits relabel equivariance from the offline
// median: winners map through the permutation up to equal-median ties.
func TestMedRankRelabelObjective(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 40; trial++ {
		n := 2 + rng.Intn(10)
		m := 1 + rng.Intn(5)
		k := 1 + rng.Intn(n)
		var in []*ranking.PartialRanking
		for i := 0; i < m; i++ {
			in = append(in, randrank.Partial(rng, n, 4))
		}
		perm := rng.Perm(n)
		inR := relabelAll(t, in, perm)

		orig, err := topk.MedRankContext(context.Background(), in, k, topk.GlobalMerge)
		if err != nil {
			t.Fatal(err)
		}
		rel, err := topk.MedRankContext(context.Background(), inR, k, topk.GlobalMerge)
		if err != nil {
			t.Fatal(err)
		}
		// The multisets of winner medians must agree.
		medCount := map[int64]int{}
		for _, m2 := range orig.Medians2 {
			medCount[m2]++
		}
		for _, m2 := range rel.Medians2 {
			medCount[m2]--
		}
		for med, c := range medCount {
			if c != 0 {
				t.Fatalf("winner median multiset changed under relabeling: median %d off by %d", med, c)
			}
		}
	}
}
