package topk

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"repro/internal/aggregate"
	"repro/internal/randrank"
	"repro/internal/ranking"
	"repro/internal/telemetry"
)

var policies = []struct {
	name string
	p    Policy
}{
	{"GlobalMerge", GlobalMerge},
	{"RoundRobin", RoundRobin},
}

func TestCursorYieldsPositionOrder(t *testing.T) {
	pr := ranking.MustFromBuckets(5, [][]int{{2, 4}, {0}, {1, 3}})
	acc := telemetry.NewAccessAccountant(1)
	src := NewListSource(pr, acc, 0)
	var elems []int
	var prev int64 = -1
	for {
		e, ok, err := src.Next(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		if e.Pos2 < prev {
			t.Fatalf("positions decreased: %d after %d", e.Pos2, prev)
		}
		prev = e.Pos2
		elems = append(elems, e.Elem)
	}
	want := []int{2, 4, 0, 1, 3}
	if len(elems) != len(want) {
		t.Fatalf("source yielded %v", elems)
	}
	for i := range want {
		if elems[i] != want[i] {
			t.Fatalf("source order %v, want %v", elems, want)
		}
	}
	if got := acc.SequentialIn(0); got != 5 {
		t.Errorf("probes = %d, want 5", got)
	}
	if src.Peek2() != int64(math.MaxInt64) {
		t.Errorf("exhausted Peek2 = %d, want MaxInt64", src.Peek2())
	}
}

// MEDRANK must return exactly the offline median top-k, for both policies,
// across random partial-ranking ensembles.
func TestMedRankMatchesOfflineRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(12)
		m := 1 + rng.Intn(6)
		k := rng.Intn(n + 1)
		var in []*ranking.PartialRanking
		for i := 0; i < m; i++ {
			in = append(in, randrank.Partial(rng, n, 4))
		}
		want, err := aggregate.MedianTopK(in, k)
		if err != nil {
			t.Fatal(err)
		}
		for _, pol := range policies {
			got, err := runSpec(in, Spec{K: k, Policy: pol.p}, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !got.TopK.Equal(want) {
				t.Fatalf("%s mismatch (n=%d m=%d k=%d):\ngot  %v\nwant %v\ninputs %v",
					pol.name, n, m, k, got.TopK, want, in)
			}
			// Reported medians must match the offline lower medians.
			f4, err := aggregate.MedianScores2(in, aggregate.LowerMedian)
			if err != nil {
				t.Fatal(err)
			}
			for wi, w := range got.Winners {
				if got.Medians2[wi]*2 != f4[w] {
					t.Fatalf("%s median of %d = %d/2, offline %d/4",
						pol.name, w, got.Medians2[wi], f4[w])
				}
			}
		}
	}
}

// Exhaustive cross-check on all pairs of bucket orders over small domains.
func TestMedRankMatchesOfflineExhaustive(t *testing.T) {
	for n := 1; n <= 3; n++ {
		var all []*ranking.PartialRanking
		ranking.ForEachPartialRanking(n, func(pr *ranking.PartialRanking) bool {
			all = append(all, pr)
			return true
		})
		for _, a := range all {
			for _, b := range all {
				in := []*ranking.PartialRanking{a, b}
				for k := 0; k <= n; k++ {
					want, err := aggregate.MedianTopK(in, k)
					if err != nil {
						t.Fatal(err)
					}
					for _, pol := range policies {
						got, err := runSpec(in, Spec{K: k, Policy: pol.p}, nil)
						if err != nil {
							t.Fatal(err)
						}
						if !got.TopK.Equal(want) {
							t.Fatalf("%s mismatch k=%d:\na=%v b=%v\ngot %v want %v",
								pol.name, k, a, b, got.TopK, want)
						}
					}
				}
			}
		}
	}
}

// Probes never exceed a full scan, and the certificate lower bound never
// exceeds the probes of either policy.
func TestMedRankAccessBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 100; trial++ {
		n := 2 + rng.Intn(30)
		m := 1 + rng.Intn(7)
		k := 1 + rng.Intn(n)
		var in []*ranking.PartialRanking
		for i := 0; i < m; i++ {
			in = append(in, randrank.Partial(rng, n, 4))
		}
		full := FullScanCost(in)
		for _, pol := range policies {
			res, err := runSpec(in, Spec{K: k, Policy: pol.p}, nil)
			if err != nil {
				t.Fatal(err)
			}
			if res.Stats.Total > full.Total {
				t.Fatalf("%s read %d > full scan %d", pol.name, res.Stats.Total, full.Total)
			}
			lb := CertificateLowerBound(in, res.Winners)
			if lb > res.Stats.Total {
				t.Fatalf("%s certificate bound %d exceeds probes %d (n=%d m=%d k=%d)",
					pol.name, lb, res.Stats.Total, n, m, k)
			}
			var sum int
			maxd := 0
			for _, d := range res.Stats.PerList {
				sum += d
				if d > maxd {
					maxd = d
				}
			}
			if sum != res.Stats.Total || maxd != res.Stats.MaxDepth {
				t.Fatalf("%s stats inconsistent: %+v", pol.name, res.Stats)
			}
		}
	}
}

// On strongly correlated inputs the engine reads a tiny prefix: the paper's
// "as few elements as necessary" behaviour.
func TestMedRankSublinearOnCorrelated(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	n, m := 2000, 5
	in, _ := randrank.MallowsEnsemble(rng, n, m, 2.0)
	res, err := runSpec(in, Spec{K: 1, Policy: GlobalMerge}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Total > n {
		t.Errorf("correlated top-1 read %d probes out of %d; expected strongly sublinear", res.Stats.Total, n*m)
	}
}

// On unanimous inputs the top-1 is certified after roughly one probe per
// list.
func TestMedRankUnanimousMinimalProbes(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	full := randrank.Full(rng, 100)
	in := []*ranking.PartialRanking{full, full, full}
	res, err := runSpec(in, Spec{K: 1, Policy: RoundRobin}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Winners[0] != full.Order()[0] {
		t.Fatalf("wrong winner %d", res.Winners[0])
	}
	// Needs the winner in 2 lists plus evidence that nothing else can beat
	// it; round-robin reads at most a few entries per list.
	if res.Stats.Total > 9 {
		t.Errorf("unanimous top-1 used %d probes", res.Stats.Total)
	}
}

func TestMedRankEdgeCases(t *testing.T) {
	a := ranking.MustFromBuckets(3, [][]int{{0, 1, 2}})
	res, err := runSpec([]*ranking.PartialRanking{a}, Spec{K: 0, Policy: GlobalMerge}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Total != 0 || len(res.Winners) != 0 {
		t.Errorf("k=0 should probe nothing: %+v", res.Stats)
	}
	// k = n over a single everything-tied list.
	res, err = runSpec([]*ranking.PartialRanking{a}, Spec{K: 3, Policy: GlobalMerge}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Winners) != 3 {
		t.Errorf("k=n winners = %v", res.Winners)
	}

	if _, err := runSpec(nil, Spec{K: 1, Policy: GlobalMerge}, nil); err == nil {
		t.Error("empty ensemble accepted")
	}
	if _, err := runSpec([]*ranking.PartialRanking{a}, Spec{K: 4, Policy: GlobalMerge}, nil); err == nil {
		t.Error("k > n accepted")
	}
	if _, err := runSpec([]*ranking.PartialRanking{a}, Spec{K: -1, Policy: GlobalMerge}, nil); err == nil {
		t.Error("negative k accepted")
	}
	if _, err := runSpec([]*ranking.PartialRanking{a}, Spec{K: 1, Policy: Policy(7)}, nil); err == nil {
		t.Error("unknown policy accepted")
	}
	b := ranking.MustFromOrder([]int{0, 1})
	if _, err := runSpec([]*ranking.PartialRanking{a, b}, Spec{K: 1, Policy: GlobalMerge}, nil); err == nil {
		t.Error("domain mismatch accepted")
	}
}

func TestFullScanCost(t *testing.T) {
	a := ranking.MustFromOrder([]int{0, 1, 2})
	st := FullScanCost([]*ranking.PartialRanking{a, a})
	if st.Total != 6 || st.MaxDepth != 3 {
		t.Errorf("FullScanCost = %+v", st)
	}
}

// Bucket-granular policies return the same answer as element-granular ones
// while charging fewer I/Os on tied inputs.
func TestMedRankBucketGranular(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 100; trial++ {
		n := 1 + rng.Intn(15)
		m := 1 + rng.Intn(5)
		k := rng.Intn(n + 1)
		var in []*ranking.PartialRanking
		for i := 0; i < m; i++ {
			in = append(in, randrank.Partial(rng, n, 5))
		}
		want, err := aggregate.MedianTopK(in, k)
		if err != nil {
			t.Fatal(err)
		}
		for _, pol := range []Policy{GlobalMergeBuckets, RoundRobinBuckets} {
			got, err := runSpec(in, Spec{K: k, Policy: pol}, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !got.TopK.Equal(want) {
				t.Fatalf("policy %d mismatch (n=%d m=%d k=%d):\ngot  %v\nwant %v",
					pol, n, m, k, got.TopK, want)
			}
			if got.Stats.TotalBucketProbes > got.Stats.Total {
				t.Fatalf("bucket probes %d exceed element reads %d",
					got.Stats.TotalBucketProbes, got.Stats.Total)
			}
			var sum int
			for _, b := range got.Stats.BucketProbes {
				sum += b
			}
			if sum != got.Stats.TotalBucketProbes {
				t.Fatalf("bucket probe stats inconsistent: %+v", got.Stats)
			}
		}
	}
}

// On a heavily tied catalog, bucket I/Os are dramatically cheaper than
// element reads.
func TestMedRankBucketGranularSavesIO(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	in := randrank.CatalogEnsemble(rng, 2000, 5, 5, 1.0, 1.5).Rankings
	res, err := runSpec(in, Spec{K: 10, Policy: GlobalMergeBuckets}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.TotalBucketProbes*10 > res.Stats.Total {
		t.Errorf("expected >=10x I/O saving on 5-valued catalog: %d bucket probes for %d elements",
			res.Stats.TotalBucketProbes, res.Stats.Total)
	}
	// Element-granular stats count one I/O per element.
	resEl, err := runSpec(in, Spec{K: 10, Policy: GlobalMerge}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range resEl.Stats.PerList {
		if resEl.Stats.BucketProbes[i] != resEl.Stats.PerList[i] {
			t.Fatalf("element policy should charge one I/O per element: %+v", resEl.Stats)
		}
	}
}
