package topk

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/randrank"
	"repro/internal/ranking"
)

// TestThresholdTopKMatchesMedRank pins the TA-style baseline's answer to
// MEDRANK's on random ensembles: same winners, same medians.
func TestThresholdTopKMatchesMedRank(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 60; trial++ {
		n := 2 + rng.Intn(40)
		m := 1 + rng.Intn(6)
		k := rng.Intn(n + 1)
		var in []*ranking.PartialRanking
		for i := 0; i < m; i++ {
			in = append(in, randrank.Partial(rng, n, 1+rng.Intn(5)))
		}
		want, err := runSpec(in, Spec{K: k, Policy: RoundRobin}, nil)
		if err != nil {
			t.Fatal(err)
		}
		got, err := runSpec(in, Spec{Algo: AlgoTA, K: k}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(got.Winners) != len(want.Winners) {
			t.Fatalf("n=%d m=%d k=%d: TA winners %v, MedRank %v", n, m, k, got.Winners, want.Winners)
		}
		for i := range want.Winners {
			if got.Winners[i] != want.Winners[i] || got.Medians2[i] != want.Medians2[i] {
				t.Fatalf("n=%d m=%d k=%d: TA (%v, %v), MedRank (%v, %v)",
					n, m, k, got.Winners, got.Medians2, want.Winners, want.Medians2)
			}
		}
	}
}

// TestThresholdTopKAccessProfile checks the cost-model shape of a TA run:
// random accesses are exactly (m-1) per distinct element resolved via sorted
// access, MEDRANK makes none, and both report through the same AccessStats.
func TestThresholdTopKAccessProfile(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	var in []*ranking.PartialRanking
	const n, m = 200, 5
	for i := 0; i < m; i++ {
		in = append(in, randrank.Partial(rng, n, 4))
	}
	res, err := runSpec(in, Spec{Algo: AlgoTA, K: 3}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Random == 0 {
		t.Fatal("TA run made no random accesses")
	}
	if res.Stats.Random%(m-1) != 0 {
		t.Errorf("random accesses %d not a multiple of m-1 = %d", res.Stats.Random, m-1)
	}
	if res.Stats.Total > n*m {
		t.Errorf("sequential accesses %d exceed the full scan %d", res.Stats.Total, n*m)
	}
	mr, err := runSpec(in, Spec{K: 3, Policy: RoundRobin}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if mr.Stats.Random != 0 {
		t.Errorf("MEDRANK made %d random accesses, want 0", mr.Stats.Random)
	}
	// The FLN middleware cost prices the two access modes: with random
	// accesses present, raising their unit cost must raise the total.
	cheap := res.Stats.MiddlewareCost(1, 0)
	dear := res.Stats.MiddlewareCost(1, 1000)
	if cheap <= 0 || dear <= cheap {
		t.Errorf("middleware cost not increasing in cr: %d vs %d", cheap, dear)
	}
}

// TestOptimalityRatioAtLeastOne checks MEDRANK's cost against the
// certificate lower bound in the NRA cost regime (cs=1, cr=0): the ratio is
// >= 1 whenever the bound is defined, and 0 when it is not.
func TestOptimalityRatioAtLeastOne(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 30; trial++ {
		n := 3 + rng.Intn(30)
		m := 1 + 2*rng.Intn(3) // odd voter counts
		k := 1 + rng.Intn(n-1)
		var in []*ranking.PartialRanking
		for i := 0; i < m; i++ {
			in = append(in, randrank.Partial(rng, n, 3))
		}
		res, err := runSpec(in, Spec{K: k, Policy: GlobalMerge}, nil)
		if err != nil {
			t.Fatal(err)
		}
		lb := CertificateLowerBound(in, res.Winners)
		if lb <= 0 {
			t.Fatalf("certificate bound %d for k=%d", lb, k)
		}
		if ratio := res.Stats.CostOptimalityRatio(1, 0, lb); ratio < 1 {
			t.Errorf("optimality ratio %v < 1 (probes %d, bound %d)", ratio, res.Stats.Total, lb)
		}
	}
	var st AccessStats
	if st.CostOptimalityRatio(1, 0, 0) != 0 {
		t.Error("ratio with zero bound should be 0")
	}
}

// TestTAThetaExhaustedListNoStaleStop is the regression pin for the
// round-robin exhausted-list edge case under the θ-relaxed stop. The audit
// outcome it pins: frontiers cannot go stale, because a successful probe
// refreshes its list's frontier immediately (Peek2 returns MaxInt64 the
// instant the last entry is consumed) and τ is recomputed from the live
// frontier array before every probe. A consequence worth keeping on the
// record: since medians never exceed the bottom position, the relaxed test
// necessarily fires no later than the state where every frontier reaches the
// last bucket — a θ > 0 run can never early-stop against a threshold the
// instance has advanced past. The test stresses the late-round states (k
// near n, so certification happens while lists drain) and re-verifies the
// (1+θ) guarantee offline against the exact medians; it would fail if
// exhausted lists ever contributed stale finite positions to τ.
func TestTAThetaExhaustedListNoStaleStop(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 25; trial++ {
		n := 6 + rng.Intn(20)
		m := 1 + 2*rng.Intn(3)
		var in []*ranking.PartialRanking
		for i := 0; i < m; i++ {
			in = append(in, randrank.Partial(rng, n, 4))
		}
		exact, err := runSpec(in, Spec{K: n, Policy: GlobalMerge}, nil)
		if err != nil {
			t.Fatal(err)
		}
		medOf := make(map[int]int64, n)
		for i, w := range exact.Winners {
			medOf[w] = exact.Medians2[i]
		}
		for _, k := range []int{n - 1, n - 2} {
			for _, theta := range []float64{0.1, 0.5, 10} {
				res, err := runTA(context.Background(), in, k, theta)
				if err != nil {
					t.Fatal(err)
				}
				reported := make(map[int]bool, k)
				worst := int64(0)
				for i, w := range res.Winners {
					reported[w] = true
					if res.Medians2[i] > worst {
						worst = res.Medians2[i]
					}
				}
				// The FLN guarantee: no excluded element beats a reported
				// winner by more than (1+θ).
				for e := 0; e < n; e++ {
					if reported[e] {
						continue
					}
					if float64(worst) > (1+theta)*float64(medOf[e]) {
						t.Fatalf("k=%d theta=%v: reported median %d exceeds (1+θ)·%d of excluded element %d",
							k, theta, worst, medOf[e], e)
					}
				}
				c := res.Approx
				if c == nil {
					t.Fatalf("approx run returned no certificate")
				}
				if c.EarlyStop {
					// A stop against a stale (finite) frontier of an already
					// exhausted list would surface here: τ must be a real
					// doubled position of the instance, and the certificate
					// must satisfy its own bound.
					if c.Threshold2 <= 0 || c.Threshold2 > int64(2*n) {
						t.Fatalf("early stop with out-of-instance threshold %d (n=%d)", c.Threshold2, n)
					}
					if float64(c.KthMedian2) > (1+theta)*float64(c.Threshold2) {
						t.Fatalf("certificate violates its own bound: kth=%d τ=%d θ=%v",
							c.KthMedian2, c.Threshold2, theta)
					}
				}
			}
		}
		// k = n drives the loop to its exhaustion exit (every element
		// resolved, lists fully drained): the relaxed test must never fire
		// there — the MaxInt64 guard keeps θ away from an all-exhausted
		// frontier — and the answer must be exact.
		res, err := runTA(context.Background(), in, n, 10)
		if err != nil {
			t.Fatal(err)
		}
		if res.Approx.EarlyStop {
			t.Fatal("k=n exhaustion run reported an early stop")
		}
		if !reflect.DeepEqual(res.Winners, exact.Winners) {
			t.Fatalf("k=n theta run diverged from exact: %v vs %v", res.Winners, exact.Winners)
		}
	}
}
