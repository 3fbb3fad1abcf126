package topk

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/faults"
	"repro/internal/randrank"
	"repro/internal/ranking"
	"repro/internal/telemetry"
)

// sortedSet returns a sorted copy, the set view of a winner list (NRA/CA
// order winners by certified upper bound, which can differ from the exact
// engines' (median, id) order while the SET is identical).
func sortedSet(xs []int) []int {
	out := append([]int(nil), xs...)
	sort.Ints(out)
	return out
}

// equivalenceMatrix is the seed-matrix instance pool of the TA ≡ NRA ≡ CA
// suite: tie-heavy catalogs, near-sorted Mallows ensembles, coarse partial
// Mallows, and unstructured random bucket orders, across domain sizes and m.
func equivalenceMatrix(seed int64) []struct {
	name string
	in   []*ranking.PartialRanking
	k    int
} {
	var cases []struct {
		name string
		in   []*ranking.PartialRanking
		k    int
	}
	add := func(name string, in []*ranking.PartialRanking, k int) {
		cases = append(cases, struct {
			name string
			in   []*ranking.PartialRanking
			k    int
		}{name, in, k})
	}
	rng := rand.New(rand.NewSource(seed))
	add("catalog_tieheavy", randrank.CatalogEnsemble(rng, 300, 5, 6, 1.0, 1.5).Rankings, 8)
	add("catalog_fine", randrank.CatalogEnsemble(rng, 200, 7, 40, 0.5, 0.8).Rankings, 5)
	mal, _ := randrank.MallowsEnsemble(rng, 150, 5, 1.0)
	add("mallows_full", mal, 10)
	malp, _ := randrank.MallowsPartialEnsemble(rng, 150, 3, 0.3, 12)
	add("mallows_partial", malp, 7)
	uni := make([]*ranking.PartialRanking, 4)
	for i := range uni {
		uni[i] = randrank.Partial(rng, 120, 9)
	}
	add("random_buckets", uni, 120) // k = n: every interval must close or dominate
	tiny := make([]*ranking.PartialRanking, 3)
	for i := range tiny {
		tiny[i] = randrank.Partial(rng, 9, 4)
	}
	add("tiny", tiny, 3)
	return cases
}

// TestNRACAEquivalence is the seed-matrix equivalence suite: on every
// instance the TA, NRA, and CA (at ratios 1, 10, 100) top-k answer SETS must
// equal MEDRANK's exactly — interval domination certifies membership with
// the same (median, element) tie-breaks the exact engines use — and NRA must
// make zero random accesses.
func TestNRACAEquivalence(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		for _, tc := range equivalenceMatrix(seed) {
			t.Run(fmt.Sprintf("seed%d/%s", seed, tc.name), func(t *testing.T) {
				want, err := runSpec(tc.in, Spec{K: tc.k, Policy: RoundRobin}, nil)
				if err != nil {
					t.Fatal(err)
				}
				wantSet := sortedSet(want.Winners)

				ta, err := runSpec(tc.in, Spec{Algo: AlgoTA, K: tc.k}, nil)
				if err != nil {
					t.Fatal(err)
				}
				if got := sortedSet(ta.Winners); !reflect.DeepEqual(got, wantSet) {
					t.Fatalf("TA answer set %v != MEDRANK %v", got, wantSet)
				}

				nra, err := runSpec(tc.in, Spec{Algo: AlgoNRA, K: tc.k}, nil)
				if err != nil {
					t.Fatal(err)
				}
				if got := sortedSet(nra.Winners); !reflect.DeepEqual(got, wantSet) {
					t.Fatalf("NRA answer set %v != MEDRANK %v", got, wantSet)
				}
				if nra.Stats.Random != 0 {
					t.Fatalf("NRA made %d random accesses, want 0", nra.Stats.Random)
				}
				if len(nra.Intervals2) != len(nra.Winners) {
					t.Fatalf("NRA returned %d intervals for %d winners", len(nra.Intervals2), len(nra.Winners))
				}
				if nra.BufferPeak <= 0 && tc.k > 0 {
					t.Fatalf("NRA reported BufferPeak %d", nra.BufferPeak)
				}
				// The certified intervals must contain the exact medians.
				exact := make(map[int]int64, len(want.Winners))
				for i, w := range want.Winners {
					exact[w] = want.Medians2[i]
				}
				for i, w := range nra.Winners {
					iv := nra.Intervals2[i]
					if med := exact[w]; med < iv[0] || med > iv[1] {
						t.Fatalf("winner %d: exact median %d outside certified [%d, %d]", w, med, iv[0], iv[1])
					}
					if nra.Medians2[i] != iv[1] {
						t.Fatalf("winner %d: Medians2 %d != interval hi %d", w, nra.Medians2[i], iv[1])
					}
				}

				for _, ratio := range []int{1, 10, 100} {
					ca, err := runSpec(tc.in, Spec{Algo: AlgoCA, K: tc.k, CostRatio: ratio}, nil)
					if err != nil {
						t.Fatal(err)
					}
					if got := sortedSet(ca.Winners); !reflect.DeepEqual(got, wantSet) {
						t.Fatalf("CA(ratio=%d) answer set %v != MEDRANK %v", ratio, got, wantSet)
					}
				}
				// CA at ratio 0 is the NRA regime: same run, zero random.
				ca0, err := runSpec(tc.in, Spec{Algo: AlgoCA, K: tc.k, CostRatio: 0}, nil)
				if err != nil {
					t.Fatal(err)
				}
				if ca0.Stats.Random != 0 {
					t.Fatalf("CA(ratio=0) made %d random accesses, want 0", ca0.Stats.Random)
				}
				if !reflect.DeepEqual(ca0.Winners, nra.Winners) {
					t.Fatalf("CA(ratio=0) diverged from NRA: %v vs %v", ca0.Winners, nra.Winners)
				}
			})
		}
	}
}

// TestNRACAOverDeathEquivalence kills each list in turn and checks the
// degraded NRA/CA answers: deterministic across runs, and the answer set
// equals fault-free MEDRANK over that run's surviving lists (survivors are
// complete streams, so the degraded answer is still an exact aggregation).
func TestNRACAOverDeathEquivalence(t *testing.T) {
	const n, m, k = 300, 5, 8
	in := chaosEnsemble(t, n, m)
	engines := []struct {
		name string
		run  func(srcs []faults.Source, acc *telemetry.AccessAccountant) (*Result, error)
	}{
		{"nra", func(srcs []faults.Source, acc *telemetry.AccessAccountant) (*Result, error) {
			return NRAOver(context.Background(), srcs, k, acc)
		}},
		{"ca10", func(srcs []faults.Source, acc *telemetry.AccessAccountant) (*Result, error) {
			return CAOver(context.Background(), srcs, k, 10, acc)
		}},
	}
	for _, eng := range engines {
		for victim := 0; victim < m; victim++ {
			run := func() *Result {
				acc := telemetry.NewAccessAccountant(m)
				srcs := listSources(in, acc, func(i int, s faults.Source, _ *telemetry.AccessAccountant) faults.Source {
					if i != victim {
						return s
					}
					return faults.Inject(s, faults.Plan{DeathAfter: 1})
				})
				res, err := eng.run(srcs, acc)
				if err != nil {
					t.Fatalf("%s victim %d: %v", eng.name, victim, err)
				}
				return res
			}
			a, b := run(), run()
			if !reflect.DeepEqual(a.Winners, b.Winners) || !reflect.DeepEqual(a.Degraded, b.Degraded) ||
				!reflect.DeepEqual(a.Stats, b.Stats) {
				t.Fatalf("%s victim %d: two identical chaos runs diverged", eng.name, victim)
			}
			if a.Degraded == nil {
				// NRA's first certification check runs before any probe, so a
				// DeathAfter:1 victim is always probed at least once: the
				// death cannot go unnoticed under round-robin rounds.
				t.Fatalf("%s victim %d: death not reported", eng.name, victim)
			}
			if !reflect.DeepEqual(a.Degraded.Lost, []int{victim}) || a.Degraded.Survivors != m-1 {
				t.Fatalf("%s victim %d: Degraded = %+v", eng.name, victim, a.Degraded)
			}
			survivors := make([]*ranking.PartialRanking, 0, m-1)
			for i, r := range in {
				if i != victim {
					survivors = append(survivors, r)
				}
			}
			want, err := runSpec(survivors, Spec{K: k, Policy: RoundRobin}, nil)
			if err != nil {
				t.Fatal(err)
			}
			if got, wantSet := sortedSet(a.Winners), sortedSet(want.Winners); !reflect.DeepEqual(got, wantSet) {
				t.Fatalf("%s victim %d: degraded answer set %v != survivors' MEDRANK %v",
					eng.name, victim, got, wantSet)
			}
		}
	}
}

// TestNRACAOverChaosMatrix runs NRA and CA under randomized transient+death
// plans (retry-wrapped, like the E15 pipeline) and checks the degraded
// answers against fault-free MEDRANK over each run's own surviving lists.
func TestNRACAOverChaosMatrix(t *testing.T) {
	const n, m, k = 250, 5, 8
	in := chaosEnsemble(t, n, m)
	seed := faultSeed(t)
	for trial := int64(0); trial < 4; trial++ {
		for _, ratio := range []int{0, 10} {
			sl := &faults.FakeSleeper{}
			acc := telemetry.NewAccessAccountant(m)
			srcs := listSources(in, acc, func(i int, s faults.Source, _ *telemetry.AccessAccountant) faults.Source {
				s = faults.Inject(s, faults.Plan{
					Seed: seed + trial*100 + int64(i), TransientRate: 0.01, DeathRate: 0.004, Sleeper: sl,
				})
				pol := faults.DefaultRetryPolicy()
				pol.JitterSeed = seed + trial
				pol.Sleeper = sl
				return faults.WithRetry(s, pol, acc, i)
			})
			res, err := CAOver(context.Background(), srcs, k, ratio, acc)
			if err != nil {
				// All lists dying is a legal outcome of an aggressive plan.
				continue
			}
			survivors := make([]*ranking.PartialRanking, 0, m)
			if res.Degraded == nil {
				survivors = in
			} else {
				lost := make(map[int]bool, len(res.Degraded.Lost))
				for _, l := range res.Degraded.Lost {
					lost[l] = true
				}
				for i, r := range in {
					if !lost[i] {
						survivors = append(survivors, r)
					}
				}
			}
			want, err := runSpec(survivors, Spec{K: k, Policy: RoundRobin}, nil)
			if err != nil {
				t.Fatal(err)
			}
			if got, wantSet := sortedSet(res.Winners), sortedSet(want.Winners); !reflect.DeepEqual(got, wantSet) {
				t.Fatalf("trial %d ratio %d: degraded set %v != survivors' MEDRANK %v (lost %v)",
					trial, ratio, got, wantSet, res.Degraded)
			}
			if ratio == 0 && res.Stats.Random != 0 {
				t.Fatalf("trial %d: NRA regime made %d random accesses", trial, res.Stats.Random)
			}
		}
	}
}

// TestCACostMonotonicity checks the design property that motivates CA: at
// its design ratio, CA's middleware cost never exceeds BOTH TA's and NRA's —
// it blends toward whichever access mix is cheaper on the instance.
func TestCACostMonotonicity(t *testing.T) {
	const cs, cr = 1, 10
	for seed := int64(1); seed <= 3; seed++ {
		for _, tc := range equivalenceMatrix(seed) {
			ta, err := runSpec(tc.in, Spec{Algo: AlgoTA, K: tc.k}, nil)
			if err != nil {
				t.Fatal(err)
			}
			nra, err := runSpec(tc.in, Spec{Algo: AlgoNRA, K: tc.k}, nil)
			if err != nil {
				t.Fatal(err)
			}
			ca, err := runSpec(tc.in, Spec{Algo: AlgoCA, K: tc.k, CostRatio: cr / cs}, nil)
			if err != nil {
				t.Fatal(err)
			}
			taCost := ta.Stats.MiddlewareCost(cs, cr)
			nraCost := nra.Stats.MiddlewareCost(cs, cr)
			caCost := ca.Stats.MiddlewareCost(cs, cr)
			worst := taCost
			if nraCost > worst {
				worst = nraCost
			}
			if caCost > worst {
				t.Errorf("seed %d %s: CA cost %d exceeds both TA (%d) and NRA (%d)",
					seed, tc.name, caCost, taCost, nraCost)
			}
		}
	}
}

// TestCertificateLowerBoundAbsentElements pins the hardening: winners outside
// a list's domain no longer panic the bound, they simply cannot be charged
// for on that list.
func TestCertificateLowerBoundAbsentElements(t *testing.T) {
	r5, err := ranking.FromBuckets(5, [][]int{{0, 1}, {2}, {3, 4}})
	if err != nil {
		t.Fatal(err)
	}
	r3, err := ranking.FromBuckets(3, [][]int{{2}, {0, 1}})
	if err != nil {
		t.Fatal(err)
	}
	// Winner 4 exists only in r5; winner 7 in neither. The old code indexed
	// BucketOf unconditionally and panicked on both.
	in := []*ranking.PartialRanking{r5, r3}
	got := CertificateLowerBound(in, []int{4, 7})
	// needed = 1; winner 4's only observable list is r5 at depth 1+|{0,1}|+|{2}| = 4.
	if got != 4 {
		t.Fatalf("CertificateLowerBound = %d, want 4", got)
	}
	if CertificateLowerBound(in, []int{7}) != 0 {
		t.Fatal("a winner absent everywhere must contribute a zero bound")
	}
}

// certificateLowerBoundCostRef is CertificateLowerBoundCost with each
// winner's depth summed bucket by bucket.
func certificateLowerBoundCostRef(rankings []*ranking.PartialRanking, winners []int, cs, cr int) int {
	needed := (len(rankings) + 1) / 2
	best := 0
	for _, w := range winners {
		var costs []int
		for _, r := range rankings {
			if w < 0 || w >= r.N() {
				continue
			}
			depth := 1
			for b := 0; b < r.BucketOf(w); b++ {
				depth += r.BucketSize(b)
			}
			c := cs * depth
			if cr > 0 && cr < c {
				c = cr
			}
			costs = append(costs, c)
		}
		sort.Ints(costs)
		total := 0
		for i := 0; i < needed && i < len(costs); i++ {
			total += costs[i]
		}
		best = max(best, total)
	}
	return best
}

// TestCertificateLowerBoundCost pins the cost-weighted bound and its
// degenerate cases, and checks the bound against its summed definition on
// random partial and top-k rankings.
func TestCertificateLowerBoundCost(t *testing.T) {
	refRng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 200; trial++ {
		n, m := 1+refRng.Intn(40), 1+refRng.Intn(7)
		in := make([]*ranking.PartialRanking, m)
		for i := range in {
			if refRng.Intn(2) == 0 {
				in[i] = randrank.Partial(refRng, n, 1+refRng.Intn(n))
			} else {
				in[i] = randrank.TopK(refRng, n, refRng.Intn(n+1))
			}
		}
		winners := refRng.Perm(n)[:refRng.Intn(n+1)]
		for _, cost := range [][2]int{{1, 0}, {1, 3}, {2, 10}} {
			got := CertificateLowerBoundCost(in, winners, cost[0], cost[1])
			if want := certificateLowerBoundCostRef(in, winners, cost[0], cost[1]); got != want {
				t.Fatalf("trial %d (cs, cr) = %v: bound %d, summed definition %d", trial, cost, got, want)
			}
		}
	}

	rng := rand.New(rand.NewSource(7))
	in := randrank.CatalogEnsemble(rng, 200, 5, 6, 1.0, 1.5).Rankings
	res, err := runSpec(in, Spec{K: 8, Policy: RoundRobin}, nil)
	if err != nil {
		t.Fatal(err)
	}
	w := res.Winners
	seqOnly := CertificateLowerBound(in, w)
	if got := CertificateLowerBoundCost(in, w, 1, 0); got != seqOnly {
		t.Fatalf("cr<=0 must degenerate to the sequential bound: got %d want %d", got, seqOnly)
	}
	// With random access priced at cr, no per-list charge exceeds cr, and
	// cheaper random access can only lower the bound.
	needed := (len(in) + 1) / 2
	for _, cr := range []int{1, 10, 100} {
		got := CertificateLowerBoundCost(in, w, 1, cr)
		if got > seqOnly {
			t.Fatalf("cr=%d bound %d exceeds sequential-only bound %d", cr, got, seqOnly)
		}
		if got > needed*cr {
			t.Fatalf("cr=%d bound %d exceeds the all-random ceiling %d", cr, got, needed*cr)
		}
	}
	if a, b := CertificateLowerBoundCost(in, w, 1, 1), CertificateLowerBoundCost(in, w, 1, 10); a > b {
		t.Fatalf("bound must be monotone in cr: cost(cr=1)=%d > cost(cr=10)=%d", a, b)
	}
	// Ratio plumbing: cost-weighted ratio = MiddlewareCost / bound.
	st := AccessStats{Total: 30, Random: 4}
	if got := st.CostOptimalityRatio(1, 10, 70); got != 1.0 {
		t.Fatalf("CostOptimalityRatio = %v, want 1.0", got)
	}
	if st.CostOptimalityRatio(1, 10, 0) != 0 {
		t.Fatal("non-positive bound must yield ratio 0")
	}
}

// TestNRAExhaustsCompleteInstance pins the k = n boundary: with every
// interval forced closed the certified answer must be the full exact order.
func TestNRAExhaustsCompleteInstance(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	in := randrank.CatalogEnsemble(rng, 60, 3, 5, 1.0, 1.0).Rankings
	want, err := runSpec(in, Spec{K: 60, Policy: RoundRobin}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, ratio := range []int{0, 5} {
		got, err := runSpec(in, Spec{Algo: AlgoCA, K: 60, CostRatio: ratio}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(sortedSet(got.Winners), sortedSet(want.Winners)) {
			t.Fatalf("ratio %d: k=n answer set differs", ratio)
		}
	}
	for _, ratio := range []int{-1, MaxCostRatio + 1} {
		if _, err := runSpec(in, Spec{Algo: AlgoCA, K: 3, CostRatio: ratio}, nil); err == nil {
			t.Fatalf("ratio %d must be rejected", ratio)
		}
	}
	if _, err := runSpec(nil, Spec{Algo: AlgoNRA, K: 3}, nil); err == nil {
		t.Fatal("empty input must be rejected")
	}
}
