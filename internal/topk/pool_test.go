package topk

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"sync"
	"testing"

	"repro/internal/faults"
	"repro/internal/randrank"
	"repro/internal/ranking"
)

// The three answer selections the engines made before they kept only the k
// best: each sorted every resolved or uncleared element and cut the order at
// k. They are the references the k-bounded selections must match.

// refSelectTopK is TA's selection: resolved elements by (median, element ID).
func refSelectTopK(med []int64, k int) (winners []int, medians2 []int64) {
	type cand struct {
		e    int
		med2 int64
	}
	cands := make([]cand, 0, len(med))
	for e, v := range med {
		if v < math.MaxInt64 {
			cands = append(cands, cand{e, v})
		}
	}
	sort.Slice(cands, func(a, b int) bool {
		if cands[a].med2 != cands[b].med2 {
			return cands[a].med2 < cands[b].med2
		}
		return cands[a].e < cands[b].e
	})
	if len(cands) > k {
		cands = cands[:k]
	}
	winners = make([]int, 0, len(cands))
	for _, c := range cands {
		winners = append(winners, c.e)
		medians2 = append(medians2, c.med2)
	}
	return winners, medians2
}

// refMedrankFinalTopK is MEDRANK's selection: its exact elements by (median,
// element ID).
func refMedrankFinalTopK(exactMed []int64, exactCount, k int) (winners []int, medians2 []int64) {
	type cand struct {
		e    int
		med2 int64
	}
	cands := make([]cand, 0, exactCount)
	for e := range exactMed {
		if exactMed[e] < math.MaxInt64 {
			cands = append(cands, cand{e, exactMed[e]})
		}
	}
	sort.Slice(cands, func(a, b int) bool {
		if cands[a].med2 != cands[b].med2 {
			return cands[a].med2 < cands[b].med2
		}
		return cands[a].e < cands[b].e
	})
	if len(cands) > k {
		cands = cands[:k]
	}
	winners = make([]int, 0, len(cands))
	for _, c := range cands {
		winners = append(winners, c.e)
		medians2 = append(medians2, c.med2)
	}
	return winners, medians2
}

// refNRAFinalTopK is NRA and CA's selection: every non-cleared element by
// (median bound, best case, element ID).
func refNRAFinalTopK(c *nraCore) (winners []int, medians2 []int64, intervals [][2]int64) {
	type cand struct {
		e         int
		med2, lo2 int64
	}
	cands := make([]cand, 0, len(c.live)+c.n-c.probedDistinct)
	for e := 0; e < c.n; e++ {
		if c.cleared[e] {
			continue
		}
		med := c.worst2(e)
		if med == nraInf {
			med = nraInf - 1
		}
		cands = append(cands, cand{e, med, c.best2(e)})
	}
	sort.Slice(cands, func(i, j int) bool {
		a, b := cands[i], cands[j]
		if a.med2 != b.med2 {
			return a.med2 < b.med2
		}
		if a.lo2 != b.lo2 {
			return a.lo2 < b.lo2
		}
		return a.e < b.e
	})
	if len(cands) > c.k {
		cands = cands[:c.k]
	}
	winners = make([]int, 0, len(cands))
	medians2 = make([]int64, 0, len(cands))
	intervals = make([][2]int64, 0, len(cands))
	for _, cd := range cands {
		winners = append(winners, cd.e)
		medians2 = append(medians2, cd.med2)
		hi := c.worst2(cd.e)
		lo := cd.lo2
		if lo > hi {
			lo = hi
		}
		intervals = append(intervals, [2]int64{lo, hi})
	}
	return winners, medians2, intervals
}

// randomMedians draws n doubled medians from few values, each unknown
// (math.MaxInt64) with probability gap.
func randomMedians(rng *rand.Rand, n, values int, gap float64) ([]int64, int) {
	med := make([]int64, n)
	known := 0
	for e := range med {
		if rng.Float64() < gap {
			med[e] = math.MaxInt64
			continue
		}
		med[e] = int64(rng.Intn(values))
		known++
	}
	return med, known
}

// TestSelectTopKMatchesSortReference compares the k-bounded selection with
// TA's and MEDRANK's full sorts on tie-heavy median arrays with unknown
// gaps, for every k from 0 to n (so also k above the number of known
// elements), reusing one heap throughout as a pooled driver does.
func TestSelectTopKMatchesSortReference(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var sel kSmallest[bound]
	for trial := 0; trial < 300; trial++ {
		n := rng.Intn(40)
		med, known := randomMedians(rng, n, 1+rng.Intn(6), []float64{0, 0.3, 0.9, 1}[rng.Intn(4)])
		for k := 0; k <= n; k++ {
			w, m2 := selectTopK(&sel, med, k)
			rw, rm2 := refSelectTopK(med, k)
			if !reflect.DeepEqual(w, rw) || !reflect.DeepEqual(m2, rm2) {
				t.Fatalf("trial %d k=%d over %v: selectTopK (%v, %v), TA's sort (%v, %v)", trial, k, med, w, m2, rw, rm2)
			}
			mw, mm2 := refMedrankFinalTopK(med, known, k)
			if !reflect.DeepEqual(w, mw) || !reflect.DeepEqual(m2, mm2) {
				t.Fatalf("trial %d k=%d over %v: selectTopK (%v, %v), MEDRANK's sort (%v, %v)", trial, k, med, w, m2, mw, mm2)
			}
		}
	}
}

// TestNRAFinalTopKMatchesSortReference builds random interval cores —
// positions from few values, ended scans, cleared elements, never-probed
// elements — and compares the k-bounded finalTopK with the full sort for
// every k, on one core reset between trials as a pooled driver resets it.
func TestNRAFinalTopKMatchesSortReference(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	var core nraCore
	for trial := 0; trial < 300; trial++ {
		n, m := 1+rng.Intn(30), 1+rng.Intn(9)
		front := make([]int64, m)
		for li := range front {
			front[li] = int64(2 * rng.Intn(8))
			if rng.Intn(8) == 0 {
				front[li] = math.MaxInt64
			}
		}
		for k := 0; k <= n; k++ {
			core.reset(n, k, front)
			for e := 0; e < n; e++ {
				for li := 0; li < m; li++ {
					if rng.Intn(3) == 0 {
						hi := min(front[li], 16)
						core.add(li, e, rng.Int63n(hi+1))
					}
				}
			}
			for e := 0; e < n; e++ {
				if core.probed[e] && rng.Intn(4) == 0 {
					core.clear(e)
				}
			}
			rw, rm2, rint := refNRAFinalTopK(&core)
			w, m2, iv := core.finalTopK()
			if !reflect.DeepEqual(w, rw) || !reflect.DeepEqual(m2, rm2) || !reflect.DeepEqual(iv, rint) {
				t.Fatalf("trial %d n=%d m=%d k=%d: finalTopK (%v, %v, %v), sort (%v, %v, %v)", trial, n, m, k, w, m2, iv, rw, rm2, rint)
			}
		}
	}
}

// TestSelectKthMatchesSort checks the quickselect kthAlive uses against a
// sort, on rows long enough to partition, few-valued and distinct, sorted,
// reversed and random.
func TestSelectKthMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 2000; trial++ {
		n := 1 + rng.Intn(100)
		xs := make([]int64, n)
		values := []int{1, 2, 8, 1 << 30}[rng.Intn(4)]
		for i := range xs {
			xs[i] = int64(rng.Intn(values))
		}
		switch rng.Intn(3) {
		case 1:
			slices.Sort(xs)
		case 2:
			slices.SortFunc(xs, func(a, b int64) int { return cmp.Compare(b, a) })
		}
		sorted := slices.Clone(xs)
		slices.Sort(sorted)
		k := 1 + rng.Intn(n)
		if got := selectKth(slices.Clone(xs), k); got != sorted[k-1] {
			t.Fatalf("trial %d: selectKth(%v, %d) = %d, sort %d", trial, xs, k, got, sorted[k-1])
		}
	}
}

// TestRunConcurrentPooledState runs every engine configuration from 8
// goroutines at once over catalogs of different n and m, clean and with
// lists dying mid-run, so workspaces pass between runs of different shapes
// and engines. Every answer must match the full-scan reference over its
// surviving lists, and every Result (accounting, degradation annotation,
// intervals, certificate) must equal a serial run of the same case: the pool
// may neither leak state from one run into the next nor let a later run
// write into an earlier run's Result.
func TestRunConcurrentPooledState(t *testing.T) {
	type job struct {
		name   string
		in     []*ranking.PartialRanking
		spec   Spec
		deaths map[int]int
	}
	var jobs []job
	for i, sh := range []struct{ n, m, values int }{{40, 3, 4}, {200, 8, 6}, {600, 17, 8}, {90, 64, 5}} {
		in := randrank.CatalogEnsemble(rand.New(rand.NewSource(int64(10+i))), sh.n, sh.m, sh.values, 1, 0.05).Rankings
		for _, deaths := range []map[int]int{nil, {0: 3, sh.m - 1: 40}} {
			for _, gs := range guardSpecs {
				spec := gs.spec
				spec.K = 1 + (i*7)%10
				jobs = append(jobs, job{fmt.Sprintf("%dx%d/deaths=%v/%s", sh.n, sh.m, deaths, gs.name), in, spec, deaths})
			}
		}
	}
	run := func(j job) (*Result, error) {
		return runSpec(j.in, j.spec, func(i int, s faults.Source) faults.Source {
			if after, ok := j.deaths[i]; ok {
				return faults.Inject(s, faults.Plan{DeathAfter: after})
			}
			return s
		})
	}
	serial := make([]*Result, len(jobs))
	for i, j := range jobs {
		res, err := run(j)
		if err != nil {
			t.Fatalf("%s: %v", j.name, err)
		}
		serial[i] = res
	}

	const workers, rounds = 8, 2
	got := make([][]*Result, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			order := rand.New(rand.NewSource(int64(w))).Perm(len(jobs) * rounds)
			got[w] = make([]*Result, len(order))
			for i, o := range order {
				res, err := run(jobs[o%len(jobs)])
				if err != nil {
					errs[w] = fmt.Errorf("%s: %w", jobs[o%len(jobs)].name, err)
					return
				}
				got[w][i] = res
			}
		}(w)
	}
	wg.Wait()
	for w := 0; w < workers; w++ {
		if errs[w] != nil {
			t.Fatal(errs[w])
		}
		order := rand.New(rand.NewSource(int64(w))).Perm(len(jobs) * rounds)
		for i, o := range order {
			j, res, want := jobs[o%len(jobs)], got[w][i], serial[o%len(jobs)]
			checkReference(t, j.in, j.spec, res)
			if !reflect.DeepEqual(res, want) {
				t.Fatalf("worker %d, %s: result %+v, serial run %+v", w, j.name, res, want)
			}
		}
	}
}
