package topk

import (
	"context"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/aggregate"
	"repro/internal/faults"
	"repro/internal/randrank"
	"repro/internal/ranking"
	"repro/internal/telemetry"
)

var updateGolden = flag.Bool("update", false, "rewrite the testdata golden files")

// referenceMedians2 is the paper's full-scan reference: every element's
// doubled lower-median position over rankings, computed offline without any
// top-k engine.
func referenceMedians2(t *testing.T, rankings []*ranking.PartialRanking) []int64 {
	t.Helper()
	f4, err := aggregate.MedianScores2(rankings, aggregate.LowerMedian)
	if err != nil {
		t.Fatal(err)
	}
	med2 := make([]int64, len(f4))
	for e, v := range f4 {
		med2[e] = v / 2
	}
	return med2
}

// referenceTopK returns the k elements with the smallest doubled medians,
// ties broken by element ID.
func referenceTopK(med2 []int64, k int) []int {
	order := make([]int, len(med2))
	for e := range order {
		order[e] = e
	}
	sort.SliceStable(order, func(a, b int) bool { return med2[order[a]] < med2[order[b]] })
	return order[:k]
}

// survivorsOf drops the lists a degraded run lost.
func survivorsOf(in []*ranking.PartialRanking, res *Result) []*ranking.PartialRanking {
	if res.Degraded == nil {
		return in
	}
	var out []*ranking.PartialRanking
	for i, r := range in {
		if !slices.Contains(res.Degraded.Lost, i) {
			out = append(out, r)
		}
	}
	return out
}

// checkReference verifies a run against the full-scan reference over the
// lists that survived it: MEDRANK and TA must reproduce the winners and their
// medians exactly; NRA and CA certify the winner set, and each reported
// median is an upper bound on the true one.
func checkReference(t *testing.T, in []*ranking.PartialRanking, spec Spec, res *Result) {
	t.Helper()
	med2 := referenceMedians2(t, survivorsOf(in, res))
	want := referenceTopK(med2, spec.K)
	if spec.Algo == AlgoNRA || spec.Algo == AlgoCA {
		if got := sortedSet(res.Winners); !reflect.DeepEqual(got, sortedSet(want)) {
			t.Fatalf("%+v: winner set %v, reference %v", spec, got, sortedSet(want))
		}
		for i, w := range res.Winners {
			if res.Medians2[i] < med2[w] {
				t.Fatalf("%+v: median2 of %d reported %d below the reference %d", spec, w, res.Medians2[i], med2[w])
			}
		}
		return
	}
	if !reflect.DeepEqual(res.Winners, want) {
		t.Fatalf("%+v: winners %v, reference %v", spec, res.Winners, want)
	}
	for i, w := range res.Winners {
		if res.Medians2[i] != med2[w] {
			t.Fatalf("%+v: median2 of %d is %d, reference %d", spec, w, res.Medians2[i], med2[w])
		}
	}
}

// runSpec runs spec over in-memory rankings, each list optionally wrapped.
func runSpec(in []*ranking.PartialRanking, spec Spec, wrap faults.Wrapper) (*Result, error) {
	return RunRankings(context.Background(), spec, in, wrap)
}

// guardSpecs are the engine configurations the differential guard runs.
var guardSpecs = []struct {
	name string
	spec Spec
}{
	{"medrank_merge", Spec{Algo: AlgoMedRank, Policy: GlobalMerge}},
	{"medrank_roundrobin", Spec{Algo: AlgoMedRank, Policy: RoundRobin}},
	{"medrank_merge_buckets", Spec{Algo: AlgoMedRank, Policy: GlobalMergeBuckets}},
	{"medrank_roundrobin_buckets", Spec{Algo: AlgoMedRank, Policy: RoundRobinBuckets}},
	{"ta", Spec{Algo: AlgoTA}},
	{"ta_theta0", Spec{Algo: AlgoTA, Theta: 0}},
	{"nra", Spec{Algo: AlgoNRA}},
	{"ca_ratio1", Spec{Algo: AlgoCA, CostRatio: 1}},
	{"ca_ratio10", Spec{Algo: AlgoCA, CostRatio: 10}},
}

// guardPlans kill fixed lists after a fixed number of served accesses
// (sequential plus random); nil is the fault-free run.
var guardPlans = []struct {
	name       string
	deathAfter map[int]int // list -> accesses served before it dies
}{
	{"clean", nil},
	{"death_first", map[int]int{0: 1}},
	{"death_two", map[int]int{1: 30, 5: 120}},
}

// TestRunMatchesFullScanReference is the differential guard of the engine
// layer: every engine configuration, on the benchmark's two top-k catalog
// shapes (bench/workload.go) at several seeds and k, clean and under fixed
// list deaths, must agree with the full-scan reference over the surviving
// lists. The access accounting and lost lists of every run are pinned in
// testdata/run_access.golden, so a refactor that changes what an engine
// reads fails here even when its answers stay right.
func TestRunMatchesFullScanReference(t *testing.T) {
	shapes := []struct {
		name          string
		n, m, nValues int
	}{
		{"mixed", 1000, 16, 6},
		{"overload", 2000, 32, 8},
	}
	var got strings.Builder
	for _, sh := range shapes {
		for _, seed := range []int64{1, 2} {
			in := randrank.CatalogEnsemble(rand.New(rand.NewSource(seed)), sh.n, sh.m, sh.nValues, 1, 0.05).Rankings
			for _, k := range []int{1, 5, 10} {
				for _, plan := range guardPlans {
					wrap := func(i int, s faults.Source, _ *telemetry.AccessAccountant) faults.Source {
						if after, ok := plan.deathAfter[i]; ok {
							return faults.Inject(s, faults.Plan{DeathAfter: after})
						}
						return s
					}
					for _, gs := range guardSpecs {
						spec := gs.spec
						spec.K = k
						name := fmt.Sprintf("%s/seed%d/k%d/%s/%s", sh.name, seed, k, plan.name, gs.name)
						res, err := runSpec(in, spec, wrap)
						if err != nil {
							t.Fatalf("%s: %v", name, err)
						}
						checkReference(t, in, spec, res)
						var lost []int
						if res.Degraded != nil {
							lost = res.Degraded.Lost
						}
						st := res.Stats
						fmt.Fprintf(&got, "%s sequential=%d random=%d bucket_ios=%d max_depth=%d failed=%d retried=%d lost=%v per_list=%v bucket_per_list=%v random_per_list=%v\n",
							name, st.Total, st.Random, st.TotalBucketProbes, st.MaxDepth, st.Failed, st.Retried,
							lost, st.PerList, st.BucketProbes, st.RandomPerList)
					}
				}
			}
		}
	}
	path := filepath.Join("testdata", "run_access.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	gotLines, wantLines := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	for i := range gotLines {
		if i >= len(wantLines) || gotLines[i] != wantLines[i] {
			var w string
			if i < len(wantLines) {
				w = wantLines[i]
			}
			t.Fatalf("access accounting drifted from %s at line %d:\n got %s\nwant %s", path, i+1, gotLines[i], w)
		}
	}
	if len(wantLines) != len(gotLines) {
		t.Fatalf("%s has %d lines, the runs produced %d", path, len(wantLines), len(gotLines))
	}
}
