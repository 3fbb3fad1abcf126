// Command benchjson measures the retained allocating metric engines against
// the workspace kernels, plus the top-k engines over plain cursors and over
// the fallible-source stack (healthy, retrying, and degraded — including the
// interval-certification engines NRA and CA, BENCH_PR10.json), and writes the
// results as JSON, one record per benchmark with ns/op, bytes/op, and
// allocs/op. It exists so allocation and resilience-overhead regressions show
// up as a diffable artifact (BENCH_PR1.json, BENCH_PR3.json) rather than only
// in ad-hoc `go test -bench` output.
//
// It also measures the pairwise-distance cache on a duplicate-heavy ensemble
// (-dup distinct rankings cloned out to m voters): matrix sweeps and
// best-of-inputs scoring with and without memoization, with the cache's
// hit/miss/eviction counters — cross-checked against the telemetry registry
// mirrors — reported in a "cache" section of the artifact (BENCH_PR5.json).
//
// The "telemetry_overhead" section prices the tracing layer on the MedRank
// source engine: telemetry disabled (baseline), enabled with no trace in the
// context (the unsampled fast path every production request pays), and
// enabled with a sampled trace collecting the full span tree. CI gates on
// unsampled_overhead staying under 5% (BENCH_PR7.json).
//
// Usage:
//
//	benchjson [-out BENCH_PR1.json] [-n 1000] [-m 64] [-maxbucket 6] [-seed 42] [-dup 8]
//
// With no -out flag the JSON goes to stdout.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"testing"

	"repro/internal/aggregate"
	"repro/internal/cache"
	"repro/internal/envstamp"
	"repro/internal/faults"
	"repro/internal/metrics"
	"repro/internal/randrank"
	"repro/internal/ranking"
	"repro/internal/telemetry"
	"repro/internal/topk"
)

type record struct {
	Name        string  `json:"name"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
}

// report is the top-level JSON document. Schema:
//
//   - go_version, gomaxprocs, commit: the environment stamp, so two artifact
//     files are only compared when they come from comparable runs. commit is
//     the vcs revision baked in by the Go linker ("+dirty" appended when the
//     worktree had uncommitted changes), empty when built outside a checkout.
//   - n, m, max_bucket, seed: the workload parameters.
//   - benchmarks: one record per engine, with ns/op averaged over the
//     iteration count testing.Benchmark settled on.
type report struct {
	envstamp.Stamp
	N           int          `json:"n"`
	M           int          `json:"m"`
	MaxBucket   int          `json:"max_bucket"`
	Seed        int64        `json:"seed"`
	DupDistinct int          `json:"dup_distinct"`
	Benchmarks  []record     `json:"benchmarks"`
	Cache       *cacheReport `json:"cache,omitempty"`

	TelemetryOverhead *overheadReport `json:"telemetry_overhead,omitempty"`
}

// overheadReport prices the tracing layer on one engine op (MedRank over
// healthy sources). The overheads are fractions relative to the disabled
// baseline: (mode - baseline) / baseline, so 0.05 means 5% slower. Negative
// values are measurement noise on an overhead too small to resolve.
type overheadReport struct {
	BaselineNsPerOp   float64 `json:"baseline_ns_per_op"`
	UnsampledNsPerOp  float64 `json:"unsampled_ns_per_op"`
	SampledNsPerOp    float64 `json:"sampled_ns_per_op"`
	UnsampledOverhead float64 `json:"unsampled_overhead"`
	SampledOverhead   float64 `json:"sampled_overhead"`
}

// cacheReport summarizes the distance cache's behavior over the dup_* cache
// benchmarks: the per-cache counters, the derived hit rate, and the telemetry
// registry's gated mirrors (deltas over the same window, as an independent
// cross-check that instrumentation is wired through).
type cacheReport struct {
	cache.Stats
	HitRate         float64 `json:"hit_rate"`
	TelemetryHits   int64   `json:"telemetry_hits"`
	TelemetryMisses int64   `json:"telemetry_misses"`
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("benchjson", flag.ContinueOnError)
	out := fs.String("out", "", "write JSON to this file instead of stdout")
	n := fs.Int("n", 1000, "domain size of each ranking")
	m := fs.Int("m", 64, "ensemble size for the matrix/sum sweeps")
	maxBucket := fs.Int("maxbucket", 6, "bucket-size cap of the random bucket orders")
	seed := fs.Int64("seed", 42, "random seed")
	dup := fs.Int("dup", 8, "distinct rankings in the duplicate-heavy cache ensemble")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *n < 1 || *m < 2 || *maxBucket < 1 || *dup < 1 {
		return fmt.Errorf("need n >= 1, m >= 2, maxbucket >= 1, dup >= 1")
	}
	// Create the output file before the benchmarks run, so a bad path fails
	// in milliseconds rather than after a minute of measurement.
	dst := stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		dst = f
	}

	rng := rand.New(rand.NewSource(*seed))
	ens := make([]*ranking.PartialRanking, *m)
	for i := range ens {
		ens[i] = randrank.Partial(rng, *n, *maxBucket)
	}
	a, b := ens[0], ens[1]

	kprofAlloc := func(x, y *ranking.PartialRanking) (float64, error) {
		pc, err := metrics.CountPairsAlloc(x, y)
		if err != nil {
			return 0, err
		}
		return metrics.KProfFromCounts(pc), nil
	}

	rep := report{
		Stamp:     envstamp.New(),
		N:         *n,
		M:         *m,
		MaxBucket: *maxBucket,
		Seed:      *seed,
	}
	var firstErr error
	bench := func(name string, body func() error) {
		if firstErr != nil {
			return
		}
		res := testing.Benchmark(func(tb *testing.B) {
			tb.ReportAllocs()
			for i := 0; i < tb.N; i++ {
				if err := body(); err != nil {
					firstErr = fmt.Errorf("%s: %w", name, err)
					tb.Fatal(err)
				}
			}
		})
		rep.Benchmarks = append(rep.Benchmarks, record{
			Name:        name,
			Iterations:  res.N,
			NsPerOp:     float64(res.T.Nanoseconds()) / float64(res.N),
			BytesPerOp:  res.AllocedBytesPerOp(),
			AllocsPerOp: res.AllocsPerOp(),
		})
	}

	ws := metrics.NewWorkspace()
	bench("countpairs/alloc", func() error { _, err := metrics.CountPairsAlloc(a, b); return err })
	bench("countpairs/workspace", func() error { _, err := ws.CountPairs(a, b); return err })
	bench("fhaus/refinement", func() error { _, err := metrics.FHausViaRefinement(a, b); return err })
	bench("fhaus/workspace", func() error { _, err := ws.FHaus(a, b); return err })
	bench("distancematrix_kprof/alloc", func() error { _, err := metrics.DistanceMatrix(ens, kprofAlloc); return err })
	bench("distancematrix_kprof/workspace", func() error { _, err := metrics.DistanceMatrixWith(ens, metrics.KProfWS); return err })
	bench("sumdistance_kprof/alloc", func() error { _, err := aggregate.SumDistance(a, ens, kprofAlloc); return err })
	bench("sumdistance_kprof/workspace", func() error { _, err := aggregate.SumDistanceWith(ws, a, ens, metrics.KProfWS); return err })
	bench("compareall/workspace", func() error { _, err := metrics.CompareAll(ens); return err })

	// Top-k engine paths over list sources: healthy, and the fault paths
	// (retry absorption, list death + rebuild). Sources are stateful, so each
	// op builds its own stack.
	const topkM, topkK = 5, 10
	topkEns := randrank.CatalogEnsemble(rng, *n, topkM, 8, 1.0, 1.0).Rankings
	medrank := topk.Spec{Algo: topk.AlgoMedRank, K: topkK, Policy: topk.RoundRobin}
	runTopK := func(ctx context.Context, spec topk.Spec, planFor func(i int) *faults.Plan, retry bool) error {
		acc := telemetry.NewAccessAccountant(topkM)
		srcs := topk.ListSources(topkEns, acc, func(i int, s faults.Source) faults.Source {
			if plan := planFor(i); plan != nil {
				p := *plan
				p.Seed = *seed + int64(i)
				p.Sleeper = &faults.FakeSleeper{}
				s = faults.Inject(s, p)
			}
			if retry {
				pol := faults.DefaultRetryPolicy()
				pol.JitterSeed = *seed
				pol.Sleeper = &faults.FakeSleeper{}
				s = faults.WithRetry(s, pol, acc, i)
			}
			return s
		})
		_, err := topk.Run(ctx, spec, srcs, acc)
		return err
	}
	noPlan := func(int) *faults.Plan { return nil }
	// killFirst kills list 0 on its second access; the engine rebuilds over
	// the four survivors and finishes degraded.
	killFirst := func(i int) *faults.Plan {
		if i != 0 {
			return nil
		}
		return &faults.Plan{DeathAfter: 1}
	}
	ctx := context.Background()
	bench("medrank/source", func() error { return runTopK(ctx, medrank, noPlan, false) })
	bench("medrank/source_retry", func() error {
		return runTopK(ctx, medrank, func(int) *faults.Plan {
			return &faults.Plan{TransientRate: 0.02}
		}, true)
	})
	bench("medrank/source_degraded", func() error { return runTopK(ctx, medrank, killFirst, false) })
	bench("ta/source", func() error { return runTopK(ctx, topk.Spec{Algo: topk.AlgoTA, K: topkK}, noPlan, false) })
	bench("nra/source", func() error { return runTopK(ctx, topk.Spec{Algo: topk.AlgoNRA, K: topkK}, noPlan, false) })
	bench("nra/source_degraded", func() error {
		return runTopK(ctx, topk.Spec{Algo: topk.AlgoNRA, K: topkK}, killFirst, false)
	})
	bench("ca/source", func() error {
		return runTopK(ctx, topk.Spec{Algo: topk.AlgoCA, K: topkK, CostRatio: 10}, noPlan, false)
	})

	// Telemetry overhead: the same healthy MedRank op measured three ways.
	// This section must run before the cache section enables telemetry, so
	// the baseline really is the disabled fast path. benchNs reuses bench()
	// (the records land in the benchmarks list too) and hands back the ns/op
	// of the record it just appended.
	benchNs := func(name string, body func() error) float64 {
		bench(name, body)
		if firstErr != nil || len(rep.Benchmarks) == 0 {
			return 0
		}
		return rep.Benchmarks[len(rep.Benchmarks)-1].NsPerOp
	}
	medrankOp := func(opCtx context.Context) error { return runTopK(opCtx, medrank, noPlan, false) }
	telemetry.Disable()
	baselineNs := benchNs("telemetry/medrank_disabled", func() error {
		return medrankOp(ctx)
	})
	telemetry.Enable()
	unsampledNs := benchNs("telemetry/medrank_unsampled", func() error {
		return medrankOp(ctx)
	})
	var traceID uint64
	sampledNs := benchNs("telemetry/medrank_sampled", func() error {
		traceID++
		tctx := telemetry.WithTrace(ctx, traceID, true)
		if err := medrankOp(tctx); err != nil {
			return err
		}
		telemetry.FinishTrace(tctx, telemetry.TraceMeta{Endpoint: "bench"})
		return nil
	})
	if baselineNs > 0 {
		rep.TelemetryOverhead = &overheadReport{
			BaselineNsPerOp:   baselineNs,
			UnsampledNsPerOp:  unsampledNs,
			SampledNsPerOp:    sampledNs,
			UnsampledOverhead: (unsampledNs - baselineNs) / baselineNs,
			SampledOverhead:   (sampledNs - baselineNs) / baselineNs,
		}
	}

	// Duplicate-heavy cache benchmarks: -dup distinct Mallows voters cloned
	// out to m rankings. Clones are distinct structs with equal content, so
	// cache hits come from fingerprint equality, exactly as they would for
	// re-ingested votes in production. Telemetry is enabled first — both the
	// cached and uncached paths then pay the same instrumentation cost, and
	// the registry mirrors of the cache counters get exercised.
	rep.DupDistinct = *dup
	telemetry.Enable()
	base, _ := randrank.MallowsEnsemble(rng, *n, *dup, 1.0)
	dupEns := make([]*ranking.PartialRanking, *m)
	for i := range dupEns {
		dupEns[i] = base[rng.Intn(*dup)].Clone()
	}
	benchCache := cache.New(0)
	telHits := telemetry.GetCounter("cache.distance.hits")
	telMisses := telemetry.GetCounter("cache.distance.misses")
	telHits0, telMisses0 := telHits.Value(), telMisses.Value()
	cachedKProf := metrics.CachedKProf(benchCache)
	bench("distancematrix_kprof/dup_uncached", func() error {
		_, err := metrics.DistanceMatrixWith(dupEns, metrics.KProfWS)
		return err
	})
	bench("distancematrix_kprof/dup_cached", func() error {
		_, err := metrics.DistanceMatrixWith(dupEns, cachedKProf)
		return err
	})
	bench("bestofinputs_kprof/dup_serial", func() error {
		_, _, _, err := aggregate.BestOfInputsWith(ws, dupEns, metrics.KProfWS)
		return err
	})
	bench("bestofinputs_kprof/dup_parallel", func() error {
		_, _, _, err := aggregate.BestOfInputsParallel(dupEns, metrics.KProfWS)
		return err
	})
	bench("bestofinputs_kprof/dup_parallel_cached", func() error {
		_, _, _, err := aggregate.BestOfInputsParallel(dupEns, cachedKProf)
		return err
	})
	st := benchCache.Stats()
	rep.Cache = &cacheReport{
		Stats:           st,
		HitRate:         st.HitRate(),
		TelemetryHits:   telHits.Value() - telHits0,
		TelemetryMisses: telMisses.Value() - telMisses0,
	}
	if firstErr != nil {
		return firstErr
	}

	buf, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	buf = append(buf, '\n')
	_, err = dst.Write(buf)
	return err
}
