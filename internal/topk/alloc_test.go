package topk

import (
	"context"
	"math/rand"
	"runtime"
	"runtime/debug"
	"testing"

	"repro/internal/randrank"
	"repro/internal/ranking"
	"repro/internal/telemetry"
)

// engineShape is the catalog the engine allocation ceilings and benchmarks
// run on: five Zipf-categorical attributes of eight values over 1000 items.
func engineShape() []*ranking.PartialRanking {
	return randrank.CatalogEnsemble(rand.New(rand.NewSource(42)), 1000, 5, 8, 1, 1).Rankings
}

// engineSpecs are the engines the ceilings pin, each with its allocations
// per warm run at k=10 with telemetry off. No engine allocates per probe or
// per round, and a run takes its state from the pooled workspace: a warm run
// allocates its sources, its accountant and its answer.
var engineSpecs = []struct {
	name    string
	spec    Spec
	ceiling float64
}{
	{"medrank_roundrobin", Spec{Algo: AlgoMedRank, K: 10, Policy: RoundRobin}, 31},
	{"medrank_merge", Spec{Algo: AlgoMedRank, K: 10, Policy: GlobalMerge}, 31},
	{"ta", Spec{Algo: AlgoTA, K: 10}, 32},
	{"nra", Spec{Algo: AlgoNRA, K: 10}, 32},
	{"ca_ratio10", Spec{Algo: AlgoCA, K: 10, CostRatio: 10}, 32},
}

// setTelemetry switches gated telemetry on or off for the rest of the test
// and restores the previous setting when it ends.
func setTelemetry(t testing.TB, on bool) {
	t.Helper()
	was := telemetry.Enabled()
	t.Cleanup(func() {
		if was {
			telemetry.Enable()
		} else {
			telemetry.Disable()
		}
	})
	if on {
		telemetry.Enable()
	} else {
		telemetry.Disable()
	}
}

// pauseGC stops the collector until the test ends. A collection empties
// sync.Pool, so a measurement that spans two of them counts a cold run among
// the warm runs it pins.
func pauseGC(t testing.TB) {
	was := debug.SetGCPercent(-1)
	t.Cleanup(func() { debug.SetGCPercent(was) })
}

// runAllocs is the mean allocation count of one warm run of spec over in
// under ctx, sources and accountant included.
func runAllocs(t *testing.T, ctx context.Context, in []*ranking.PartialRanking, spec Spec) float64 {
	t.Helper()
	return testing.AllocsPerRun(20, func() {
		acc := telemetry.NewAccessAccountant(len(in))
		if _, err := Run(ctx, spec, listSources(in, acc, nil), acc); err != nil {
			t.Fatal(err)
		}
	})
}

// TestEngineAllocCeilings pins each engine's allocations per run. Counts are
// exact where timings are noisy, so a new allocation per probe fails here
// even when no latency benchmark could resolve it.
func TestEngineAllocCeilings(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector adds allocations")
	}
	setTelemetry(t, false)
	pauseGC(t)
	in := engineShape()
	for _, c := range engineSpecs {
		got := runAllocs(t, context.Background(), in, c.spec)
		t.Logf("%s: %.0f allocs per run", c.name, got)
		if got > c.ceiling {
			t.Errorf("%s: %.0f allocs per run, ceiling %.0f", c.name, got, c.ceiling)
		}
	}
}

// TestEngineBytesAllocCeiling runs each engine over 8192 lists of two
// elements on a fresh workspace, so the bytes counted are the rows a run
// carves, not rows a warm workspace hands out again. Position rows come from
// slabs that hold at most as many rows as the domain has elements; 64-row
// slabs would add 4 MB of rows no element can take to the 0.9–1.9 MB a cold
// run allocates here.
func TestEngineBytesAllocCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector adds allocations")
	}
	setTelemetry(t, false)
	const m, ceiling = 8192, 3 << 20
	in := make([]*ranking.PartialRanking, m)
	for i := range in {
		in[i] = ranking.MustFromOrder([]int{i % 2, 1 - i%2})
	}
	for _, c := range engineSpecs {
		spec := c.spec
		spec.K = 1
		acc := telemetry.NewAccessAccountant(m)
		srcs := listSources(in, acc, nil)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := new(workspace).run(context.Background(), spec, srcs, acc); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		got := after.TotalAlloc - before.TotalAlloc
		t.Logf("%s: %d KiB per cold run", c.name, got>>10)
		if got > ceiling {
			t.Errorf("%s: %d KiB per cold run, ceiling %d KiB", c.name, got>>10, ceiling>>10)
		}
	}
}

// servedSpecs are the engines the service runs, MEDRANK under its
// GlobalMerge policy, at k=10, with their bytes per warm run on
// overload-deadline's catalog (servedShapes' "2000x32x8"). Most of them are
// the answer's top-k list over all 2000 elements; the engines' state comes
// from the workspace. A cold run there allocated 1.1–1.3 MB before the
// state was pooled.
var servedSpecs = []struct {
	name    string
	spec    Spec
	ceiling uint64
}{
	{"medrank_merge", Spec{Algo: AlgoMedRank, K: 10, Policy: GlobalMerge}, 43248},
	{"ta", Spec{Algo: AlgoTA, K: 10}, 43288},
	{"nra", Spec{Algo: AlgoNRA, K: 10}, 43400},
	{"ca_ratio10", Spec{Algo: AlgoCA, K: 10, CostRatio: 10}, 43400},
}

// servedShapes are the top-k catalogs the repository benchmark serves:
// topk-mixed's and overload-deadline's.
func servedShapes() []struct {
	name string
	in   []*ranking.PartialRanking
} {
	return []struct {
		name string
		in   []*ranking.PartialRanking
	}{
		{"1000x16x6", randrank.CatalogEnsemble(rand.New(rand.NewSource(1)), 1000, 16, 6, 1, 0.05).Rankings},
		{"2000x32x8", randrank.CatalogEnsemble(rand.New(rand.NewSource(1)), 2000, 32, 8, 1, 0.05).Rankings},
	}
}

// TestEngineServedBytesAllocCeiling pins the bytes of one warm run of each
// engine on overload-deadline's catalog: what a run allocates once the
// workspace holds its state, sources and accountant included. Like
// testing.AllocsPerRun it runs on one P: sync.Pool keeps a workspace per P,
// so a run that moved to another P would start cold.
func TestEngineServedBytesAllocCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector adds allocations")
	}
	setTelemetry(t, false)
	pauseGC(t)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	in := servedShapes()[1].in
	const runs = 20
	for _, c := range servedSpecs {
		run := func() {
			acc := telemetry.NewAccessAccountant(len(in))
			if _, err := Run(context.Background(), c.spec, listSources(in, acc, nil), acc); err != nil {
				t.Fatal(err)
			}
		}
		run() // warm the workspace
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			run()
		}
		runtime.ReadMemStats(&after)
		got := (after.TotalAlloc - before.TotalAlloc) / runs
		t.Logf("%s: %d bytes per warm run", c.name, got)
		if got > c.ceiling {
			t.Errorf("%s: %d bytes per warm run, ceiling %d", c.name, got, c.ceiling)
		}
	}
}

// TestUnsampledTracingAllocCeiling pins what telemetry adds to an engine run
// inside an unsampled request, the path every production request takes: the
// engine span, its pprof labels and the run counters.
func TestUnsampledTracingAllocCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector adds allocations")
	}
	const maxExtra = 9
	setTelemetry(t, false)
	pauseGC(t)
	in := engineShape()
	unsampled := telemetry.WithTrace(context.Background(), 1, false)
	for _, c := range engineSpecs {
		telemetry.Disable()
		off := runAllocs(t, context.Background(), in, c.spec)
		telemetry.Enable()
		on := runAllocs(t, unsampled, in, c.spec)
		t.Logf("%s: %.0f extra allocs per run", c.name, on-off)
		if on-off > maxExtra {
			t.Errorf("%s: unsampled tracing adds %.0f allocs per run (%.0f on, %.0f off), ceiling %d",
				c.name, on-off, on, off, maxExtra)
		}
	}
}
