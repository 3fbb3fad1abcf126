package topk

import (
	"context"
	"math/rand"
	"runtime"
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
// per run at k=10 with telemetry off. No engine allocates per probe or per
// round: a run allocates its state, its row slabs and the growth of its logs.
var engineSpecs = []struct {
	name    string
	spec    Spec
	ceiling float64
}{
	{"medrank_roundrobin", Spec{Algo: AlgoMedRank, K: 10, Policy: RoundRobin}, 146},
	{"medrank_merge", Spec{Algo: AlgoMedRank, K: 10, Policy: GlobalMerge}, 146},
	{"ta", Spec{Algo: AlgoTA, K: 10}, 76},
	{"nra", Spec{Algo: AlgoNRA, K: 10}, 134},
	{"ca_ratio10", Spec{Algo: AlgoCA, K: 10, CostRatio: 10}, 134},
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

// runAllocs is the mean allocation count of one run of spec over in under
// ctx, sources and accountant included.
func runAllocs(t *testing.T, ctx context.Context, in []*ranking.PartialRanking, spec Spec) float64 {
	t.Helper()
	return testing.AllocsPerRun(20, func() {
		acc := telemetry.NewAccessAccountant(len(in))
		if _, err := Run(ctx, spec, ListSources(in, acc, nil), acc); err != nil {
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
	in := engineShape()
	for _, c := range engineSpecs {
		got := runAllocs(t, context.Background(), in, c.spec)
		t.Logf("%s: %.0f allocs per run", c.name, got)
		if got > c.ceiling {
			t.Errorf("%s: %.0f allocs per run, ceiling %.0f", c.name, got, c.ceiling)
		}
	}
}

// TestEngineBytesManyListsFewElements runs each engine over 8192 lists of two
// elements. Position rows come from slabs that hold at most as many rows as
// the domain has elements; 64-row slabs would add 4 MB of rows no element can
// take to the 2.4 MB a run allocates here.
func TestEngineBytesManyListsFewElements(t *testing.T) {
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
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := runSpec(in, spec, nil); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		got := after.TotalAlloc - before.TotalAlloc
		t.Logf("%s: %d KiB per run", c.name, got>>10)
		if got > ceiling {
			t.Errorf("%s: %d KiB per run, ceiling %d KiB", c.name, got>>10, ceiling>>10)
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
