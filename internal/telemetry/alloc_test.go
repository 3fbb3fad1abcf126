package telemetry

import (
	"context"
	"runtime"
	"testing"
)

// bytesPerRun is testing.AllocsPerRun for heap bytes: the mean TotalAlloc
// growth of one call of f over runs calls, after one warm-up call.
func bytesPerRun(runs int, f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}

// TestUnsampledSpanAllocCeiling pins what one span outside a sampled request
// costs with telemetry on: the pprof label context, the ring-buffer event and
// the "span.<name>" histogram lookup in End. A new allocation on this path is
// paid by every instrumented engine run and request phase.
func TestUnsampledSpanAllocCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector adds allocations")
	}
	const maxAllocs, maxBytes = 4, 128
	withEnabled(t, func() {
		ctx := context.Background()
		span := func() {
			_, sp := Start(ctx, "alloc.ceiling")
			sp.End()
		}
		if got := testing.AllocsPerRun(500, span); got > maxAllocs {
			t.Errorf("unsampled span: %.0f allocs, ceiling %d", got, maxAllocs)
		}
		if got := bytesPerRun(500, span); got > maxBytes {
			t.Errorf("unsampled span: %d B, ceiling %d B", got, maxBytes)
		}
	})
}
