package metrics

import (
	"math/rand"
	"testing"

	"repro/internal/randrank"
	"repro/internal/telemetry"
)

// TestWorkspacePoolReuse is the regression guard for the package-level
// metric functions' pooling: sequential calls must reuse the pooled
// workspace's scratch state instead of allocating a fresh one per call. The
// pool telemetry makes the reuse observable — a per-call allocation
// regression shows up as one pool miss per get.
func TestWorkspacePoolReuse(t *testing.T) {
	was := telemetry.Enabled()
	telemetry.Enable()
	defer func() {
		if !was {
			telemetry.Disable()
		}
	}()

	rng := rand.New(rand.NewSource(11))
	a := randrank.Partial(rng, 300, 5)
	b := randrank.Partial(rng, 300, 5)

	// Warm the pool: after this, one workspace with sized buffers is pooled.
	if _, err := CountPairs(a, b); err != nil {
		t.Fatal(err)
	}
	base := PoolStats()

	const calls = 50
	for i := 0; i < calls; i++ {
		if _, err := CountPairs(a, b); err != nil {
			t.Fatal(err)
		}
		if _, err := FHaus(a, b); err != nil {
			t.Fatal(err)
		}
	}
	st := PoolStats()
	gets := st.Gets - base.Gets
	puts := st.Puts - base.Puts
	misses := st.Misses - base.Misses

	if gets != 2*calls {
		t.Fatalf("pool gets = %d, want %d (one per package-level call)", gets, 2*calls)
	}
	if puts != gets {
		t.Errorf("pool puts = %d, want %d (every get must be returned)", puts, gets)
	}
	// A GC between iterations may legitimately drop the pooled workspace, so
	// allow a handful of misses — but a per-call regression means a miss for
	// every get, which must fail loudly. The race runtime deliberately
	// perturbs sync.Pool caching, so the reuse bound only holds unraced.
	if raceEnabled {
		t.Skip("sync.Pool reuse is not deterministic under the race detector")
	}
	if misses > gets/10 {
		t.Errorf("pool misses = %d of %d gets; sequential calls are not reusing the pooled workspace", misses, gets)
	}
}

// TestPoolStatsCountsKernels pins the kernel invocation counters alongside
// the pool counters: the package-level entry points must charge exactly one
// kernel invocation per call.
func TestPoolStatsCountsKernels(t *testing.T) {
	was := telemetry.Enabled()
	telemetry.Enable()
	defer func() {
		if !was {
			telemetry.Disable()
		}
	}()

	rng := rand.New(rand.NewSource(12))
	a := randrank.Partial(rng, 40, 4)
	b := randrank.Partial(rng, 40, 4)

	cp := telemetry.GetCounter("metrics.kernel.countpairs").Value()
	fh := telemetry.GetCounter("metrics.kernel.fhaus").Value()
	if _, err := CountPairs(a, b); err != nil {
		t.Fatal(err)
	}
	if _, err := FHaus(a, b); err != nil {
		t.Fatal(err)
	}
	if got := telemetry.GetCounter("metrics.kernel.countpairs").Value() - cp; got != 1 {
		t.Errorf("countpairs kernel counter advanced by %d, want 1", got)
	}
	if got := telemetry.GetCounter("metrics.kernel.fhaus").Value() - fh; got != 1 {
		t.Errorf("fhaus kernel counter advanced by %d, want 1", got)
	}
}
