package telemetry

import (
	"math"
	"sync"
	"testing"
)

func TestAccountantCountsWithoutTelemetry(t *testing.T) {
	// Access accounting is part of the engines' semantics: it must count
	// even when gated telemetry is disabled.
	was := Enabled()
	Disable()
	defer func() {
		if was {
			Enable()
		}
	}()
	a := NewAccessAccountant(3)
	if a.Lists() != 3 {
		t.Fatalf("Lists = %d, want 3", a.Lists())
	}
	a.Sequential(0)
	a.Sequential(0)
	a.Sequential(2)
	a.BucketIO(0)
	a.Random(1)
	a.Random(1)
	a.Random(1)
	r := a.Report()
	if r.Sequential != 3 || r.Random != 3 || r.BucketIOs != 1 {
		t.Errorf("report = %+v, want 3 sequential, 3 random, 1 bucket I/O", r)
	}
	if r.MaxDepth != 2 {
		t.Errorf("max depth = %d, want 2", r.MaxDepth)
	}
	if r.PerList[0] != 2 || r.PerList[1] != 0 || r.PerList[2] != 1 {
		t.Errorf("per-list = %v", r.PerList)
	}
	if r.RandomPerList[1] != 3 {
		t.Errorf("random per-list = %v", r.RandomPerList)
	}
	if a.SequentialIn(0) != 2 {
		t.Errorf("SequentialIn(0) = %d, want 2", a.SequentialIn(0))
	}
}

func TestAccountantConcurrent(t *testing.T) {
	a := NewAccessAccountant(4)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				a.Sequential(w % 4)
				a.Random((w + 1) % 4)
			}
		}(w)
	}
	wg.Wait()
	r := a.Report()
	if r.Sequential != 8000 || r.Random != 8000 {
		t.Errorf("sequential = %d, random = %d, want 8000 each", r.Sequential, r.Random)
	}
}

func TestMiddlewareCostAndOptimality(t *testing.T) {
	a := NewAccessAccountant(2)
	for i := 0; i < 10; i++ {
		a.Sequential(0)
	}
	for i := 0; i < 5; i++ {
		a.Random(1)
	}
	r := a.Report()
	if got := r.MiddlewareCost(1, 3); got != 10+15 {
		t.Errorf("cost = %d, want 25", got)
	}
	if got := r.CostOptimalityRatio(1, 1, 5); math.Abs(got-3) > 1e-12 {
		t.Errorf("ratio = %v, want 3", got)
	}
	if got := r.CostOptimalityRatio(1, 1, 0); got != 0 {
		t.Errorf("ratio with zero bound = %v, want 0", got)
	}
}

func TestAccountantFailuresAndRetries(t *testing.T) {
	// Fault accounting shares the always-on regime of access counts: the
	// retry layer reports through it whether or not telemetry is enabled.
	a := NewAccessAccountant(3)
	a.Failure(0)
	a.Failure(0)
	a.Failure(2)
	a.Retry(0)
	a.Retry(2)
	r := a.Report()
	if r.Failed != 3 || r.Retried != 2 {
		t.Errorf("failed = %d, retried = %d, want 3 and 2", r.Failed, r.Retried)
	}
	if r.FailedPerList[0] != 2 || r.FailedPerList[1] != 0 || r.FailedPerList[2] != 1 {
		t.Errorf("failed per-list = %v", r.FailedPerList)
	}
	if r.RetriedPerList[0] != 1 || r.RetriedPerList[2] != 1 {
		t.Errorf("retried per-list = %v", r.RetriedPerList)
	}
	// Failures and retries are bookkeeping, not accesses: they must not
	// leak into the middleware cost model.
	if r.Sequential != 0 || r.Random != 0 || r.MiddlewareCost(1, 1) != 0 {
		t.Errorf("fault counts leaked into access counts: %+v", r)
	}
}
