package telemetry

import (
	"encoding/json"
	"fmt"
	"strings"
	"testing"
)

// withEnabled runs f with telemetry forced on, restoring the previous state.
func withEnabled(t *testing.T, f func()) {
	t.Helper()
	was := Enabled()
	Enable()
	defer func() {
		if !was {
			Disable()
		}
	}()
	f()
}

func TestCounterGatedOnEnabled(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test.gated")
	was := Enabled()
	Disable()
	c.Inc()
	c.Add(10)
	if was {
		Enable()
	}
	if c.Value() != 0 {
		t.Errorf("disabled counter recorded %d, want 0", c.Value())
	}
	withEnabled(t, func() {
		c.Inc()
		c.Add(4)
	})
	if c.Value() != 5 {
		t.Errorf("enabled counter = %d, want 5", c.Value())
	}
}

// Supervision counters must record through a disabled registry: a contained
// panic is an operational fact, not a trace sample.
func TestCounterForcePathsIgnoreGate(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test.forced")
	was := Enabled()
	Disable()
	c.ForceInc()
	c.ForceAdd(9)
	if was {
		Enable()
	}
	if c.Value() != 10 {
		t.Errorf("forced counter = %d, want 10 with telemetry disabled", c.Value())
	}
}

func TestCounterGetOrCreate(t *testing.T) {
	r := NewRegistry()
	if r.Counter("x") != r.Counter("x") {
		t.Error("same name returned distinct counters")
	}
	if r.Counter("x") == r.Counter("y") {
		t.Error("distinct names returned the same counter")
	}
	if r.Histogram("x") != r.Histogram("x") {
		t.Error("same name returned distinct histograms")
	}
}

func TestHistogramSummary(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("test.hist")
	withEnabled(t, func() {
		for v := int64(1); v <= 1000; v++ {
			h.Observe(v)
		}
		h.Observe(-5) // clamps to 0
	})
	s := h.Snapshot()
	if s.Count != 1001 {
		t.Fatalf("count = %d, want 1001", s.Count)
	}
	if s.Max != 1000 {
		t.Errorf("max = %d, want 1000", s.Max)
	}
	wantSum := int64(1000 * 1001 / 2)
	if s.Sum != wantSum {
		t.Errorf("sum = %d, want %d", s.Sum, wantSum)
	}
	// Quantiles are bucket upper bounds: p50 of 1..1000 lies in [500, 1023],
	// and the bound is clamped to the observed max.
	if s.P50 < 500 || s.P50 > 1000 {
		t.Errorf("p50 = %d, want in [500, 1000]", s.P50)
	}
	if s.P99 < 990 || s.P99 > 1000 {
		t.Errorf("p99 = %d, want in [990, 1000]", s.P99)
	}
	// q=0 returns the first non-empty bucket's bound: the clamped -5
	// observation lives in the zero bucket.
	if q := h.Quantile(0); q != 0 {
		t.Errorf("Quantile(0) = %d, want 0", q)
	}
}

func TestHistogramEmptyQuantile(t *testing.T) {
	r := NewRegistry()
	if q := r.Histogram("empty").Quantile(0.5); q != 0 {
		t.Errorf("empty quantile = %d, want 0", q)
	}
}

func TestSnapshotOmitsZeroAndMarshals(t *testing.T) {
	r := NewRegistry()
	r.Counter("zero")
	h := r.Histogram("used")
	withEnabled(t, func() {
		r.Counter("nonzero").Add(7)
		h.Observe(42)
	})
	s := r.Snapshot()
	if _, ok := s.Counters["zero"]; ok {
		t.Error("snapshot includes zero-valued counter")
	}
	if s.Counters["nonzero"] != 7 {
		t.Errorf("nonzero = %d, want 7", s.Counters["nonzero"])
	}
	if s.Histograms["used"].Count != 1 {
		t.Errorf("histogram count = %d, want 1", s.Histograms["used"].Count)
	}
	buf, err := json.Marshal(s)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var back Snapshot
	if err := json.Unmarshal(buf, &back); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if back.Counters["nonzero"] != 7 {
		t.Errorf("round-trip lost counter value: %v", back.Counters)
	}
}

func TestRegistryReset(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c")
	h := r.Histogram("h")
	withEnabled(t, func() {
		c.Add(3)
		h.Observe(9)
	})
	r.Reset()
	if c.Value() != 0 {
		t.Errorf("counter after reset = %d", c.Value())
	}
	if s := h.Snapshot(); s.Count != 0 || s.Sum != 0 || s.Max != 0 || s.P99 != 0 {
		t.Errorf("histogram after reset = %+v", s)
	}
}

func TestRegistryNames(t *testing.T) {
	r := NewRegistry()
	r.Counter("b")
	r.Counter("a")
	r.Histogram("c")
	got := r.Names()
	want := []string{"a", "b", "c"}
	if len(got) != len(want) {
		t.Fatalf("names = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("names = %v, want %v", got, want)
		}
	}
}

func TestCounterZeroAllocsDisabled(t *testing.T) {
	was := Enabled()
	Disable()
	defer func() {
		if was {
			Enable()
		}
	}()
	r := NewRegistry()
	c := r.Counter("alloc.probe")
	h := r.Histogram("alloc.probe")
	if allocs := testing.AllocsPerRun(100, func() {
		c.Inc()
		c.Add(3)
		h.Observe(17)
	}); allocs != 0 {
		t.Errorf("disabled instruments: %.1f allocs/op, want 0", allocs)
	}
}

// TestUnlabeledAndLabeledShareOneRegistry checks the zero-label convention:
// an unlabeled instrument is the single series of a family without keys, so
// it snapshots and renders next to labeled families, and the series iterator
// plus Merge recover a family's histogram across its labels.
func TestUnlabeledAndLabeledShareOneRegistry(t *testing.T) {
	r := NewRegistry()
	if r.Counter("runs") != r.CounterVec("runs", "").With() {
		t.Error("unlabeled counter is not the zero-label family's series")
	}
	lat := r.HistogramVec("lat_ns", "Latency.", "tenant")
	withEnabled(t, func() {
		r.Counter("runs").Add(2)
		lat.With("a").Observe(3)
		lat.With("a").Observe(100)
		lat.With("b").Observe(7000)
	})
	s := r.Snapshot()
	if s.Counters["runs"] != 2 || s.Histograms[`lat_ns{tenant="b"}`].Count != 1 {
		t.Errorf("snapshot = %+v", s)
	}

	var merged Histogram
	var tenants []string
	lat.Each(func(values []string, h *Histogram) {
		tenants = append(tenants, values[0])
		merged.Merge(h)
	})
	if fmt.Sprint(tenants) != "[a b]" {
		t.Errorf("Each visited %v, want [a b] in label order", tenants)
	}
	// Quantiles read the bucket holding the ⌈q·count⌉-th observation: the
	// median of {3, 100, 7000} is 100 (bucket edge 127), and p99 is the
	// slowest observation itself.
	ms := merged.Snapshot()
	if ms.Count != 3 || ms.Sum != 7103 || ms.Max != 7000 || ms.P50 != 127 || ms.P99 != 7000 {
		t.Errorf("merged = %+v", ms)
	}

	var b strings.Builder
	if err := r.WritePrometheus(&b, ""); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"# HELP runs Counter \"runs\".\n# TYPE runs counter\nruns 2\n",
		"# HELP lat_ns Latency.\n# TYPE lat_ns histogram\n",
		`lat_ns_count{tenant="b"} 1`,
	} {
		if !strings.Contains(b.String(), want) {
			t.Errorf("exposition missing %q:\n%s", want, b.String())
		}
	}
	if probs := LintExposition(strings.NewReader(b.String())); len(probs) != 0 {
		t.Errorf("lint problems: %v", probs)
	}
}
