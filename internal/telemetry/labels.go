package telemetry

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Labeled instruments: one metric family ("rankserve_requests_total") fanning
// out into series distinguished by label values ({tenant="acme",
// endpoint="topk", status="200"}). A vec owns its family's fixed label keys;
// With(values...) get-or-creates the series for one value tuple, and a family
// with no keys has exactly one series, With(). This is what lets per-tenant
// series share one family instead of requiring one registry per tenant.
//
// Series creation takes a lock; the returned instruments are plain atomic
// Counter/Gauge/Histogram values, so hot paths that cache the series pointer
// pay no lookup at all.

// Gauge is a settable instrument (current value, not monotone). Unlike
// Counter it is NOT gated on Enabled(): gauges track states (tenant count,
// in-flight requests) whose bookkeeping must not drift with the telemetry
// switch — a request admitted while disabled still has to decrement on the
// way out.
type Gauge struct {
	v atomic.Int64
}

// Set stores v.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add adds d (negative to decrement).
func (g *Gauge) Add(d int64) { g.v.Add(d) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// labelSep joins label values into a series key; 0x1f (ASCII unit separator)
// cannot collide with printable label values' own bytes ambiguously enough to
// matter for our controlled label sets (tenant names are admission-checked,
// endpoints and statuses are program constants).
const labelSep = "\x1f"

func seriesKey(vec string, keys, values []string) string {
	if len(values) != len(keys) {
		panic(fmt.Sprintf("telemetry: %s expects %d label values %v, got %d",
			vec, len(keys), keys, len(values)))
	}
	return strings.Join(values, labelSep)
}

// series pairs one value tuple with its instrument.
type series[T any] struct {
	values []string
	inst   *T
}

// vec is the shared shape of CounterVec/GaugeVec/HistogramVec: one family of
// a Registry.
type vec[T any] struct {
	name   string
	help   string
	keys   []string
	mu     sync.Mutex
	series map[string]*series[T]
}

func (v *vec[T]) with(values ...string) *T {
	k := seriesKey(v.name, v.keys, values)
	v.mu.Lock()
	defer v.mu.Unlock()
	s, ok := v.series[k]
	if !ok {
		s = &series[T]{values: append([]string(nil), values...), inst: new(T)}
		v.series[k] = s
	}
	return s.inst
}

// snapshot returns the series sorted by value tuple for deterministic
// exposition output.
func (v *vec[T]) snapshot() []*series[T] {
	v.mu.Lock()
	out := make([]*series[T], 0, len(v.series))
	for _, s := range v.series {
		out = append(out, s)
	}
	v.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		return strings.Join(out[i].values, labelSep) < strings.Join(out[j].values, labelSep)
	})
	return out
}

// Each calls f for every series of the family in label-value order, with the
// series' label values (one per key, in key order; callers must not modify
// them) and its instrument. Series created while Each runs may be missed.
func (v *vec[T]) Each(f func(values []string, inst *T)) {
	for _, s := range v.snapshot() {
		f(s.values, s.inst)
	}
}

// CounterVec is a counter family with fixed label keys.
type CounterVec struct{ *vec[Counter] }

// With returns the counter for the given label values (one per key, in key
// order), creating it on first use. Panics on arity mismatch.
func (v CounterVec) With(values ...string) *Counter { return v.with(values...) }

// GaugeVec is a gauge family with fixed label keys.
type GaugeVec struct{ *vec[Gauge] }

// With returns the gauge for the given label values; see CounterVec.With.
func (v GaugeVec) With(values ...string) *Gauge { return v.with(values...) }

// HistogramVec is a histogram family with fixed label keys.
type HistogramVec struct{ *vec[Histogram] }

// With returns the histogram for the given label values; see
// CounterVec.With.
func (v HistogramVec) With(values ...string) *Histogram { return v.with(values...) }
