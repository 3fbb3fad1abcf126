package telemetry

import (
	"expvar"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter. Increments are gated
// on Enabled(), so a disabled counter costs one atomic load and never
// allocates; reads always return whatever was recorded while enabled.
type Counter struct {
	v atomic.Int64
}

// Inc adds one when telemetry is enabled.
func (c *Counter) Inc() {
	if enabled.Load() {
		c.v.Add(1)
	}
}

// Add adds d when telemetry is enabled.
func (c *Counter) Add(d int64) {
	if enabled.Load() {
		c.v.Add(d)
	}
}

// ForceInc adds one regardless of Enabled(). Reserve it for counts that
// operators must be able to read after the fact even when tracing was off —
// contained panics, dropped inputs, the service's request and overload
// tallies; ordinary hot-path instruments stay gated so disabled telemetry
// stays free.
func (c *Counter) ForceInc() { c.v.Add(1) }

// ForceAdd adds d regardless of Enabled(); see ForceInc.
func (c *Counter) ForceAdd(d int64) { c.v.Add(d) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// histBuckets is the fixed bucket count of a Histogram: bucket i holds
// observations v with bits.Len64(v) == i, i.e. exponential base-2 buckets
// [2^(i-1), 2^i). 65 buckets cover every non-negative int64.
const histBuckets = 65

// Histogram is a bounded, allocation-free histogram over non-negative int64
// observations (durations in nanoseconds, sizes, depths) with exponential
// base-2 buckets. Like Counter, observations are gated on Enabled().
type Histogram struct {
	count   atomic.Int64
	sum     atomic.Int64
	max     atomic.Int64
	buckets [histBuckets]atomic.Int64
}

// Observe records v when telemetry is enabled. Negative values clamp to 0.
func (h *Histogram) Observe(v int64) {
	if !enabled.Load() {
		return
	}
	if v < 0 {
		v = 0
	}
	h.buckets[bits.Len64(uint64(v))].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Merge adds every observation recorded in o to h, regardless of Enabled():
// it moves recorded state, it does not observe. Merging the series of a
// labeled family yields the family's histogram across those labels.
func (h *Histogram) Merge(o *Histogram) {
	for i := range h.buckets {
		h.buckets[i].Add(o.buckets[i].Load())
	}
	h.count.Add(o.count.Load())
	h.sum.Add(o.sum.Load())
	for m := o.max.Load(); ; {
		cur := h.max.Load()
		if m <= cur || h.max.CompareAndSwap(cur, m) {
			return
		}
	}
}

// Quantile returns an upper bound on the q-quantile (q in [0, 1]) of the
// recorded observations: the upper edge of the first bucket whose cumulative
// count reaches ⌈q·count⌉, clamped to the observed maximum, the same bucket
// QuantileFromBuckets picks from a scrape. Returns 0 when empty.
func (h *Histogram) Quantile(q float64) int64 {
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	need := int64(math.Ceil(q * float64(total)))
	if need < 1 {
		need = 1
	}
	var cum int64
	for i := 0; i < histBuckets; i++ {
		cum += h.buckets[i].Load()
		if cum >= need {
			hi := int64(1)<<uint(i) - 1 // upper edge of bucket i
			if m := h.max.Load(); hi > m {
				hi = m
			}
			return hi
		}
	}
	return h.max.Load()
}

// HistogramSnapshot is the JSON form of one histogram.
type HistogramSnapshot struct {
	Count int64   `json:"count"`
	Sum   int64   `json:"sum"`
	Mean  float64 `json:"mean"`
	Max   int64   `json:"max"`
	P50   int64   `json:"p50"`
	P90   int64   `json:"p90"`
	P99   int64   `json:"p99"`
}

// Snapshot returns the histogram's current summary.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Count: h.count.Load(),
		Sum:   h.sum.Load(),
		Max:   h.max.Load(),
		P50:   h.Quantile(0.50),
		P90:   h.Quantile(0.90),
		P99:   h.Quantile(0.99),
	}
	if s.Count > 0 {
		s.Mean = float64(s.Sum) / float64(s.Count)
	}
	return s
}

// Registry is a named collection of instrument families. A family is a
// counter, gauge, or histogram name with fixed label keys; each tuple of label
// values is one series of it (see CounterVec). An unlabeled instrument is a
// family with zero label keys and its single series, so the process-wide
// "topk.medrank.runs" counter and the service's
// rankserve_requests_total{tenant,endpoint,status} family live in the same
// type, snapshot the same way, and render through one WritePrometheus.
//
// Families are get-or-create by name, so independent packages can bind
// package-level instrument variables at init time and share the process-wide
// view. Re-declaring a family with different label keys panics: a family's
// schema is fixed for the life of the process, and a silent second schema
// would corrupt the exposition.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*vec[Counter]
	gauges   map[string]*vec[Gauge]
	hists    map[string]*vec[Histogram]
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*vec[Counter]),
		gauges:   make(map[string]*vec[Gauge]),
		hists:    make(map[string]*vec[Histogram]),
	}
}

// Default is the process-wide registry used by the package-level Counter and
// Histogram helpers and by PublishExpvar.
var Default = NewRegistry()

// Counter returns the registry's unlabeled counter with the given name,
// creating it on first use.
func (r *Registry) Counter(name string) *Counter { return r.CounterVec(name, "").With() }

// Histogram returns the registry's unlabeled histogram with the given name,
// creating it on first use.
func (r *Registry) Histogram(name string) *Histogram { return r.HistogramVec(name, "").With() }

// GetCounter is Counter on the default registry.
func GetCounter(name string) *Counter { return Default.Counter(name) }

// GetHistogram is Histogram on the default registry.
func GetHistogram(name string) *Histogram { return Default.Histogram(name) }

// CounterVec returns the registry's counter family with the given name,
// creating it with the given help text and label keys on first use.
func (r *Registry) CounterVec(name, help string, keys ...string) CounterVec {
	return CounterVec{family(r, r.counters, name, help, keys)}
}

// GaugeVec returns the registry's gauge family with the given name; see
// CounterVec.
func (r *Registry) GaugeVec(name, help string, keys ...string) GaugeVec {
	return GaugeVec{family(r, r.gauges, name, help, keys)}
}

// HistogramVec returns the registry's histogram family with the given name;
// see CounterVec.
func (r *Registry) HistogramVec(name, help string, keys ...string) HistogramVec {
	return HistogramVec{family(r, r.hists, name, help, keys)}
}

// family get-or-creates the family name in m, one of r's maps. The help
// text is kept from the first declaration; the label keys must match it.
func family[T any](r *Registry, m map[string]*vec[T], name, help string, keys []string) *vec[T] {
	r.mu.Lock()
	defer r.mu.Unlock()
	v, ok := m[name]
	if !ok {
		v = &vec[T]{name: name, help: help, keys: append([]string(nil), keys...), series: make(map[string]*series[T])}
		m[name] = v
		return v
	}
	if !slices.Equal(v.keys, keys) {
		panic(fmt.Sprintf("telemetry: family %s re-declared with keys %v (was %v)", name, keys, v.keys))
	}
	return v
}

// sortedFamilies returns m's families in name order, for deterministic
// snapshots and exposition. Caller holds the registry lock.
func sortedFamilies[T any](m map[string]*vec[T]) []*vec[T] {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	out := make([]*vec[T], len(names))
	for i, n := range names {
		out[i] = m[n]
	}
	return out
}

// Snapshot is a point-in-time JSON-marshalable view of a registry: counter
// values and histogram summaries keyed by name, zero-valued instruments
// omitted for compactness. A labeled series is keyed by its family name and
// label set as the exposition renders them (name{k="v"}).
type Snapshot struct {
	Counters   map[string]int64             `json:"counters"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
}

// Snapshot captures the registry's current state.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	counters, hists := sortedFamilies(r.counters), sortedFamilies(r.hists)
	r.mu.Unlock()
	s := Snapshot{
		Counters:   make(map[string]int64, len(counters)),
		Histograms: make(map[string]HistogramSnapshot, len(hists)),
	}
	for _, v := range counters {
		v.Each(func(values []string, c *Counter) {
			if x := c.Value(); x != 0 {
				s.Counters[v.name+formatLabels(v.keys, values)] = x
			}
		})
	}
	for _, v := range hists {
		v.Each(func(values []string, h *Histogram) {
			if hs := h.Snapshot(); hs.Count != 0 {
				s.Histograms[v.name+formatLabels(v.keys, values)] = hs
			}
		})
	}
	return s
}

// Names returns the sorted names of all registered families.
func (r *Registry) Names() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, 0, len(r.counters)+len(r.gauges)+len(r.hists))
	for n := range r.counters {
		names = append(names, n)
	}
	for n := range r.gauges {
		names = append(names, n)
	}
	for n := range r.hists {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Reset zeroes every counter and histogram series in the registry. Intended
// for tests and for per-run stats in command-line tools; instruments stay
// registered so bound package variables remain valid. Gauges track live
// state (tenant count, queue depth) and are left alone.
func (r *Registry) Reset() {
	r.mu.Lock()
	counters, hists := sortedFamilies(r.counters), sortedFamilies(r.hists)
	r.mu.Unlock()
	for _, v := range counters {
		v.Each(func(_ []string, c *Counter) { c.v.Store(0) })
	}
	for _, v := range hists {
		v.Each(func(_ []string, h *Histogram) {
			h.count.Store(0)
			h.sum.Store(0)
			h.max.Store(0)
			for i := range h.buckets {
				h.buckets[i].Store(0)
			}
		})
	}
}

var publishOnce sync.Once

// PublishExpvar publishes the default registry's snapshot and the trace ring
// buffer under the expvar name "rankties", so any net/http server with the
// expvar handler mounted exposes them at /debug/vars. expvar names are
// process-global and cannot be unpublished, so only the first call
// publishes; later calls are no-ops.
func PublishExpvar() {
	publishOnce.Do(func() {
		expvar.Publish("rankties", expvar.Func(func() any {
			return struct {
				Telemetry Snapshot `json:"telemetry"`
				Trace     []Event  `json:"trace"`
			}{Default.Snapshot(), TraceEvents()}
		}))
	})
}
