package telemetry

import (
	"math"
	"strings"
	"testing"
)

func TestPromNameSanitize(t *testing.T) {
	cases := map[string]string{
		"span.topk.medrank":  "span_topk_medrank",
		"cache.distance-hit": "cache_distance_hit",
		"ok_name:total":      "ok_name:total",
		"9lives":             "_9lives",
		"a9":                 "a9",
	}
	for in, want := range cases {
		if got := promName(in); got != want {
			t.Errorf("promName(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestLabelValueEscaping(t *testing.T) {
	got := formatLabels([]string{"tenant"}, []string{"a\"b\\c\nd"})
	want := `{tenant="a\"b\\c\nd"}`
	if got != want {
		t.Errorf("formatLabels = %s, want %s", got, want)
	}
	// And the parser reverses it.
	labels, rest, err := parseLabels(strings.TrimPrefix(got, "{"))
	if err != nil || rest != "" || labels["tenant"] != "a\"b\\c\nd" {
		t.Errorf("parseLabels round trip = %v, %q, %v", labels, rest, err)
	}
}

func TestRegistryWritePrometheusLintsClean(t *testing.T) {
	withEnabled(t, func() {
		r := NewRegistry()
		r.Counter("queries.total").Add(17)
		h := r.Histogram("latency.ns")
		for _, v := range []int64{0, 1, 3, 7, 100, 5000, 5000, 1 << 20} {
			h.Observe(v)
		}
		var b strings.Builder
		if err := r.WritePrometheus(&b, "rankties."); err != nil {
			t.Fatal(err)
		}
		out := b.String()
		if !strings.Contains(out, "rankties_queries_total 17") {
			t.Errorf("counter sample missing:\n%s", out)
		}
		if !strings.Contains(out, "# TYPE rankties_latency_ns histogram") {
			t.Errorf("histogram TYPE missing:\n%s", out)
		}
		if probs := LintExposition(strings.NewReader(out)); len(probs) != 0 {
			t.Fatalf("lint problems: %v\n%s", probs, out)
		}
		// Base-2 mapping: v=0 lands in le="0"; v in [2,4) under le="3".
		exp, _ := ParseExposition(strings.NewReader(out))
		buckets, sum, count, ok := exp.Histogram("rankties_latency_ns", nil)
		if !ok {
			t.Fatal("histogram not parsed back")
		}
		if count != 8 || sum != 0+1+3+7+100+5000+5000+(1<<20) {
			t.Errorf("count=%v sum=%v", count, sum)
		}
		if buckets[0] != 1 {
			t.Errorf("le=0 cumulative = %v, want 1 (just v=0)", buckets[0])
		}
		if buckets[1] != 2 {
			t.Errorf("le=1 cumulative = %v, want 2", buckets[1])
		}
		if buckets[3] != 3 {
			t.Errorf("le=3 cumulative = %v, want 3", buckets[3])
		}
		if buckets[math.Inf(1)] != 8 {
			t.Errorf("+Inf = %v, want 8", buckets[math.Inf(1)])
		}
	})
}

func TestLabeledFamiliesWritePrometheusLintsClean(t *testing.T) {
	withEnabled(t, func() {
		lr := NewRegistry()
		req := lr.CounterVec("rankserve_requests_total", "Requests by tenant, endpoint, status.", "tenant", "endpoint", "status")
		req.With("acme", "topk", "200").Add(3)
		req.With("acme", "topk", "400").Add(1)
		req.With("beta", "aggregate", "200").Add(2)
		lr.GaugeVec("rankserve_tenants", "Live tenants.").With().Set(2)
		lat := lr.HistogramVec("rankserve_request_latency_ns", "Request latency.", "tenant", "endpoint")
		for i := int64(1); i <= 100; i++ {
			lat.With("acme", "topk").Observe(i * 1000)
		}
		lat.With("beta", "aggregate").Observe(5)

		var b strings.Builder
		if err := lr.WritePrometheus(&b, ""); err != nil {
			t.Fatal(err)
		}
		out := b.String()
		if probs := LintExposition(strings.NewReader(out)); len(probs) != 0 {
			t.Fatalf("lint problems: %v\n%s", probs, out)
		}
		for _, want := range []string{
			`rankserve_requests_total{tenant="acme",endpoint="topk",status="200"} 3`,
			`rankserve_requests_total{tenant="beta",endpoint="aggregate",status="200"} 2`,
			`rankserve_tenants 2`,
			`rankserve_request_latency_ns_count{tenant="acme",endpoint="topk"} 100`,
		} {
			if !strings.Contains(out, want) {
				t.Errorf("missing %q in:\n%s", want, out)
			}
		}
		// Histogram readable per label set, quantile consistent with the
		// in-process upper-bound quantile.
		exp, _ := ParseExposition(strings.NewReader(out))
		buckets, _, count, ok := exp.Histogram("rankserve_request_latency_ns", map[string]string{"tenant": "acme", "endpoint": "topk"})
		if !ok || count != 100 {
			t.Fatalf("acme histogram: ok=%v count=%v", ok, count)
		}
		// Both are bucket upper edges; the scrape-side edge is the raw
		// 2^i - 1 while the in-process one clamps to the observed max, so
		// they agree once the scrape edge is clamped the same way.
		h := lat.With("acme", "topk")
		for _, q := range []float64{0.50, 0.95, 0.99} {
			got := math.Min(QuantileFromBuckets(buckets, q), float64(h.Snapshot().Max))
			if want := float64(h.Quantile(q)); got != want {
				t.Errorf("p%.0f: scrape %v, in-process %v", 100*q, got, want)
			}
		}
	})
}

func TestLintCatchesMalformedExpositions(t *testing.T) {
	cases := map[string]string{
		"duplicate TYPE": `# TYPE x counter
# TYPE x counter
x 1
`,
		"duplicate series": `# TYPE x counter
x{a="1"} 1
x{a="1"} 2
`,
		"non-monotone buckets": `# TYPE h histogram
h_bucket{le="1"} 5
h_bucket{le="2"} 3
h_bucket{le="+Inf"} 5
h_sum 9
h_count 5
`,
		"missing +Inf": `# TYPE h histogram
h_bucket{le="1"} 5
h_sum 9
h_count 5
`,
		"inf != count": `# TYPE h histogram
h_bucket{le="1"} 5
h_bucket{le="+Inf"} 5
h_sum 9
h_count 6
`,
		"descending le": `# TYPE h histogram
h_bucket{le="3"} 1
h_bucket{le="1"} 1
h_bucket{le="+Inf"} 1
h_sum 1
h_count 1
`,
		"bad label name": `x{9bad="1"} 1
`,
		"bad value": `x notanumber
`,
		"unterminated labels": `x{a="1" 1
`,
	}
	for name, body := range cases {
		if probs := LintExposition(strings.NewReader(body)); len(probs) == 0 {
			t.Errorf("%s: lint found no problems in:\n%s", name, body)
		}
	}
	// A clean hand-written exposition passes.
	clean := `# HELP x Things.
# TYPE x counter
x{a="1"} 1
x{a="2"} 2
# TYPE g gauge
g 5
# TYPE h histogram
h_bucket{le="0"} 1
h_bucket{le="7"} 4
h_bucket{le="+Inf"} 4
h_sum 12
h_count 4
`
	if probs := LintExposition(strings.NewReader(clean)); len(probs) != 0 {
		t.Errorf("clean exposition flagged: %v", probs)
	}
}

func TestVecArityAndRedeclarePanics(t *testing.T) {
	lr := NewRegistry()
	v := lr.CounterVec("x_total", "X.", "a", "b")
	mustPanic(t, "arity", func() { v.With("only-one") })
	mustPanic(t, "redeclare", func() { lr.CounterVec("x_total", "X.", "a") })
	// Same keys: get-or-create returns the same family.
	v2 := lr.CounterVec("x_total", "X.", "a", "b")
	v2.With("1", "2").ForceAdd(5)
	if got := v.With("1", "2").Value(); got != 5 {
		t.Errorf("families not shared: %d", got)
	}
}

func mustPanic(t *testing.T, name string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s: no panic", name)
		}
	}()
	f()
}

func TestGaugeNotGatedOnEnabled(t *testing.T) {
	was := Enabled()
	Disable()
	defer func() {
		if was {
			Enable()
		}
	}()
	var g Gauge
	g.Add(3)
	g.Add(-1)
	if g.Value() != 2 {
		t.Errorf("disabled gauge = %d, want 2", g.Value())
	}
}
