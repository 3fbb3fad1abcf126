package service

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/telemetry"
)

// doReqH is doReq with request headers.
func doReqH(t *testing.T, method, url, body string, headers map[string]string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range headers {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, b
}

// TestForcedSamplingYieldsSpanTree is the tentpole acceptance check: a topk
// request with sampling forced must yield a retrievable span tree whose root
// carries the response header's trace ID, with an admission span, an engine
// span carrying AccessAccountant totals, and a cache span among the root's
// children.
func TestForcedSamplingYieldsSpanTree(t *testing.T) {
	telemetry.ResetRecentTraces()
	defer telemetry.ResetRecentTraces()
	_, ts := testServer(t, Config{})
	putCatalog(t, ts, "acme", "movies", corpus, "")

	resp, body := doReqH(t, http.MethodPost,
		ts.URL+"/v1/tenants/acme/catalogs/movies/topk",
		`{"k": 2}`, map[string]string{TraceSampleHeader: "1"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("topk = %d: %s", resp.StatusCode, body)
	}
	traceID := resp.Header.Get(TraceIDHeader)
	if len(traceID) != 16 {
		t.Fatalf("response %s header = %q, want 16 hex digits", TraceIDHeader, traceID)
	}
	if resp.Header.Get(TraceSampledNote) != "1" {
		t.Errorf("forced sampling did not set %s", TraceSampledNote)
	}

	// Retrieve the span tree over the debug surface, as an operator would.
	tresp, tbody := doReqH(t, http.MethodGet, ts.URL+"/debug/traces?trace_id="+traceID, "", nil)
	if tresp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/traces = %d: %s", tresp.StatusCode, tbody)
	}
	tr := decode[telemetry.Trace](t, tbody)
	if tr.TraceID != traceID || tr.Tenant != "acme" || tr.Endpoint != "topk" || tr.Status != 200 {
		t.Fatalf("trace meta = %+v", tr)
	}
	root, ok := tr.Root()
	if !ok || root.Name != "http.topk" {
		t.Fatalf("root = %+v, ok=%v", root, ok)
	}
	kids := map[string]telemetry.SpanRecord{}
	for _, k := range tr.Children(root.SpanID) {
		kids[k.Name] = k
	}
	if _, ok := kids["admission"]; !ok {
		t.Errorf("no admission span among root children: %v", kids)
	}
	eng, ok := kids["engine.medrank"]
	if !ok {
		t.Fatalf("no engine span among root children: %v", kids)
	}
	if eng.Attrs["sequential"] <= 0 {
		t.Errorf("engine span lacks AccessAccountant totals: %v", eng.Attrs)
	}
	if _, ok := kids["cache"]; !ok {
		t.Errorf("no cache span among root children: %v", kids)
	}
	// The kernel's own span nests under the engine span.
	if inner := tr.Children(eng.SpanID); len(inner) == 0 || inner[0].Name != "topk.medrank" {
		t.Errorf("engine children = %+v, want topk.medrank", inner)
	}
}

func TestTraceIDPropagationAndUnsampledPath(t *testing.T) {
	telemetry.ResetRecentTraces()
	defer telemetry.ResetRecentTraces()
	_, ts := testServer(t, Config{})
	putCatalog(t, ts, "acme", "movies", corpus, "")

	// A caller-minted trace ID is echoed back.
	const id = "00c0ffee00c0ffee"
	resp, _ := doReqH(t, http.MethodPost, ts.URL+"/v1/tenants/acme/catalogs/movies/topk",
		`{"k": 1}`, map[string]string{TraceIDHeader: id})
	if got := resp.Header.Get(TraceIDHeader); got != id {
		t.Errorf("echoed trace ID = %q, want %q", got, id)
	}
	// Rate 0, no force header: not sampled, no span tree retained.
	if resp.Header.Get(TraceSampledNote) != "" {
		t.Error("unsampled request marked sampled")
	}
	tresp, _ := doReqH(t, http.MethodGet, ts.URL+"/debug/traces?trace_id="+id, "", nil)
	if tresp.StatusCode != http.StatusNotFound {
		t.Errorf("unsampled trace retrievable: %d", tresp.StatusCode)
	}
}

func TestMetricsExpositionLintsCleanWithTenantSeries(t *testing.T) {
	_, ts := testServer(t, Config{})
	putCatalog(t, ts, "acme", "movies", corpus, "")
	putCatalog(t, ts, "globex", "films", corpus, "")
	for i := 0; i < 3; i++ {
		doReqH(t, http.MethodPost, ts.URL+"/v1/tenants/acme/catalogs/movies/topk", `{"k": 2}`, nil)
	}
	doReqH(t, http.MethodPost, ts.URL+"/v1/tenants/globex/catalogs/films/aggregate", `{}`, nil)
	doReqH(t, http.MethodPost, ts.URL+"/v1/tenants/acme/catalogs/movies/topk", `{"k": 0}`, nil) // 400

	resp, body := doReqH(t, http.MethodGet, ts.URL+"/metrics", "", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("Content-Type = %q", ct)
	}
	if probs := telemetry.LintExposition(bytes.NewReader(body)); len(probs) != 0 {
		t.Fatalf("exposition lint: %v", probs)
	}
	out := string(body)
	for _, want := range []string{
		`rankserve_requests_total{tenant="acme",endpoint="topk",status="200"} 3`,
		`rankserve_requests_total{tenant="acme",endpoint="topk",status="400"} 1`,
		`rankserve_request_latency_ns_count{tenant="acme",endpoint="topk"} 4`,
		`rankserve_request_latency_ns_bucket{tenant="globex",endpoint="aggregate",le=`,
		`rankserve_access_sequential_total{tenant="acme"}`,
		`rankserve_cache_misses_total{tenant="globex"}`,
		`rankserve_tenants 2`,
		`# TYPE rankserve_request_latency_ns histogram`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in /metrics", want)
		}
	}
	// Cross-check: scrape-side request count equals /stats' endpoint tally.
	exp, _ := telemetry.ParseExposition(bytes.NewReader(body))
	_, _, count, ok := exp.Histogram("rankserve_request_latency_ns", map[string]string{"tenant": "acme", "endpoint": "topk"})
	if !ok || count != 4 {
		t.Errorf("scraped acme/topk latency count = %v (ok=%v), want 4", count, ok)
	}
}

func TestAccessLogStructuredLines(t *testing.T) {
	var buf bytes.Buffer
	svc := New(Config{AccessLog: &buf})
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	putCatalog(t, ts, "acme", "movies", corpus, "")

	resp, _ := doReqH(t, http.MethodPost, ts.URL+"/v1/tenants/acme/catalogs/movies/topk",
		`{"k": 2}`, map[string]string{TraceSampleHeader: "1"})
	traceID := resp.Header.Get(TraceIDHeader)
	doReqH(t, http.MethodPost, ts.URL+"/v1/tenants/acme/catalogs/movies/aggregate", `{}`, nil)

	var topkLine, aggLine *accessLogLine
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		var line accessLogLine
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("bad access-log line %q: %v", sc.Text(), err)
		}
		switch {
		case line.Endpoint == "topk":
			l := line
			topkLine = &l
		case line.Endpoint == "aggregate":
			l := line
			aggLine = &l
		}
	}
	if topkLine == nil || aggLine == nil {
		t.Fatalf("missing log lines: topk=%v agg=%v in %q", topkLine, aggLine, buf.String())
	}
	if topkLine.TraceID != traceID || !topkLine.Sampled || topkLine.Tenant != "acme" ||
		topkLine.Status != 200 || topkLine.Sequential <= 0 || topkLine.LatencyNs <= 0 {
		t.Errorf("topk line = %+v", *topkLine)
	}
	if aggLine.CacheMisses <= 0 {
		t.Errorf("aggregate line did not attribute cache traffic: %+v", *aggLine)
	}
}

// TestStatsKeepsDeletedTenantRow checks that a deleted tenant's cache
// attribution stays in /stats, marked deleted, with the counts of its
// rankserve_cache_*_total series, so churn-heavy load runs don't
// under-report.
func TestStatsKeepsDeletedTenantRow(t *testing.T) {
	svc, ts := testServer(t, Config{})
	putCatalog(t, ts, "doomed", "movies", corpus, "")
	// Two aggregates: first misses fill the cache, second hits it.
	doReqH(t, http.MethodPost, ts.URL+"/v1/tenants/doomed/catalogs/movies/aggregate", `{}`, nil)
	doReqH(t, http.MethodPost, ts.URL+"/v1/tenants/doomed/catalogs/movies/aggregate", `{}`, nil)
	resp, _ := doReqH(t, http.MethodDelete, ts.URL+"/v1/tenants/doomed", "", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("delete tenant = %d", resp.StatusCode)
	}

	_, body := doReqH(t, http.MethodGet, ts.URL+"/stats", "", nil)
	stats := decode[StatsResponse](t, body)
	var row *TenantStats
	for i := range stats.Tenants {
		if stats.Tenants[i].Name == "doomed" {
			row = &stats.Tenants[i]
		}
	}
	if row == nil {
		t.Fatalf("deleted tenant missing from first post-delete snapshot: %+v", stats.Tenants)
	}
	if !row.Deleted {
		t.Errorf("row not marked deleted: %+v", *row)
	}
	if row.CacheHits <= 0 || row.CacheMisses <= 0 {
		t.Errorf("deleted row lost attribution: %+v", *row)
	}
	// Percentiles self-reported for served endpoints.
	if ep := stats.Endpoints["aggregate"]; ep.Requests < 2 || ep.P50Ns <= 0 || ep.P99Ns < ep.P50Ns {
		t.Errorf("aggregate endpoint stats = %+v", ep)
	}

	// Second snapshot: the row is still there, marked deleted, with the
	// families' counts.
	_, body = doReqH(t, http.MethodGet, ts.URL+"/stats", "", nil)
	stats = decode[StatsResponse](t, body)
	want := TenantStats{Name: "doomed", Deleted: true,
		CacheHits: svc.mCacheHits.With("doomed").Value(), CacheMisses: svc.mCacheMisses.With("doomed").Value()}
	want.CacheHitRate = float64(want.CacheHits) / float64(want.CacheHits+want.CacheMisses)
	if len(stats.Tenants) != 1 || stats.Tenants[0] != want {
		t.Errorf("second snapshot tenants = %+v, want [%+v]", stats.Tenants, want)
	}

	// A re-created tenant's row is live again and counts its earlier
	// lifetime too, as /metrics does.
	putCatalog(t, ts, "doomed", "movies", corpus, "")
	doReqH(t, http.MethodPost, ts.URL+"/v1/tenants/doomed/catalogs/movies/aggregate", `{}`, nil)
	_, body = doReqH(t, http.MethodGet, ts.URL+"/stats", "", nil)
	stats = decode[StatsResponse](t, body)
	if len(stats.Tenants) != 1 {
		t.Fatalf("tenants after re-create = %+v", stats.Tenants)
	}
	if got := stats.Tenants[0]; got.Deleted || got.Catalogs != 1 ||
		got.CacheMisses != want.CacheMisses || got.CacheHits <= want.CacheHits {
		t.Errorf("re-created tenant row = %+v, want live with both lifetimes' traffic (before: %+v)", got, want)
	}
}

func TestRequestMetricsSurviveTenantChurn(t *testing.T) {
	svc, ts := testServer(t, Config{})
	putCatalog(t, ts, "churn", "movies", corpus, "")
	doReqH(t, http.MethodPost, ts.URL+"/v1/tenants/churn/catalogs/movies/aggregate", `{}`, nil)
	doReqH(t, http.MethodDelete, ts.URL+"/v1/tenants/churn", "", nil)
	// The labeled counters are cumulative: deletion must not reset them.
	hits := svc.mCacheMisses.With("churn").Value()
	if hits <= 0 {
		t.Errorf("labeled cache-miss counter lost on tenant churn: %d", hits)
	}
	if fmt.Sprint(svc.mTenants.Value()) != "0" {
		t.Errorf("tenants gauge = %d after churn, want 0", svc.mTenants.Value())
	}
}
