package service

import (
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/telemetry"
)

// TestStatsDerivedFromMetricFamilies drives a fixed request mix — 2xx and
// 4xx answers, a rate-limit 429, a drain shed, approx and stale ladder
// answers, a degraded resilient query — and checks that every /stats tally
// equals the sum of its /metrics series, and that the mix reached each of
// them. /metrics is scraped first: it is uninstrumented, and a /stats
// snapshot does not count the /stats request being served, so the two views
// cover the same requests.
func TestStatsDerivedFromMetricFamilies(t *testing.T) {
	svc, ts := testServer(t, Config{RatePerSec: 0.001, RateBurst: 3})
	putCatalog(t, ts, "acme", "movies", deepCorpus, "")
	putCatalog(t, ts, "flood", "movies", corpus, "")
	topkURL := func(tenant string) string { return ts.URL + "/v1/tenants/" + tenant + "/catalogs/movies/topk" }
	expect := func(want int, method, url, body string, hdr map[string]string) {
		t.Helper()
		if status, b, _ := doReqHeaders(t, method, url, body, hdr); status != want {
			t.Fatalf("%s %s %s = %d, want %d: %s", method, url, body, status, want, b)
		}
	}

	expect(http.StatusOK, http.MethodGet, ts.URL+"/healthz", "", nil)
	expect(http.StatusOK, http.MethodGet, ts.URL+"/v1/tenants/acme/catalogs", "", nil)
	expect(http.StatusNotFound, http.MethodGet, ts.URL+"/v1/tenants/acme/catalogs/nosuch", "", nil)
	expect(http.StatusBadRequest, http.MethodPost, topkURL("acme"), `{"k": 0}`, nil)
	// Burst 3 on acme: the exact answer that primes the stale store, an
	// approx answer, and a degraded resilient query.
	expect(http.StatusOK, http.MethodPost, topkURL("acme"), `{"k": 2}`, nil)
	expect(http.StatusOK, http.MethodPost, topkURL("acme"), `{"k": 2, "theta": 0.5}`, nil)
	expect(http.StatusOK, http.MethodPost, topkURL("acme"),
		`{"k": 6, "resilient": true, "chaos": {"seed": 7, "death_rate": 0.1}}`, nil)
	for i := 0; i < 3; i++ {
		expect(http.StatusOK, http.MethodPost, ts.URL+"/v1/tenants/flood/catalogs/movies/aggregate", `{}`, nil)
	}
	expect(http.StatusTooManyRequests, http.MethodPost, topkURL("flood"), `{"k": 1}`, nil)
	// A 1000 s engine estimate makes any budget pick the stale rung. The
	// rung is chosen after admission, so refill acme's bucket first.
	svc.adm.forgetTenant("acme")
	svc.adm.serviceNs.Observe(float64(1000 * time.Second))
	expect(http.StatusOK, http.MethodPost, topkURL("acme"), `{"k": 2}`, map[string]string{DeadlineHeader: "250"})
	svc.BeginDrain()
	expect(http.StatusServiceUnavailable, http.MethodPost, topkURL("acme"), `{"k": 2}`, nil)

	status, b := doReq(t, http.MethodGet, ts.URL+"/metrics", "")
	if status != http.StatusOK {
		t.Fatalf("/metrics = %d", status)
	}
	exp, probs := telemetry.ParseExposition(strings.NewReader(string(b)))
	if len(probs) != 0 {
		t.Fatalf("/metrics parse problems: %v", probs)
	}
	stats := statsOf(t, ts)

	// sum totals the samples of one series name whose labels match sel.
	sum := func(name string, sel func(map[string]string) bool) int64 {
		var n float64
		for _, s := range exp.Samples {
			if s.Name == name && sel(s.Labels) {
				n += s.Value
			}
		}
		return int64(n)
	}
	is := func(key, value string) func(map[string]string) bool {
		return func(l map[string]string) bool { return l[key] == value }
	}
	check := func(what string, got, want int64) {
		t.Helper()
		if got != want {
			t.Errorf("%s: /stats %d, /metrics %d", what, got, want)
		}
		if got == 0 {
			t.Errorf("%s: the request mix did not reach it", what)
		}
	}

	check("degraded_queries", stats.DegradedQueries,
		sum("rankserve_degraded_queries_total", func(map[string]string) bool { return true }))
	o := stats.Overload
	check("shed_rate_limit", o.ShedRateLimit, sum("rankserve_shed_total", is("reason", ShedRateLimit)))
	check("shed_draining", o.ShedDraining, sum("rankserve_shed_total", is("reason", ShedDraining)))
	check("approx_answers", o.ApproxAnswers, sum("rankserve_degraded_answers_total", is("level", LadderApprox)))
	check("stale_answers", o.StaleAnswers, sum("rankserve_degraded_answers_total", is("level", LadderStale)))
	if o.ShedQueueFull != 0 || o.ShedDeadline != 0 {
		t.Errorf("unexpected sheds: %+v", o)
	}

	if len(stats.Endpoints) != len(svc.ops) {
		t.Errorf("/stats has %d endpoint rows, want one per endpoint (%d)", len(stats.Endpoints), len(svc.ops))
	}
	var errors int64
	for op, row := range stats.Endpoints {
		onOp := is("endpoint", op)
		if got, want := row.Requests, sum("rankserve_requests_total", onOp); got != want {
			t.Errorf("%s requests: /stats %d, /metrics %d", op, got, want)
		}
		failed := func(l map[string]string) bool { return onOp(l) && l["status"] != "200" }
		if got, want := row.Errors, sum("rankserve_requests_total", failed); got != want {
			t.Errorf("%s errors: /stats %d, /metrics %d", op, got, want)
		}
		errors += row.Errors
		h := stats.Server.Histograms["http."+op+".latency_ns"]
		if got, want := h.Count, sum("rankserve_request_latency_ns_count", onOp); got != want {
			t.Errorf("%s latency count: /stats %d, /metrics %d", op, got, want)
		}
		if got, want := h.Sum, sum("rankserve_request_latency_ns_sum", onOp); got != want {
			t.Errorf("%s latency sum: /stats %d, /metrics %d", op, got, want)
		}
		if h.Count != row.Requests {
			t.Errorf("%s: %d latency observations for %d requests", op, h.Count, row.Requests)
		}
	}
	check("topk requests", stats.Endpoints["topk"].Requests, 7)
	check("errors", errors, 4)
	if row := stats.Endpoints["delete_tenant"]; row != (EndpointStats{}) {
		t.Errorf("unserved endpoint row = %+v, want zero", row)
	}
}
