package service

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/aggregate"
	"repro/internal/guard"
	"repro/internal/ranking"
	"repro/internal/telemetry"
	"repro/internal/topk"
)

func init() {
	// The service's latency histograms are gated like every instrument; a
	// server process enables telemetry at startup, so tests do too.
	telemetry.Enable()
}

// testServer stands up a Service behind httptest.
func testServer(t *testing.T, cfg Config) (*Service, *httptest.Server) {
	t.Helper()
	svc := New(cfg)
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(ts.Close)
	return svc, ts
}

// doReq issues one request and returns status + body.
func doReq(t *testing.T, method, url, body string) (int, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
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
	return resp.StatusCode, b
}

func decode[T any](t *testing.T, b []byte) T {
	t.Helper()
	var v T
	if err := json.Unmarshal(b, &v); err != nil {
		t.Fatalf("decoding %s: %v", b, err)
	}
	return v
}

const corpus = "a | b | c | d\nb | a | c | d\na | c | b | d\nd | a b | c\n"

func putCatalog(t *testing.T, ts *httptest.Server, tenant, cat, body, query string) IngestResponse {
	t.Helper()
	status, b := doReq(t, http.MethodPut,
		fmt.Sprintf("%s/v1/tenants/%s/catalogs/%s%s", ts.URL, tenant, cat, query), body)
	if status != http.StatusOK {
		t.Fatalf("PUT catalog = %d: %s", status, b)
	}
	return decode[IngestResponse](t, b)
}

func TestPutCatalogStrict(t *testing.T) {
	_, ts := testServer(t, Config{})
	resp := putCatalog(t, ts, "acme", "movies", corpus, "")
	if resp.Rankings != 4 || resp.Elements != 4 || resp.Mode != "strict" {
		t.Errorf("unexpected ingest response: %+v", resp)
	}
	if len(resp.Defects) != 0 {
		t.Errorf("clean corpus produced defects: %+v", resp.Defects)
	}
}

func TestPutCatalogStrictRejectsMalformed(t *testing.T) {
	_, ts := testServer(t, Config{})
	status, b := doReq(t, http.MethodPut, ts.URL+"/v1/tenants/acme/catalogs/bad",
		"a | b | c\na | a | b\n")
	if status != http.StatusBadRequest {
		t.Fatalf("malformed strict PUT = %d, want 400: %s", status, b)
	}
	er := decode[ErrorResponse](t, b)
	if er.Error == "" {
		t.Error("error response missing summary")
	}
}

func TestPutCatalogLenientRepairs(t *testing.T) {
	_, ts := testServer(t, Config{})
	// Second line covers a strict subset; CompleteBottom repairs it.
	resp := putCatalog(t, ts, "acme", "movies",
		"a | b | c | d\na | b\nw x | y z q\n",
		"?mode=lenient&repair=complete")
	if resp.Mode != "lenient" {
		t.Errorf("mode = %q, want lenient", resp.Mode)
	}
	if resp.Rankings != 2 {
		t.Errorf("rankings = %d, want 2 (one clean, one repaired)", resp.Rankings)
	}
	if len(resp.Defects) == 0 {
		t.Error("lenient ingest of defective corpus reported no defects")
	}
	repaired := false
	for _, d := range resp.Defects {
		if d.Repaired {
			repaired = true
		}
	}
	if !repaired {
		t.Errorf("no repaired defect in %+v", resp.Defects)
	}
}

func TestBodyCapRejectsWithStructuredDefect(t *testing.T) {
	_, ts := testServer(t, Config{MaxBodyBytes: 64})
	big := strings.Repeat("a | b | c | d\n", 100)
	status, b := doReq(t, http.MethodPut, ts.URL+"/v1/tenants/acme/catalogs/big", big)
	if status != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body = %d, want 413: %s", status, b)
	}
	er := decode[ErrorResponse](t, b)
	if len(er.Defects) == 0 {
		t.Errorf("413 carried no structured defect: %s", b)
	}
}

func TestTenantCapDeterministicRejection(t *testing.T) {
	_, ts := testServer(t, Config{MaxTenants: 2})
	putCatalog(t, ts, "t1", "c", corpus, "")
	putCatalog(t, ts, "t2", "c", corpus, "")
	for i := 0; i < 3; i++ { // rejection must be deterministic across retries
		status, b := doReq(t, http.MethodPut, ts.URL+"/v1/tenants/t3/catalogs/c", corpus)
		if status != http.StatusTooManyRequests {
			t.Fatalf("attempt %d: third tenant = %d, want 429: %s", i, status, b)
		}
		er := decode[ErrorResponse](t, b)
		if len(er.Defects) != 1 || !strings.Contains(er.Defects[0].Msg, "tenant limit 2") {
			t.Errorf("attempt %d: unexpected defects %+v", i, er.Defects)
		}
	}
	// Existing tenants keep working at the cap.
	putCatalog(t, ts, "t1", "c2", corpus, "")
}

func TestRankingLimitRejection(t *testing.T) {
	limits := guard.DefaultLimits()
	limits.MaxRankings = 2
	_, ts := testServer(t, Config{Limits: limits})
	status, b := doReq(t, http.MethodPut, ts.URL+"/v1/tenants/acme/catalogs/over", corpus)
	if status != http.StatusBadRequest {
		t.Fatalf("over-limit strict PUT = %d, want 400: %s", status, b)
	}
}

func TestCatalogLifecycle(t *testing.T) {
	_, ts := testServer(t, Config{})
	putCatalog(t, ts, "acme", "movies", corpus, "")

	status, b := doReq(t, http.MethodGet, ts.URL+"/v1/tenants/acme/catalogs/movies", "")
	if status != http.StatusOK {
		t.Fatalf("GET catalog = %d: %s", status, b)
	}
	info := decode[CatalogInfo](t, b)
	if info.Rankings != 4 || info.Elements != 4 || len(info.Names) != 4 {
		t.Errorf("catalog info = %+v", info)
	}

	status, b = doReq(t, http.MethodGet, ts.URL+"/v1/tenants/acme/catalogs", "")
	if status != http.StatusOK || !strings.Contains(string(b), "movies") {
		t.Errorf("list catalogs = %d: %s", status, b)
	}

	status, _ = doReq(t, http.MethodDelete, ts.URL+"/v1/tenants/acme/catalogs/movies", "")
	if status != http.StatusOK {
		t.Errorf("DELETE catalog = %d", status)
	}
	status, _ = doReq(t, http.MethodGet, ts.URL+"/v1/tenants/acme/catalogs/movies", "")
	if status != http.StatusNotFound {
		t.Errorf("GET deleted catalog = %d, want 404", status)
	}

	putCatalog(t, ts, "acme", "again", corpus, "")
	status, _ = doReq(t, http.MethodDelete, ts.URL+"/v1/tenants/acme", "")
	if status != http.StatusOK {
		t.Errorf("DELETE tenant = %d", status)
	}
	status, _ = doReq(t, http.MethodGet, ts.URL+"/v1/tenants/acme/catalogs", "")
	if status != http.StatusNotFound {
		t.Errorf("GET catalogs of deleted tenant = %d, want 404", status)
	}
}

func TestAppendRankingsRemapsByName(t *testing.T) {
	_, ts := testServer(t, Config{})
	putCatalog(t, ts, "acme", "movies", corpus, "")
	// Same domain, different name-encounter order.
	status, b := doReq(t, http.MethodPost, ts.URL+"/v1/tenants/acme/catalogs/movies/rankings",
		"d | c | b | a\nc | d a | b\n")
	if status != http.StatusOK {
		t.Fatalf("append = %d: %s", status, b)
	}
	resp := decode[IngestResponse](t, b)
	if resp.Rankings != 6 || resp.Appended != 2 {
		t.Errorf("append response = %+v", resp)
	}
	// The appended lists must rank the SAME elements: a top-k query naming
	// element "d" first proves the remap aligned names, not raw IDs.
	status, b = doReq(t, http.MethodPost, ts.URL+"/v1/tenants/acme/catalogs/movies/topk",
		`{"k": 4}`)
	if status != http.StatusOK {
		t.Fatalf("topk after append = %d: %s", status, b)
	}

	// Appending lists over a different element set is a conflict.
	status, b = doReq(t, http.MethodPost, ts.URL+"/v1/tenants/acme/catalogs/movies/rankings",
		"x | y | z | w\n")
	if status != http.StatusConflict {
		t.Errorf("append foreign domain = %d, want 409: %s", status, b)
	}
}

func TestTopKMatchesEngine(t *testing.T) {
	_, ts := testServer(t, Config{})
	putCatalog(t, ts, "acme", "movies", corpus, "")

	rankings, dom, err := ranking.ParseLines(strings.NewReader(corpus))
	if err != nil {
		t.Fatal(err)
	}
	want, err := topk.MedRankContext(context.Background(), rankings, 2, topk.GlobalMerge)
	if err != nil {
		t.Fatal(err)
	}

	status, b := doReq(t, http.MethodPost, ts.URL+"/v1/tenants/acme/catalogs/movies/topk",
		`{"k": 2}`)
	if status != http.StatusOK {
		t.Fatalf("topk = %d: %s", status, b)
	}
	resp := decode[TopKResponse](t, b)
	if len(resp.Winners) != len(want.Winners) {
		t.Fatalf("winners = %v", resp.Winners)
	}
	for i, e := range want.Winners {
		if resp.Winners[i] != dom.Name(e) {
			t.Errorf("winner %d = %q, want %q", i, resp.Winners[i], dom.Name(e))
		}
		if wantMed := float64(want.Medians2[i]) / 2; resp.Medians[i] != wantMed {
			t.Errorf("median %d = %g, want %g", i, resp.Medians[i], wantMed)
		}
	}
	if resp.Access.Sequential == 0 {
		t.Error("no access accounting in response")
	}

	// TA agrees on the winner set.
	status, b = doReq(t, http.MethodPost, ts.URL+"/v1/tenants/acme/catalogs/movies/topk",
		`{"k": 2, "algo": "ta"}`)
	if status != http.StatusOK {
		t.Fatalf("ta topk = %d: %s", status, b)
	}
	ta := decode[TopKResponse](t, b)
	if fmt.Sprint(ta.Winners) != fmt.Sprint(resp.Winners) {
		t.Errorf("ta winners %v != medrank winners %v", ta.Winners, resp.Winners)
	}
}

func TestTopKValidation(t *testing.T) {
	_, ts := testServer(t, Config{})
	putCatalog(t, ts, "acme", "movies", corpus, "")
	for body, want := range map[string]int{
		`{"k": 0}`:                       http.StatusBadRequest,
		`{"k": 99}`:                      http.StatusBadRequest,
		`{"k": 1, "algo": "quantum"}`:    http.StatusBadRequest,
		`{"k": 1, "chaos": {"seed": 1}}`: http.StatusBadRequest, // chaos without resilient
		`not json`:                       http.StatusBadRequest,
	} {
		status, b := doReq(t, http.MethodPost, ts.URL+"/v1/tenants/acme/catalogs/movies/topk", body)
		if status != want {
			t.Errorf("topk body %q = %d, want %d: %s", body, status, want, b)
		}
	}
	status, _ := doReq(t, http.MethodPost, ts.URL+"/v1/tenants/acme/catalogs/nope/topk", `{"k": 1}`)
	if status != http.StatusNotFound {
		t.Errorf("topk on missing catalog = %d, want 404", status)
	}
}

// deepCorpus is disagreeable enough (8 elements, 5 voters with clashing
// orders) that a k=6 query must scan deep, giving injected faults room to
// kill lists mid-query.
const deepCorpus = "a | b | c | d | e | f | g | h\n" +
	"b | a | d | c | f | e | h | g\n" +
	"c | d | a | b | g | h | e | f\n" +
	"h | g | f | e | d | c | b | a\n" +
	"a | c | e | g | b | d | f | h\n"

func TestResilientTopKWithChaosDegrades(t *testing.T) {
	_, ts := testServer(t, Config{})
	putCatalog(t, ts, "acme", "movies", deepCorpus, "")
	// With death_rate 0.1 under this seed, some lists die mid-query and some
	// survive: the answer must be degraded but still well-formed, and
	// deterministic for a fixed seed.
	body := `{"k": 6, "resilient": true, "chaos": {"seed": 7, "death_rate": 0.1}}`
	var first TopKResponse
	for i := 0; i < 2; i++ {
		status, b := doReq(t, http.MethodPost, ts.URL+"/v1/tenants/acme/catalogs/movies/topk", body)
		if status != http.StatusOK {
			t.Fatalf("resilient topk = %d: %s", status, b)
		}
		resp := decode[TopKResponse](t, b)
		if resp.Degraded == nil {
			t.Fatal("chaos run did not degrade")
		}
		if i == 0 {
			first = resp
		} else if fmt.Sprint(resp.Winners) != fmt.Sprint(first.Winners) {
			t.Errorf("degraded answer not deterministic: %v vs %v", resp.Winners, first.Winners)
		}
	}
	if statsOf(t, ts).DegradedQueries == 0 {
		t.Error("service did not count the degraded queries")
	}
}

// TestTopKAlgoNRAAndCA covers the FLN middleware engines over HTTP: the
// no-random-access NRA and the combined algorithm CA agree with MEDRANK,
// report cost-weighted access summaries, honor explicit cost ratios, and
// show up in the algo-labeled metric families.
func TestTopKAlgoNRAAndCA(t *testing.T) {
	_, ts := testServer(t, Config{})
	putCatalog(t, ts, "acme", "movies", deepCorpus, "")
	url := ts.URL + "/v1/tenants/acme/catalogs/movies/topk"

	query := func(body string) TopKResponse {
		t.Helper()
		status, b := doReq(t, http.MethodPost, url, body)
		if status != http.StatusOK {
			t.Fatalf("topk %s = %d: %s", body, status, b)
		}
		return decode[TopKResponse](t, b)
	}

	base := query(`{"k": 4}`)
	nra := query(`{"k": 4, "algo": "nra"}`)
	if fmt.Sprint(nra.Winners) != fmt.Sprint(base.Winners) {
		t.Errorf("nra winners %v != medrank winners %v", nra.Winners, base.Winners)
	}
	if nra.Access.Random != 0 {
		t.Errorf("nra made %d random accesses, want 0", nra.Access.Random)
	}
	if nra.Access.CostRatio != 0 || nra.Access.MiddlewareCost != nra.Access.Sequential {
		t.Errorf("nra access summary %+v: want cost ratio 0 and cost == sequential", nra.Access)
	}

	ca := query(`{"k": 4, "algo": "ca"}`)
	if fmt.Sprint(ca.Winners) != fmt.Sprint(base.Winners) {
		t.Errorf("ca winners %v != medrank winners %v", ca.Winners, base.Winners)
	}
	if ca.Access.CostRatio != topk.DefaultCostRatio {
		t.Errorf("ca default cost ratio = %d, want %d", ca.Access.CostRatio, topk.DefaultCostRatio)
	}
	if want := ca.Access.Sequential + topk.DefaultCostRatio*ca.Access.Random; ca.Access.MiddlewareCost != want {
		t.Errorf("ca middleware cost = %d, want %d", ca.Access.MiddlewareCost, want)
	}
	if got := query(`{"k": 4, "algo": "ca", "cost_ratio": 25}`); got.Access.CostRatio != 25 {
		t.Errorf("explicit cost ratio echoed as %d, want 25", got.Access.CostRatio)
	}

	for _, bad := range []string{
		`{"k": 4, "algo": "ca", "cost_ratio": -1}`,
		`{"k": 4, "algo": "ca", "cost_ratio": 1048577}`,             // above topk.MaxCostRatio
		`{"k": 4, "algo": "ta", "cost_ratio": 9223372036854775807}`, // the cost would wrap
		`{"k": 4, "algo": "nra", "theta": 0.5}`,                     // θ engine needs random access
	} {
		if status, b := doReq(t, http.MethodPost, url, bad); status != http.StatusBadRequest {
			t.Errorf("topk %s = %d, want 400: %s", bad, status, b)
		}
	}

	// Resilient dispatch: both engines survive deterministic chaos, and NRA
	// stays random-access-free even on the fallible path.
	rnra := query(`{"k": 4, "algo": "nra", "resilient": true, "chaos": {"seed": 7, "death_rate": 0.1}}`)
	if rnra.Access.Random != 0 {
		t.Errorf("resilient nra made %d random accesses, want 0", rnra.Access.Random)
	}
	if rnra.Degraded == nil {
		t.Error("resilient nra chaos run did not degrade")
	}
	if rca := query(`{"k": 4, "algo": "ca", "resilient": true, "chaos": {"seed": 7, "death_rate": 0.1}}`); len(rca.Winners) != 4 {
		t.Errorf("resilient ca winners = %v, want 4", rca.Winners)
	}

	status, b := doReq(t, http.MethodGet, ts.URL+"/metrics", "")
	if status != http.StatusOK {
		t.Fatalf("/metrics = %d", status)
	}
	out := string(b)
	for _, want := range []string{
		`rankserve_topk_algo_total{tenant="acme",algo="medrank"}`,
		`rankserve_topk_algo_total{tenant="acme",algo="nra"}`,
		`rankserve_topk_algo_total{tenant="acme",algo="ca"}`,
		`rankserve_middleware_cost_total{tenant="acme",algo="ca"}`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in /metrics", want)
		}
	}
}

func TestAggregateMatchesEngines(t *testing.T) {
	_, ts := testServer(t, Config{})
	putCatalog(t, ts, "acme", "movies", corpus, "")

	rankings, dom, err := ranking.ParseLines(strings.NewReader(corpus))
	if err != nil {
		t.Fatal(err)
	}
	wantScores, err := aggregate.MedianScores(rankings, aggregate.LowerMedian)
	if err != nil {
		t.Fatal(err)
	}

	status, b := doReq(t, http.MethodPost, ts.URL+"/v1/tenants/acme/catalogs/movies/aggregate",
		`{"metric": "kprof"}`)
	if status != http.StatusOK {
		t.Fatalf("aggregate = %d: %s", status, b)
	}
	resp := decode[AggregateResponse](t, b)
	for e := 0; e < dom.Size(); e++ {
		if got := resp.Medians[dom.Name(e)]; got != wantScores[e] {
			t.Errorf("median[%s] = %g, want %g", dom.Name(e), got, wantScores[e])
		}
	}
	if resp.Kemenized == nil {
		t.Fatal("kemenized clause missing (default is on)")
	}
	if resp.Kemenized.SumDistance > resp.Median.SumDistance {
		t.Errorf("kemenization increased the objective: %g > %g",
			resp.Kemenized.SumDistance, resp.Median.SumDistance)
	}
	if resp.Best.Ranking == "" || resp.BestInput < 0 || resp.BestInput >= len(rankings) {
		t.Errorf("best-of-inputs clause = %+v", resp)
	}

	status, b = doReq(t, http.MethodPost, ts.URL+"/v1/tenants/acme/catalogs/movies/aggregate",
		`{"metric": "nosuch"}`)
	if status != http.StatusBadRequest {
		t.Errorf("unknown metric = %d, want 400: %s", status, b)
	}
}

func TestStatsSnapshot(t *testing.T) {
	_, ts := testServer(t, Config{})
	putCatalog(t, ts, "acme", "movies", corpus, "")
	doReq(t, http.MethodPost, ts.URL+"/v1/tenants/acme/catalogs/movies/aggregate", `{}`)
	doReq(t, http.MethodPost, ts.URL+"/v1/tenants/acme/catalogs/movies/topk", `{"k": 1}`)

	status, b := doReq(t, http.MethodGet, ts.URL+"/stats", "")
	if status != http.StatusOK {
		t.Fatalf("stats = %d: %s", status, b)
	}
	resp := decode[StatsResponse](t, b)
	if len(resp.Tenants) != 1 || resp.Tenants[0].Name != "acme" {
		t.Fatalf("tenants = %+v", resp.Tenants)
	}
	if resp.Tenants[0].CacheMisses == 0 {
		t.Error("aggregate query produced no cache traffic")
	}
	if resp.Endpoints["topk"].Requests == 0 || resp.Endpoints["aggregate"].Requests == 0 {
		t.Errorf("endpoint tallies missing: %+v", resp.Endpoints)
	}
	if resp.Server.Histograms["http.topk.latency_ns"].Count == 0 {
		t.Errorf("server registry missing topk latency histogram: %+v", resp.Server.Histograms)
	}
}

func TestDebugSurfaceMounted(t *testing.T) {
	_, ts := testServer(t, Config{})
	for _, path := range []string{"/debug/vars", "/debug/pprof/"} {
		status, b := doReq(t, http.MethodGet, ts.URL+path, "")
		if status != http.StatusOK {
			t.Errorf("GET %s = %d: %s", path, status, b)
		}
	}
}

func TestHealthz(t *testing.T) {
	_, ts := testServer(t, Config{})
	status, b := doReq(t, http.MethodGet, ts.URL+"/healthz", "")
	if status != http.StatusOK || !strings.Contains(string(b), "ok") {
		t.Errorf("healthz = %d: %s", status, b)
	}
}
