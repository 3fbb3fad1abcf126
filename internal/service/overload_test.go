package service

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/topk"
)

// doReqHeaders is doReq with extra request headers, returning the response
// headers too.
func doReqHeaders(t *testing.T, method, url, body string, hdr map[string]string) (int, []byte, http.Header) {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b := make([]byte, 0, 1024)
	buf := make([]byte, 4096)
	for {
		n, rerr := resp.Body.Read(buf)
		b = append(b, buf[:n]...)
		if rerr != nil {
			break
		}
	}
	return resp.StatusCode, b, resp.Header
}

// waitUntil polls cond until it holds or the deadline trips the test.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func TestDeadlineHeaderValidation(t *testing.T) {
	_, ts := testServer(t, Config{})
	putCatalog(t, ts, "acme", "movies", corpus, "")
	url := ts.URL + "/v1/tenants/acme/catalogs/movies/topk"

	for _, bad := range []string{"nope", "-5", "0", "1.5"} {
		status, b, _ := doReqHeaders(t, http.MethodPost, url, `{"k": 2}`,
			map[string]string{DeadlineHeader: bad})
		if status != http.StatusBadRequest {
			t.Errorf("%s=%q: status %d, want 400: %s", DeadlineHeader, bad, status, b)
		}
	}
	status, b, _ := doReqHeaders(t, http.MethodPost, url, `{"k": 2}`,
		map[string]string{DeadlineHeader: "5000"})
	if status != http.StatusOK {
		t.Fatalf("valid deadline: status %d: %s", status, b)
	}
	resp := decode[TopKResponse](t, b)
	// A generous budget with a cold EWMA runs exact; the ladder annotation
	// records that the request ran under budget control.
	if resp.Ladder == nil || resp.Ladder.Level != LadderExact {
		t.Errorf("ladder under generous budget = %+v, want exact", resp.Ladder)
	}
}

func TestMaxDeadlineCapsClientBudget(t *testing.T) {
	svc, ts := testServer(t, Config{MaxDeadline: 50 * time.Millisecond})
	putCatalog(t, ts, "acme", "movies", corpus, "")
	// Ask for 60s; the cap must bring it down to 50ms. Verified indirectly:
	// the access-log deadline would show it, but cheaper is to check the
	// request still succeeds and the service config clamped (whitebox).
	budget, ok, _ := svc.requestBudget(&http.Request{Header: http.Header{DeadlineHeader: []string{"60000"}}})
	if !ok || budget != 50*time.Millisecond {
		t.Fatalf("requestBudget = %v ok=%v, want 50ms", budget, ok)
	}
	// And with no header at all, the cap still applies as the default.
	budget, ok, _ = svc.requestBudget(&http.Request{Header: http.Header{}})
	if !ok || budget != 50*time.Millisecond {
		t.Fatalf("requestBudget (no header) = %v ok=%v, want 50ms", budget, ok)
	}
	// A header past time.Duration's range gets the cap; uncapped, it means
	// no deadline. Neither may wrap to a negative budget.
	huge := &http.Request{Header: http.Header{DeadlineHeader: []string{"9223372036854775807"}}}
	if budget, ok, _ = svc.requestBudget(huge); !ok || budget != 50*time.Millisecond {
		t.Errorf("requestBudget (huge header) = %v ok=%v, want 50ms", budget, ok)
	}
	if budget, ok, _ = New(Config{}).requestBudget(huge); !ok || budget != 0 {
		t.Errorf("requestBudget (huge header, no cap) = %v ok=%v, want 0 (no deadline)", budget, ok)
	}
}

// statsOf fetches and decodes the /stats snapshot.
func statsOf(t *testing.T, ts *httptest.Server) StatsResponse {
	t.Helper()
	status, b := doReq(t, http.MethodGet, ts.URL+"/stats", "")
	if status != http.StatusOK {
		t.Fatalf("/stats = %d: %s", status, b)
	}
	return decode[StatsResponse](t, b)
}

func TestRateLimitSheds429WithRetryAfter(t *testing.T) {
	_, ts := testServer(t, Config{RatePerSec: 0.5, RateBurst: 1})
	putCatalog(t, ts, "acme", "movies", corpus, "")
	url := ts.URL + "/v1/tenants/acme/catalogs/movies/topk"

	status, b, _ := doReqHeaders(t, http.MethodPost, url, `{"k": 2}`, nil)
	if status != http.StatusOK {
		t.Fatalf("first request: %d: %s", status, b)
	}
	status, b, hdr := doReqHeaders(t, http.MethodPost, url, `{"k": 2}`, nil)
	if status != http.StatusTooManyRequests {
		t.Fatalf("second request: %d, want 429: %s", status, b)
	}
	ra, err := strconv.Atoi(hdr.Get("Retry-After"))
	if err != nil || ra < 1 {
		t.Errorf("Retry-After = %q, want integer >= 1", hdr.Get("Retry-After"))
	}
	er := decode[ErrorResponse](t, b)
	if er.RetryAfterS < 1 {
		t.Errorf("body retry_after_s = %d, want >= 1", er.RetryAfterS)
	}
	if !strings.Contains(er.Error, "rate") {
		t.Errorf("error %q does not mention the rate limit", er.Error)
	}
	if got := statsOf(t, ts).Overload.ShedRateLimit; got != 1 {
		t.Errorf("shed_rate_limit = %d, want 1", got)
	}

	// Rate limiting is per tenant: another tenant is untouched.
	putCatalog(t, ts, "beta", "movies", corpus, "")
	waitUntil(t, "beta's bucket to refill", func() bool {
		status, _, _ := doReqHeaders(t, http.MethodPost,
			ts.URL+"/v1/tenants/beta/catalogs/movies/topk", `{"k": 2}`, nil)
		return status == http.StatusOK
	})
}

// slowTopKBody is a resilient+chaos request whose per-access latency makes
// its duration deterministic-ish and long: it parks an engine slot.
func slowTopKBody(latencyMs int) string {
	return fmt.Sprintf(`{"k": 6, "resilient": true, "chaos": {"seed": 7, "latency_ms": %d}}`, latencyMs)
}

func TestQueueFullShedsAndLIFOServes(t *testing.T) {
	svc, ts := testServer(t, Config{Workers: 1, QueueDepth: 1})
	putCatalog(t, ts, "acme", "movies", deepCorpus, "")
	url := ts.URL + "/v1/tenants/acme/catalogs/movies/topk"

	// Park the only engine slot on a slow chaos-latency query.
	type result struct {
		status int
		body   []byte
	}
	slowDone := make(chan result, 1)
	go func() {
		st, b, _ := doReqHeaders(t, http.MethodPost, url, slowTopKBody(20), nil)
		slowDone <- result{st, b}
	}()
	waitUntil(t, "slot occupied", func() bool { return svc.adm.inflight() == 1 })

	// Fill the single queue slot.
	queuedDone := make(chan result, 1)
	go func() {
		st, b, _ := doReqHeaders(t, http.MethodPost, url, `{"k": 2}`, nil)
		queuedDone <- result{st, b}
	}()
	waitUntil(t, "queue occupied", func() bool { return svc.adm.queueLen() == 1 })

	// The next request must shed: queue_full, 429, Retry-After present.
	status, b, hdr := doReqHeaders(t, http.MethodPost, url, `{"k": 2}`, nil)
	if status != http.StatusTooManyRequests {
		t.Fatalf("over-queue request: %d, want 429: %s", status, b)
	}
	if hdr.Get("Retry-After") == "" {
		t.Error("queue_full shed missing Retry-After header")
	}
	if got := statsOf(t, ts).Overload.ShedQueueFull; got != 1 {
		t.Errorf("shed_queue_full = %d, want 1", got)
	}

	// Both the parked and the queued request must complete once the slot
	// frees.
	for i, ch := range []chan result{slowDone, queuedDone} {
		select {
		case res := <-ch:
			if res.status != http.StatusOK {
				t.Errorf("request %d finished %d: %s", i, res.status, res.body)
			}
		case <-time.After(30 * time.Second):
			t.Fatalf("request %d never completed", i)
		}
	}
}

// TestAdmitterDeadlineShed unit-tests the hopeless-deadline rejection: with
// the engine EWMA seeded and the queue deep, a request whose remaining
// budget is below the expected wait sheds immediately with reason deadline.
func TestAdmitterDeadlineShed(t *testing.T) {
	cfg := Config{Workers: 1, QueueDepth: 8}.withDefaults()
	svc := New(cfg)
	a := svc.adm
	a.serviceNs.Observe(float64(100 * time.Millisecond)) // EWMA: 100ms/job

	// Take the only slot.
	release, _, shed := a.acquire(context.Background(), "t")
	if shed != nil {
		t.Fatalf("first acquire shed: %+v", shed)
	}
	defer release()

	// Remaining budget 20ms, expected wait ~(1+1)*100ms: must shed.
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	_, _, shed = a.acquire(ctx, "t")
	if shed == nil || shed.reason != ShedDeadline {
		t.Fatalf("hopeless-deadline acquire = %+v, want deadline shed", shed)
	}
	if shed.status != http.StatusTooManyRequests || shed.retryAfter <= 0 {
		t.Errorf("deadline shed status=%d retryAfter=%v, want 429 with positive hint", shed.status, shed.retryAfter)
	}

	// A queue-wait abandoned by cancellation releases its place.
	ctx2, cancel2 := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, _, shed := a.acquire(ctx2, "t")
		if shed == nil {
			t.Error("canceled waiter was granted")
			return
		}
		if shed.status != http.StatusServiceUnavailable || shed.retryAfter <= 0 {
			t.Errorf("abandoned waiter status=%d retryAfter=%v, want 503 with positive hint", shed.status, shed.retryAfter)
		}
	}()
	waitUntil(t, "waiter enqueued", func() bool { return a.queueLen() == 1 })
	cancel2()
	wg.Wait()
	if got := a.queueLen(); got != 0 {
		t.Errorf("queue length after abandoned waiter = %d, want 0", got)
	}
}

func TestLadderExplicitTheta(t *testing.T) {
	_, ts := testServer(t, Config{})
	putCatalog(t, ts, "acme", "movies", deepCorpus, "")
	url := ts.URL + "/v1/tenants/acme/catalogs/movies/topk"

	status, b, _ := doReqHeaders(t, http.MethodPost, url, `{"k": 3, "algo": "ta", "theta": 0.5}`, nil)
	if status != http.StatusOK {
		t.Fatalf("theta topk: %d: %s", status, b)
	}
	resp := decode[TopKResponse](t, b)
	if resp.Ladder == nil || resp.Ladder.Level != LadderApprox {
		t.Fatalf("ladder = %+v, want approx", resp.Ladder)
	}
	if resp.Ladder.Certificate == nil || resp.Ladder.Certificate.Theta != 0.5 {
		t.Fatalf("certificate = %+v, want theta 0.5", resp.Ladder.Certificate)
	}
	if resp.Ladder.Certificate.Ratio > 1.5+1e-9 {
		t.Errorf("certificate ratio %v exceeds 1+theta", resp.Ladder.Certificate.Ratio)
	}

	// theta=0 must be bit-identical to the exact TA answer.
	status, bExact, _ := doReqHeaders(t, http.MethodPost, url, `{"k": 3, "algo": "ta"}`, nil)
	if status != http.StatusOK {
		t.Fatalf("exact topk: %d", status)
	}
	status, bZero, _ := doReqHeaders(t, http.MethodPost, url, `{"k": 3, "algo": "ta", "theta": 0}`, nil)
	if status != http.StatusOK {
		t.Fatalf("theta=0 topk: %d", status)
	}
	exact, zero := decode[TopKResponse](t, bExact), decode[TopKResponse](t, bZero)
	if fmt.Sprint(exact.Winners) != fmt.Sprint(zero.Winners) ||
		fmt.Sprint(exact.Medians) != fmt.Sprint(zero.Medians) ||
		exact.TopK != zero.TopK || exact.Access != zero.Access {
		t.Errorf("theta=0 answer differs from exact:\nexact %+v\nzero  %+v", exact, zero)
	}
	if zero.Ladder == nil || zero.Ladder.Certificate == nil || zero.Ladder.Certificate.EarlyStop {
		t.Errorf("theta=0 certificate = %+v, want present without early stop", zero.Ladder)
	}

	// Validation: negative theta and resilient+theta are 400s.
	for _, bad := range []string{
		`{"k": 3, "theta": -0.1}`,
		`{"k": 3, "resilient": true, "theta": 0.5}`,
	} {
		if status, b, _ := doReqHeaders(t, http.MethodPost, url, bad, nil); status != http.StatusBadRequest {
			t.Errorf("body %s: status %d, want 400: %s", bad, status, b)
		}
	}
}

// TestLadderApproxPricedAsTA pins the approx rung's accounting: an explicit
// theta answers a medrank or ca request with θ-approximate TA, so the
// response is priced at TA's cost ratio (the request's, else the default)
// and counted under algo="ta" in both per-engine counter families, exactly
// like the same run requested as "ta".
func TestLadderApproxPricedAsTA(t *testing.T) {
	_, ts := testServer(t, Config{})
	putCatalog(t, ts, "acme", "movies", deepCorpus, "")
	url := ts.URL + "/v1/tenants/acme/catalogs/movies/topk"
	query := func(body string) TopKResponse {
		t.Helper()
		status, b, _ := doReqHeaders(t, http.MethodPost, url, body, nil)
		if status != http.StatusOK {
			t.Fatalf("%s: %d: %s", body, status, b)
		}
		return decode[TopKResponse](t, b)
	}
	ta := query(`{"k": 3, "algo": "ta", "theta": 0.5}`)
	if ta.Access.CostRatio != topk.DefaultCostRatio || ta.Access.Random == 0 {
		t.Fatalf("ta access = %+v, want random accesses priced at %d", ta.Access, topk.DefaultCostRatio)
	}
	for _, algo := range []string{"medrank", "ca"} {
		if got := query(fmt.Sprintf(`{"k": 3, "algo": %q, "theta": 0.5}`, algo)); got.Access != ta.Access {
			t.Errorf("%s with theta: access %+v, want TA's %+v", algo, got.Access, ta.Access)
		}
	}
	got := query(`{"k": 3, "algo": "medrank", "theta": 0.5, "cost_ratio": 25}`)
	if want := ta.Access.Sequential + 25*ta.Access.Random; got.Access.CostRatio != 25 || got.Access.MiddlewareCost != want {
		t.Errorf("explicit cost_ratio 25: access %+v, want middleware cost %d", got.Access, want)
	}

	status, b := doReq(t, http.MethodGet, ts.URL+"/metrics", "")
	if status != http.StatusOK {
		t.Fatalf("/metrics = %d", status)
	}
	for _, line := range strings.Split(string(b), "\n") {
		for _, family := range []string{"rankserve_topk_algo_total", "rankserve_middleware_cost_total"} {
			if strings.HasPrefix(line, family+"{") && !strings.Contains(line, `algo="ta"`) {
				t.Errorf("approx runs counted under another engine: %s", line)
			}
		}
		if strings.HasPrefix(line, `rankserve_topk_algo_total{tenant="acme",algo="ta"} `) && !strings.HasSuffix(line, " 4") {
			t.Errorf("%s, want 4 TA runs", line)
		}
	}
}

// TestPlanLadder walks the rung choice over budgets and estimates handed in
// as numbers, with no clock involved.
func TestPlanLadder(t *testing.T) {
	const ms = time.Millisecond
	theta := 0.25
	const ewma = float64(300 * ms)
	const staleNote = "; no stale answer, attempting approx"
	const nraNote = "; nra serves exact (approx rung requires random access)"
	for _, c := range []struct {
		name        string
		req         TopKRequest
		algo        string
		hasDeadline bool
		remaining   time.Duration
		estNs       float64
		want        ladderPlan
	}{
		{"no deadline", TopKRequest{}, "ta", false, 0, ewma,
			ladderPlan{chosen: LadderExact, level: LadderExact}},
		{"explicit theta", TopKRequest{Theta: &theta}, "ta", true, ms, ewma,
			ladderPlan{active: true, chosen: LadderApprox, level: LadderApprox, theta: 0.25, reason: "explicit theta"}},
		{"resilient", TopKRequest{Resilient: true}, "ta", true, ms, ewma,
			ladderPlan{chosen: LadderExact, level: LadderExact}},
		{"no estimate yet", TopKRequest{}, "ta", true, ms, 0,
			ladderPlan{active: true, chosen: LadderExact, level: LadderExact, reason: "budget 1ms vs engine ewma 0s"}},
		{"exact margin", TopKRequest{}, "ta", true, 600 * ms, ewma,
			ladderPlan{active: true, chosen: LadderExact, level: LadderExact, reason: "budget 600ms vs engine ewma 300ms"}},
		{"approx", TopKRequest{}, "ta", true, 400 * ms, ewma,
			ladderPlan{active: true, chosen: LadderApprox, level: LadderApprox, theta: 0.5, reason: "budget 400ms vs engine ewma 300ms"}},
		{"stale", TopKRequest{}, "ta", true, 100 * ms, ewma,
			ladderPlan{active: true, chosen: LadderStale, stale: true, level: LadderApprox, theta: 0.5,
				reason: "budget 100ms vs engine ewma 300ms", note: staleNote}},
		{"stale with trim", TopKRequest{Trim: 1}, "ta", true, 100 * ms, ewma,
			ladderPlan{active: true, chosen: LadderStale, level: LadderApprox, theta: 0.5,
				reason: "budget 100ms vs engine ewma 300ms", note: staleNote}},
		{"nra approx", TopKRequest{}, "nra", true, 400 * ms, ewma,
			ladderPlan{active: true, chosen: LadderApprox, level: LadderExact,
				reason: "budget 400ms vs engine ewma 300ms", note: nraNote}},
		{"nra stale", TopKRequest{}, "nra", true, 100 * ms, ewma,
			ladderPlan{active: true, chosen: LadderStale, stale: true, level: LadderExact,
				reason: "budget 100ms vs engine ewma 300ms", note: staleNote + nraNote}},
	} {
		if got := planLadder(c.req, c.algo, c.hasDeadline, c.remaining, c.estNs, 0.5); got != c.want {
			t.Errorf("%s: plan = %+v, want %+v", c.name, got, c.want)
		}
	}
}

func TestLadderStaleServesCachedAnswer(t *testing.T) {
	svc, ts := testServer(t, Config{})
	putCatalog(t, ts, "acme", "movies", corpus, "")
	url := ts.URL + "/v1/tenants/acme/catalogs/movies/topk"

	// Prime the stale store with an exact answer.
	status, bFresh, _ := doReqHeaders(t, http.MethodPost, url, `{"k": 2}`, nil)
	if status != http.StatusOK {
		t.Fatalf("prime: %d", status)
	}
	fresh := decode[TopKResponse](t, bFresh)

	// Poison the engine estimate so any realistic budget selects stale.
	svc.adm.serviceNs.Observe(float64(1000 * time.Second))
	status, b, _ := doReqHeaders(t, http.MethodPost, url, `{"k": 2}`,
		map[string]string{DeadlineHeader: "250"})
	if status != http.StatusOK {
		t.Fatalf("stale-rung request: %d: %s", status, b)
	}
	resp := decode[TopKResponse](t, b)
	if resp.Ladder == nil || resp.Ladder.Level != LadderStale {
		t.Fatalf("ladder = %+v, want stale", resp.Ladder)
	}
	if resp.Ladder.AgeMs < 0 {
		t.Errorf("stale age = %d, want >= 0", resp.Ladder.AgeMs)
	}
	if resp.TopK != fresh.TopK || fmt.Sprint(resp.Winners) != fmt.Sprint(fresh.Winners) {
		t.Errorf("stale answer differs from the primed one: %+v vs %+v", resp, fresh)
	}
	if got := statsOf(t, ts).Overload.StaleAnswers; got != 1 {
		t.Errorf("stale_answers = %d, want 1", got)
	}

	// A catalog replacement invalidates the stored answer; with no stale
	// available the ladder falls back to the approximate engine.
	putCatalog(t, ts, "acme", "movies", corpus, "")
	status, b, _ = doReqHeaders(t, http.MethodPost, url, `{"k": 2}`,
		map[string]string{DeadlineHeader: "250"})
	if status != http.StatusOK {
		t.Fatalf("post-invalidate request: %d: %s", status, b)
	}
	resp = decode[TopKResponse](t, b)
	if resp.Ladder == nil || resp.Ladder.Level != LadderApprox {
		t.Errorf("ladder after invalidation = %+v, want approx fallback", resp.Ladder)
	}
	if resp.Ladder != nil && resp.Ladder.Certificate == nil {
		t.Error("approx fallback missing certificate")
	}

	// An append invalidates the stored answer too. A request without a
	// deadline runs exact and stores its answer again, which the next
	// budgeted request serves stale; after the append it falls back to
	// approx.
	if status, b, _ := doReqHeaders(t, http.MethodPost, url, `{"k": 2}`, nil); status != http.StatusOK {
		t.Fatalf("re-prime: %d: %s", status, b)
	}
	level := func() string {
		t.Helper()
		status, b, _ := doReqHeaders(t, http.MethodPost, url, `{"k": 2}`,
			map[string]string{DeadlineHeader: "250"})
		if status != http.StatusOK {
			t.Fatalf("budgeted request: %d: %s", status, b)
		}
		if resp := decode[TopKResponse](t, b); resp.Ladder != nil {
			return resp.Ladder.Level
		}
		return ""
	}
	if got := level(); got != LadderStale {
		t.Fatalf("ladder after re-prime = %q, want stale", got)
	}
	if status, b := doReq(t, http.MethodPost, ts.URL+"/v1/tenants/acme/catalogs/movies/rankings", "d | c | b | a\n"); status != http.StatusOK {
		t.Fatalf("append: %d: %s", status, b)
	}
	if got := level(); got != LadderApprox {
		t.Errorf("ladder after append = %q, want approx fallback", got)
	}
}

func TestLadderApproxUnderModerateBudget(t *testing.T) {
	svc, ts := testServer(t, Config{})
	putCatalog(t, ts, "acme", "movies", deepCorpus, "")
	url := ts.URL + "/v1/tenants/acme/catalogs/movies/topk"

	// EWMA 300ms, budget 400ms: under exact's 2x bar, over approx's 0.5x.
	svc.adm.serviceNs.Observe(float64(300 * time.Millisecond))
	status, b, _ := doReqHeaders(t, http.MethodPost, url, `{"k": 3}`,
		map[string]string{DeadlineHeader: "400"})
	if status != http.StatusOK {
		t.Fatalf("approx-rung request: %d: %s", status, b)
	}
	resp := decode[TopKResponse](t, b)
	if resp.Ladder == nil || resp.Ladder.Level != LadderApprox {
		t.Fatalf("ladder = %+v, want approx", resp.Ladder)
	}
	if resp.Ladder.Certificate == nil || resp.Ladder.Theta <= 0 {
		t.Errorf("approx ladder missing certificate/theta: %+v", resp.Ladder)
	}
	if got := statsOf(t, ts).Overload.ApproxAnswers; got < 1 {
		t.Errorf("approx_answers = %d, want >= 1", got)
	}
}

func TestOverloadStatsAndMetricsExposed(t *testing.T) {
	svc, ts := testServer(t, Config{RatePerSec: 0.1, RateBurst: 1})
	putCatalog(t, ts, "acme", "movies", corpus, "")
	url := ts.URL + "/v1/tenants/acme/catalogs/movies/topk"
	doReqHeaders(t, http.MethodPost, url, `{"k": 2}`, nil) // consumes the burst
	status, _, _ := doReqHeaders(t, http.MethodPost, url, `{"k": 2}`, nil)
	if status != http.StatusTooManyRequests {
		t.Fatalf("second request: %d, want 429", status)
	}

	st, b := doReq(t, http.MethodGet, ts.URL+"/stats", "")
	if st != http.StatusOK {
		t.Fatalf("/stats: %d", st)
	}
	stats := decode[StatsResponse](t, b)
	if stats.Overload.ShedRateLimit != 1 {
		t.Errorf("stats shed_rate_limit = %d, want 1", stats.Overload.ShedRateLimit)
	}
	if stats.Overload.EngineEwmaNs <= 0 {
		t.Errorf("stats engine_ewma_ns = %d, want > 0 after a served query", stats.Overload.EngineEwmaNs)
	}

	st, b = doReq(t, http.MethodGet, ts.URL+"/metrics", "")
	if st != http.StatusOK {
		t.Fatalf("/metrics: %d", st)
	}
	text := string(b)
	if !strings.Contains(text, `rankserve_shed_total{reason="rate_limit",tenant="acme"}`) &&
		!strings.Contains(text, `rankserve_shed_total{tenant="acme",reason="rate_limit"}`) {
		t.Errorf("/metrics missing rankserve_shed_total series:\n%.2000s", text)
	}
	if !strings.Contains(text, "rankserve_queue_depth") {
		t.Error("/metrics missing rankserve_queue_depth gauge")
	}
	_ = svc
}

// TestDrainUnderSaturation is the graceful-shutdown-under-load regression
// test: with the engine slot parked and the wait queue full, BeginDrain must
// (1) fast-fail every queued-but-unstarted request with 503, (2) reject new
// arrivals with 503, and (3) let the in-flight request run to completion —
// no goroutine may be left waiting.
func TestDrainUnderSaturation(t *testing.T) {
	svc, ts := testServer(t, Config{Workers: 1, QueueDepth: 2})
	putCatalog(t, ts, "acme", "movies", deepCorpus, "")
	url := ts.URL + "/v1/tenants/acme/catalogs/movies/topk"

	type result struct {
		status  int
		body    []byte
		elapsed time.Duration
	}

	// Park the only engine slot on a slow chaos-latency query.
	slowDone := make(chan result, 1)
	go func() {
		start := time.Now()
		st, b, _ := doReqHeaders(t, http.MethodPost, url, slowTopKBody(25), nil)
		slowDone <- result{st, b, time.Since(start)}
	}()
	waitUntil(t, "slot occupied", func() bool { return svc.adm.inflight() == 1 })

	// Fill both queue slots with ordinary queries.
	queuedDone := make(chan result, 2)
	for i := 0; i < 2; i++ {
		go func() {
			start := time.Now()
			st, b, _ := doReqHeaders(t, http.MethodPost, url, `{"k": 2}`, nil)
			queuedDone <- result{st, b, time.Since(start)}
		}()
	}
	waitUntil(t, "queue saturated", func() bool { return svc.adm.queueLen() == 2 })

	// Saturated: one more request sheds queue_full before the drain begins.
	if status, b, _ := doReqHeaders(t, http.MethodPost, url, `{"k": 2}`, nil); status != http.StatusTooManyRequests {
		t.Fatalf("pre-drain over-queue request: %d, want 429: %s", status, b)
	}

	// Drain. Both queued waiters must return promptly with 503, well before
	// the parked query's chaos latency would have freed the slot for them.
	svc.BeginDrain()
	for i := 0; i < 2; i++ {
		select {
		case res := <-queuedDone:
			if res.status != http.StatusServiceUnavailable {
				t.Errorf("queued request %d after drain: %d, want 503: %s", i, res.status, res.body)
			}
			er := decode[ErrorResponse](t, res.body)
			if !strings.Contains(er.Error, "draining") {
				t.Errorf("queued request %d error %q does not mention draining", i, er.Error)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("queued request did not fast-fail on drain")
		}
	}
	if got := svc.adm.queueLen(); got != 0 {
		t.Errorf("queue length after drain = %d, want 0", got)
	}

	// New arrivals during the drain are refused outright.
	status, b, _ := doReqHeaders(t, http.MethodPost, url, `{"k": 2}`, nil)
	if status != http.StatusServiceUnavailable {
		t.Errorf("request during drain: %d, want 503: %s", status, b)
	}

	// The in-flight request is not interrupted by the drain.
	select {
	case res := <-slowDone:
		if res.status != http.StatusOK {
			t.Errorf("in-flight request finished %d during drain: %s", res.status, res.body)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("in-flight request never completed after drain")
	}

	// The books: one queue_full shed pre-drain, three draining sheds (two
	// queued waiters aborted + one refused arrival).
	overload := statsOf(t, ts).Overload
	if got := overload.ShedQueueFull; got != 1 {
		t.Errorf("shed_queue_full = %d, want 1", got)
	}
	if got := overload.ShedDraining; got != 3 {
		t.Errorf("shed_draining = %d, want 3", got)
	}
	// BeginDrain is idempotent.
	svc.BeginDrain()
}
