package service

import (
	"encoding/json"
	"math/big"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// fuzzCatalog is the catalog every request fuzz target queries.
const fuzzCatalog = "/v1/tenants/fuzz/catalogs/main"

// fuzzHandler is a service holding the test corpus at fuzzCatalog. Every
// request runs under a deadline of at most 50 ms, so a chaos clause's
// injected latency cannot stall an input.
func fuzzHandler(f *testing.F) http.Handler {
	h := New(Config{MaxDeadline: 50 * time.Millisecond}).Handler()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPut, fuzzCatalog, strings.NewReader(corpus)))
	if rec.Code != http.StatusOK {
		f.Fatalf("PUT catalog = %d: %s", rec.Code, rec.Body)
	}
	return h
}

// serveFuzz posts body to path and checks what every answer owes its
// client: a non-200 body is an ErrorResponse that names the error, and a
// 429 says when to come back.
func serveFuzz(t *testing.T, h http.Handler, path, body string) *httptest.ResponseRecorder {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)))
	if rec.Code != http.StatusOK {
		var e ErrorResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e.Error == "" {
			t.Fatalf("status %d: body %q is not an ErrorResponse with an error (%v)", rec.Code, rec.Body, err)
		}
	}
	if rec.Code == http.StatusTooManyRequests && rec.Header().Get("Retry-After") == "" {
		t.Fatalf("429 without Retry-After: %s", rec.Body)
	}
	return rec
}

func FuzzTopKRequest(f *testing.F) {
	for _, body := range []string{
		`{"k": 2}`,
		`{"k": 2, "algo": "ta"}`,
		`{"k": 2, "algo": "nra"}`,
		`{"k": 2, "algo": "ca"}`,
		`{"k": 2, "algo": "ca", "cost_ratio": 25}`,
		`{"k": 2, "algo": "nra", "resilient": true, "chaos": {"seed": 7, "death_rate": 0.05}}`,
		`{"k": 2, "resilient": true, "chaos": {"seed": 7, "death_rate": 0.05}}`,
		`{"k": 2, "resilient": true, "chaos": {"seed": 1, "transient_rate": 0.5, "latency_ms": 100000}}`,
		`{"k": 2, "trim": 1}`,
		`{"k": 3, "algo": "ta", "theta": 0.25}`,
		`{"k": 2, "algo": "ta", "cost_ratio": 9223372036854775807}`,
		`not json`,
		`{"k": 0}`,
		`{"k": 1, "algo": "nope"}`,
		`{"k": 1, "algo": "nra", "theta": 0.2}`,
		`{"k": 1, "algo": "ca", "cost_ratio": -1}`,
		`{"k": 2, "trim": -1}`,
		`{"k": 2, "trim": 9}`,
	} {
		f.Add(body)
	}
	h := fuzzHandler(f)
	f.Fuzz(func(t *testing.T, body string) {
		rec := serveFuzz(t, h, fuzzCatalog+"/topk", body)
		if rec.Code != http.StatusOK {
			return
		}
		var req TopKRequest
		if err := json.NewDecoder(strings.NewReader(body)).Decode(&req); err != nil {
			t.Fatalf("answered 200 to a body that does not decode: %v", err)
		}
		var resp TopKResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatalf("decoding answer %s: %v", rec.Body, err)
		}
		if len(resp.Winners) != req.K {
			t.Fatalf("k=%d answered %d winners: %s", req.K, len(resp.Winners), rec.Body)
		}
		// The cost in exact arithmetic: a wrapped int shows as a mismatch.
		a := resp.Access
		want := new(big.Int).Mul(big.NewInt(int64(a.CostRatio)), big.NewInt(int64(a.Random)))
		want.Add(want, big.NewInt(int64(a.Sequential)))
		if a.MiddlewareCost < 0 || want.Cmp(big.NewInt(int64(a.MiddlewareCost))) != 0 {
			t.Fatalf("middleware_cost %d, want sequential + cost_ratio·random = %v: %+v", a.MiddlewareCost, want, a)
		}
	})
}

func FuzzAggregateRequest(f *testing.F) {
	for _, body := range []string{
		`{}`,
		`{"metric": "fhaus"}`,
		`{"metric": "khaus", "kemenize": false}`,
		`{"robust": {"mode": "trimmed-borda", "trim": 1}}`,
		`{"robust": {"mode": "weighted-median", "trim": 2}}`,
		`{"robust": {"mode": "minmax"}}`,
		`{"metric": "nope"}`,
		`{"robust": {"mode": "nope"}}`,
		`{"robust": {"mode": "minmax", "trim": 9}}`,
		`not json`,
	} {
		f.Add(body)
	}
	h := fuzzHandler(f)
	f.Fuzz(func(t *testing.T, body string) {
		rec := serveFuzz(t, h, fuzzCatalog+"/aggregate", body)
		if rec.Code != http.StatusOK {
			return
		}
		var resp AggregateResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatalf("decoding answer %s: %v", rec.Body, err)
		}
	})
}

func FuzzRequestBudget(f *testing.F) {
	for _, h := range []string{"", "5000", "60000", "1", "0", "-5", "1.5", "nope", "9223372036854", "9223372036855", "9223372036854775807"} {
		f.Add(h)
	}
	const maxDeadline = 5 * time.Second
	svc := New(Config{MaxDeadline: maxDeadline})
	f.Fuzz(func(t *testing.T, h string) {
		budget, ok, msg := svc.requestBudget(&http.Request{Header: http.Header{DeadlineHeader: []string{h}}})
		if ok && (budget <= 0 || budget > maxDeadline) {
			t.Fatalf("%s=%q: budget %v outside (0, %v]", DeadlineHeader, h, budget, maxDeadline)
		}
		if !ok && msg == "" {
			t.Fatalf("%s=%q rejected without a message", DeadlineHeader, h)
		}
	})
}
