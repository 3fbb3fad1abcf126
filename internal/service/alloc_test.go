package service

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// TestHandlerAllocCeilings pins the allocations of one warm request per query
// endpoint through Service.Handler: request construction, the instrument rim
// (trace identity, root span, labeled series, latency observation), the
// handler and JSON rendering. Allocation counts are exact where timings are
// noisy, so a ceiling catches a regression in the request path that a
// latency benchmark would not resolve. Each ceiling is the count measured
// before the service recorded every tally exactly once.
func TestHandlerAllocCeilings(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector adds allocations")
	}
	svc := New(Config{})
	h := svc.Handler()
	put := httptest.NewRequest(http.MethodPut, "/v1/tenants/acme/catalogs/movies", strings.NewReader(corpus))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, put)
	if rec.Code != http.StatusOK {
		t.Fatalf("PUT catalog = %d: %s", rec.Code, rec.Body)
	}
	for _, c := range []struct {
		name, path, body string
		ceiling          float64
	}{
		{"topk medrank k=2", "/v1/tenants/acme/catalogs/movies/topk", `{"k": 2}`, 174},
		{"topk ta k=2", "/v1/tenants/acme/catalogs/movies/topk", `{"k": 2, "algo": "ta"}`, 148},
		{"aggregate", "/v1/tenants/acme/catalogs/movies/aggregate", `{}`, 231},
	} {
		serve := func() {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, c.path, strings.NewReader(c.body)))
			if rec.Code != http.StatusOK {
				t.Fatalf("%s = %d: %s", c.name, rec.Code, rec.Body)
			}
		}
		serve() // warm: series, stale store and cache entries exist
		got := testing.AllocsPerRun(100, serve)
		if got > c.ceiling {
			t.Errorf("%s: %.0f allocs per request, ceiling %.0f", c.name, got, c.ceiling)
		}
	}
}
