package service

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// TestHandlerAllocCeilings pins the allocations of one warm request per
// endpoint that does work through Service.Handler: request construction, the
// instrument rim (trace identity, root span, labeled series, latency
// observation), the handler and JSON rendering. Allocation counts are exact
// where timings are noisy, so a ceiling catches a regression in the request
// path that a latency benchmark would not resolve. The top-k ceilings are the
// counts once the engines stopped allocating per probe; the aggregate ceiling
// is the count once the request computed its median vector once and local
// Kemenization dropped its margin matrix; the query ceilings also stopped
// paying one slice per singleton bucket of a full ranking or top-k list; the
// write ceilings are the counts once the text codec parsed a body with
// per-parse scratch instead of a map per line and a slice per token. The
// append runs last, so the queries see the four-line corpus.
func TestHandlerAllocCeilings(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector adds allocations")
	}
	h := New(Config{}).Handler()
	const catalog = "/v1/tenants/acme/catalogs/movies"
	for _, c := range []struct {
		name, method, path, body string
		ceiling                  float64
	}{
		{"PUT catalog", http.MethodPut, catalog, corpus, 101},
		{"topk medrank k=2", http.MethodPost, catalog + "/topk", `{"k": 2}`, 158},
		{"topk ta k=2", http.MethodPost, catalog + "/topk", `{"k": 2, "algo": "ta"}`, 140},
		{"aggregate", http.MethodPost, catalog + "/aggregate", `{}`, 182},
		{"POST rankings", http.MethodPost, catalog + "/rankings", "d | c | b | a\n", 95},
	} {
		serve := func() {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(c.method, c.path, strings.NewReader(c.body)))
			if rec.Code != http.StatusOK {
				t.Fatalf("%s = %d: %s", c.name, rec.Code, rec.Body)
			}
		}
		serve() // warm: catalog, series, stale store and cache entries exist
		got := testing.AllocsPerRun(100, serve)
		t.Logf("%s: %.0f allocs per request", c.name, got)
		if got > c.ceiling {
			t.Errorf("%s: %.0f allocs per request, ceiling %.0f", c.name, got, c.ceiling)
		}
	}
}
