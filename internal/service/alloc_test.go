package service

import (
	"net/http"
	"net/http/httptest"
	"runtime/debug"
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
// per-parse scratch instead of a map per line and a slice per token. Every
// ceiling is the count once the engines drew their run state, and the parser
// its read buffer, from a pool, and responses were no longer indented. The
// append runs last, so the queries see the four-line corpus.
func TestHandlerAllocCeilings(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector adds allocations")
	}
	// A collection empties the pools the top-k engines and the parser draw
	// from, so one inside a measurement would count a cold request.
	was := debug.SetGCPercent(-1)
	defer debug.SetGCPercent(was)
	h := New(Config{}).Handler()
	const catalog = "/v1/tenants/acme/catalogs/movies"
	for _, c := range []struct {
		name, method, path, body string
		ceiling                  float64
	}{
		{"PUT catalog", http.MethodPut, catalog, corpus, 95},
		{"topk medrank k=2", http.MethodPost, catalog + "/topk", `{"k": 2}`, 117},
		{"topk ta k=2", http.MethodPost, catalog + "/topk", `{"k": 2, "algo": "ta"}`, 119},
		{"aggregate", http.MethodPost, catalog + "/aggregate", `{}`, 175},
		{"POST rankings", http.MethodPost, catalog + "/rankings", "d | c | b | a\n", 89},
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
