package service

import (
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"sort"
	"strings"
	"testing"

	"repro/internal/telemetry"
)

var updateGolden = flag.Bool("update", false, "rewrite the testdata golden files")

// goldenCorpus is ten elements over six tie-heavy lists: enough depth that
// every engine stops before the end and the chaos plans kill lists mid-scan.
const goldenCorpus = "a b | c | d e f | g | h | i j\n" +
	"b | a c | e | d | f g h | i | j\n" +
	"c | a | b | d | e | f | g | h | i | j\n" +
	"a | b c d | e f | g h i j\n" +
	"d | a | c b | e | g | f | h j | i\n" +
	"b a | c | d | f e | g | h | i | j\n"

// goldenStep is one request of the response golden's script.
type goldenStep struct {
	method, path, body string
}

// goldenScript drives both query endpoints through every engine, trim,
// theta, chaos, metric, Kemenization and robust mode, plus the malformed
// requests the CI server job sends.
func goldenScript() []goldenStep {
	const cat = "/v1/tenants/golden/catalogs/main"
	topk := func(body string) goldenStep { return goldenStep{http.MethodPost, cat + "/topk", body} }
	agg := func(body string) goldenStep { return goldenStep{http.MethodPost, cat + "/aggregate", body} }
	steps := []goldenStep{{http.MethodPut, cat, goldenCorpus}}
	for _, algo := range []string{"medrank", "ta", "nra", "ca"} {
		steps = append(steps,
			topk(fmt.Sprintf(`{"k": 3, "algo": %q}`, algo)),
			topk(fmt.Sprintf(`{"k": 3, "algo": %q, "trim": 2}`, algo)),
			topk(fmt.Sprintf(`{"k": 3, "algo": %q, "resilient": true, "chaos": {"seed": 7, "death_rate": 0.1}}`, algo)),
		)
	}
	steps = append(steps,
		topk(`{"k": 2}`),
		topk(`{"k": 3, "algo": "ca", "cost_ratio": 25}`),
		topk(`{"k": 3, "trim": 1}`),
		topk(`{"k": 3, "algo": "ta", "theta": 0.5}`),
		topk(`{"k": 3, "theta": 0}`),
		topk(`{"k": 4, "algo": "ca", "theta": 0.25, "trim": 1}`),
		topk(`{"k": 3, "algo": "ta", "resilient": true, "trim": 1, "chaos": {"seed": 3, "death_after": 4}}`),
		topk(`{"k": 2, "resilient": true}`),
	)
	for _, metric := range []string{"", "kprof", "fprof", "khaus", "fhaus"} {
		steps = append(steps,
			agg(fmt.Sprintf(`{"metric": %q}`, metric)),
			agg(fmt.Sprintf(`{"metric": %q, "kemenize": false}`, metric)),
		)
	}
	steps = append(steps,
		agg(`{}`),
		agg(`{"robust": {"mode": "trimmed-borda", "trim": 1}}`),
		agg(`{"metric": "fprof", "robust": {"mode": "weighted-median", "trim": 2}}`),
		agg(`{"kemenize": false, "robust": {"mode": "minmax"}}`),
		// The CI server job's 400, 404 and 409 cases, and a few more of the
		// validation rim's answers.
		goldenStep{http.MethodPut, "/v1/tenants/golden/catalogs/strict", "a | b | c | d\na | b\n"},
		topk(`not json`),
		topk(`{"k": 0}`),
		topk(`{"k": 1, "algo": "nope"}`),
		topk(`{"k": 1, "algo": "nra", "theta": 0.2}`),
		topk(`{"k": 1, "algo": "ca", "cost_ratio": -1}`),
		topk(`{"k": 2, "trim": -1}`),
		topk(`{"k": 2, "trim": 9}`),
		topk(`{"k": 11}`),
		topk(``),
		topk(`{"k": 1, "bogus": 1}`),
		topk(`{"k": 1, "chaos": {"seed": 1}}`),
		topk(`{"k": 1, "theta": -1}`),
		topk(`{"k": 1, "theta": 0.1, "resilient": true}`),
		agg(`{"metric": "nope"}`),
		agg(`{"robust": {"mode": "nope"}}`),
		agg(`{"robust": {"mode": "minmax", "trim": 9}}`),
		goldenStep{http.MethodPost, "/v1/tenants/nobody/catalogs/main/topk", `{"k": 1}`},
		goldenStep{http.MethodPost, "/v1/tenants/golden/catalogs/nosuch/aggregate", `{}`},
		goldenStep{http.MethodGet, "/v1/tenants/golden/catalogs/nosuch", ""},
		goldenStep{http.MethodPost, cat + "/rankings", "x | y | z | w"},
		goldenStep{http.MethodPost, cat + "/rankings", "a b c d e f g h i x"},
		// An append, then a query over the grown catalog.
		goldenStep{http.MethodPost, cat + "/rankings", "j | i | h | g | f | e | d | c | b | a"},
		topk(`{"k": 3}`),
		agg(`{}`),
	)
	return steps
}

// volatileFields are the response fields that read the clock.
var volatileFields = regexp.MustCompile(`"(elapsed_ns|age_ms)":\d+`)

// renderSpanTree writes a trace as one line per span, indented under its
// parent: name, parent's name and integer attributes, siblings by name.
func renderSpanTree(b *strings.Builder, tr telemetry.Trace) {
	names := map[uint64]string{0: "-"}
	for _, s := range tr.Spans {
		names[s.SpanID] = s.Name
	}
	line := func(s telemetry.SpanRecord) string {
		keys := make([]string, 0, len(s.Attrs))
		for k := range s.Attrs {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		attrs := make([]string, len(keys))
		for i, k := range keys {
			attrs[i] = fmt.Sprintf("%s=%d", k, s.Attrs[k])
		}
		return fmt.Sprintf("%s <- %s {%s}", s.Name, names[s.ParentID], strings.Join(attrs, " "))
	}
	var walk func(parent uint64, depth int)
	walk = func(parent uint64, depth int) {
		kids := tr.Children(parent)
		sort.Slice(kids, func(i, j int) bool { return line(kids[i]) < line(kids[j]) })
		for _, k := range kids {
			fmt.Fprintf(b, "%s%s\n", strings.Repeat("  ", depth), line(k))
			walk(k.SpanID, depth+1)
		}
	}
	walk(0, 1)
}

// TestQueryResponsesAndSpanTreesGolden pins, for a fixed script, every
// answer's status, Retry-After header and body byte for byte (clock fields
// zeroed), and each sampled query's span tree. It runs at GOMAXPROCS=1:
// BestOfInputsParallel probes (i, j) and (j, i) from different workers, so
// on more cores the cache's hit/miss split depends on scheduling.
func TestQueryResponsesAndSpanTreesGolden(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	telemetry.ResetRecentTraces()
	defer telemetry.ResetRecentTraces()
	h := New(Config{}).Handler()

	var b strings.Builder
	for i, st := range goldenScript() {
		req := httptest.NewRequest(st.method, st.path, strings.NewReader(st.body))
		query := strings.HasSuffix(st.path, "/topk") || strings.HasSuffix(st.path, "/aggregate")
		traceID := telemetry.TraceIDString(uint64(i + 1))
		if query {
			req.Header.Set(TraceIDHeader, traceID)
			req.Header.Set(TraceSampleHeader, "1")
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		fmt.Fprintf(&b, "== %d %s %s %s\n", i, st.method, st.path, strings.ReplaceAll(st.body, "\n", `\n`))
		fmt.Fprintf(&b, "status: %d\n", rec.Code)
		fmt.Fprintf(&b, "retry-after: %s\n", rec.Header().Get("Retry-After"))
		fmt.Fprintf(&b, "body: %s", volatileFields.ReplaceAll(rec.Body.Bytes(), []byte(`"$1":0`)))
		if query {
			tr, ok := telemetry.FindTrace(traceID)
			if !ok {
				t.Fatalf("step %d: no span tree for forced-sampled trace %s", i, traceID)
			}
			b.WriteString("spans:\n")
			renderSpanTree(&b, tr)
		}
	}

	path := filepath.Join("testdata", "query_responses.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got := b.String(); got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("%s differs at line %d:\n got: %s\nwant: %s", path, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("%s differs in length: got %d lines, want %d", path, len(gl), len(wl))
	}
}
