package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"time"

	"repro/internal/aggregate"
	"repro/internal/cache"
	"repro/internal/faults"
	"repro/internal/guard"
	"repro/internal/metrics"
	"repro/internal/ranking"
	"repro/internal/robust"
	"repro/internal/service/debugserve"
	"repro/internal/telemetry"
	"repro/internal/topk"
)

// ErrorResponse is the JSON body of every non-2xx answer: a summary line
// plus the structured defects behind it, mirroring the guard layer's
// ErrorList shape so CLI and HTTP clients parse rejections the same way.
type ErrorResponse struct {
	Error   string         `json:"error"`
	Defects []guard.Defect `json:"defects,omitempty"`
	Dropped int            `json:"dropped,omitempty"`
	// RetryAfterS mirrors the Retry-After response header on shed requests:
	// the client's hint for when capacity is expected back, in seconds.
	RetryAfterS int `json:"retry_after_s,omitempty"`
}

// apiError carries a status code and structured defects up from helpers to
// the handler rim, where it is rendered as an ErrorResponse.
type apiError struct {
	status  int
	msg     string
	defects []guard.Defect
	dropped int
	// retryAfter, when positive, adds a Retry-After header (and the
	// RetryAfterS body field) to the rendered error — set on shed requests.
	retryAfter time.Duration
}

func (e *apiError) Error() string { return e.msg }

// fail builds an apiError with one optional defect message.
func fail(status int, format string, args ...any) *apiError {
	return &apiError{status: status, msg: fmt.Sprintf(format, args...)}
}

// IngestResponse reports one catalog submit/append: how much was stored and
// what lenient parsing had to repair or drop.
type IngestResponse struct {
	Tenant   string         `json:"tenant"`
	Catalog  string         `json:"catalog"`
	Rankings int            `json:"rankings"`
	Elements int            `json:"elements"`
	Mode     string         `json:"mode"`
	Appended int            `json:"appended,omitempty"`
	Defects  []guard.Defect `json:"defects,omitempty"`
	Dropped  int            `json:"dropped,omitempty"`
}

// CatalogInfo describes one stored catalog.
type CatalogInfo struct {
	Tenant   string   `json:"tenant"`
	Catalog  string   `json:"catalog"`
	Rankings int      `json:"rankings"`
	Elements int      `json:"elements"`
	Names    []string `json:"names,omitempty"`
}

// ChaosPlan is the optional fault-injection clause of a resilient top-k
// request: it wraps every list source in a deterministic injector, so
// degraded-mode behavior is reachable (and replayable) over HTTP exactly as
// it is in the chaos experiments.
type ChaosPlan struct {
	Seed          int64   `json:"seed"`
	TransientRate float64 `json:"transient_rate,omitempty"`
	DeathRate     float64 `json:"death_rate,omitempty"`
	DeathAfter    int     `json:"death_after,omitempty"`
	// LatencyMs adds a fixed per-access latency to every list source,
	// making query duration deterministic and controllable — the knob the
	// overload and drain tests use to hold engine slots busy.
	LatencyMs int64 `json:"latency_ms,omitempty"`
}

// TopKRequest asks for the top k elements of a catalog.
type TopKRequest struct {
	K int `json:"k"`
	// Algo selects the engine: "medrank" (default), "ta", "nra" (no random
	// access: interval certification from sorted access only), or "ca" (the
	// combined algorithm: NRA accumulation with a random-access resolution
	// every ~CostRatio sorted rounds).
	Algo string `json:"algo,omitempty"`
	// CostRatio is the FLN cR/cS weight used to schedule CA's random accesses
	// and to price the response's middleware cost. 0 means the engine default
	// (10 for ta/ca, 0 — the NRA regime — for medrank/nra); a negative value
	// or one above topk.MaxCostRatio is an error.
	CostRatio int `json:"cost_ratio,omitempty"`
	// Resilient runs the degraded-mode engine over fallible sources with
	// bounded retries; with Chaos set, faults are injected deterministically.
	Resilient bool       `json:"resilient,omitempty"`
	Chaos     *ChaosPlan `json:"chaos,omitempty"`
	// Trim drops this many least-reliable lists (by reliability weight under
	// the default kprof metric) before the query runs. Composes with the
	// resilient path: degraded annotations and quality intervals then reflect
	// the post-trim voter set, with lost-list indices reported in the
	// original catalog's index space.
	Trim int `json:"trim,omitempty"`
	// Theta, when set, explicitly requests θ-approximate TA with this slack,
	// whatever Algo asks for and deadline or not: the response carries the
	// FLN (1+θ) certificate and prices and labels the run as TA. Theta 0 is
	// exact TA with a certificate attached. Incompatible with resilient mode.
	Theta *float64 `json:"theta,omitempty"`
}

// TrimSummary annotates a reliability-trimmed query: which lists were
// dropped, how many survived, and every original list's reliability weight.
type TrimSummary struct {
	// Dropped holds the trimmed lists' original catalog indices, ascending.
	Dropped []int `json:"dropped"`
	// Survivors is the number of lists the query actually ran over.
	Survivors int `json:"survivors"`
	// Weights holds every ORIGINAL list's reliability weight (normalized to
	// sum to 1), dropped lists included.
	Weights []float64 `json:"weights"`
}

// AccessSummary is the wire form of a query's access accounting. CostRatio is
// the effective cR/cS weight the query ran under and MiddlewareCost the FLN
// cost cs·sequential + cr·random at (cs=1, cr=CostRatio).
type AccessSummary struct {
	Sequential     int `json:"sequential"`
	Random         int `json:"random"`
	BucketIOs      int `json:"bucket_ios"`
	MaxDepth       int `json:"max_depth"`
	CostRatio      int `json:"cost_ratio"`
	MiddlewareCost int `json:"middleware_cost"`
}

// TopKResponse is the answer to a TopKRequest.
type TopKResponse struct {
	Winners  []string       `json:"winners"`
	Medians  []float64      `json:"medians"`
	TopK     string         `json:"topk"`
	Access   AccessSummary  `json:"access"`
	Degraded *topk.Degraded `json:"degraded,omitempty"`
	Trim     *TrimSummary   `json:"trim,omitempty"`
	// Ladder annotates answers served under overload-ladder control (a
	// deadline was in force or θ was requested): which rung answered, the
	// approximation certificate, and — for stale answers — the age.
	Ladder    *LadderInfo `json:"ladder,omitempty"`
	ElapsedNs int64       `json:"elapsed_ns"`
}

// RobustClause is the optional hostile-voter-robust clause of an aggregation
// request: score every input list's reliability, drop the trim least-reliable,
// and aggregate the survivors under the selected robust objective.
type RobustClause struct {
	// Mode selects the robust engine: trimmed-borda, weighted-median, or
	// minmax.
	Mode string `json:"mode"`
	// Trim drops this many least-reliable lists before aggregating.
	Trim int `json:"trim,omitempty"`
}

// AggregateRequest asks for a full aggregation of a catalog.
type AggregateRequest struct {
	// Metric names the pairwise distance: kprof (default), fprof, khaus,
	// fhaus.
	Metric string `json:"metric,omitempty"`
	// Kemenize applies local Kemenization to the median aggregate
	// (default true unless explicitly false).
	Kemenize *bool `json:"kemenize,omitempty"`
	// Robust additionally runs a hostile-voter-robust aggregation and
	// annotates the response with per-list reliability weights and the
	// trimmed list indices.
	Robust *RobustClause `json:"robust,omitempty"`
}

// RobustResult is the robust clause's answer: the robust consensus with its
// reliability forensics.
type RobustResult struct {
	Mode    string `json:"mode"`
	Trim    int    `json:"trim"`
	Ranking string `json:"ranking"`
	// SumDistance and MaxDistance are the robust aggregate's summed and worst
	// per-list distance over the SURVIVING lists.
	SumDistance float64 `json:"sum_distance"`
	MaxDistance float64 `json:"max_distance"`
	// Weights holds every original list's reliability weight (normalized to
	// sum to 1), trimmed lists included.
	Weights []float64 `json:"weights"`
	// Trimmed holds the dropped lists' original indices, ascending.
	Trimmed []int `json:"trimmed,omitempty"`
	// Survivors is the number of lists the robust aggregate covers.
	Survivors int `json:"survivors"`
}

// RankedCandidate is one candidate consensus ranking with its summed
// distance to the inputs under the requested metric.
type RankedCandidate struct {
	Ranking     string  `json:"ranking"`
	SumDistance float64 `json:"sum_distance"`
}

// AggregateResponse is the answer to an AggregateRequest: the median
// aggregate, the best single input, and (optionally) the locally Kemenized
// refinement of the median aggregate.
type AggregateResponse struct {
	Metric    string             `json:"metric"`
	Medians   map[string]float64 `json:"medians"`
	Median    RankedCandidate    `json:"median"`
	BestInput int                `json:"best_input"`
	Best      RankedCandidate    `json:"best"`
	Kemenized *RankedCandidate   `json:"kemenized,omitempty"`
	Robust    *RobustResult      `json:"robust,omitempty"`
	ElapsedNs int64              `json:"elapsed_ns"`
}

// TenantStats is one tenant's row in the /stats snapshot. A deleted tenant's
// cache attribution survives for one snapshot cycle with Deleted set, so
// tenant-churning load tests don't under-report cache traffic.
type TenantStats struct {
	Name         string  `json:"name"`
	Catalogs     int     `json:"catalogs"`
	Rankings     int     `json:"rankings"`
	CacheHits    int64   `json:"cache_hits"`
	CacheMisses  int64   `json:"cache_misses"`
	CacheHitRate float64 `json:"cache_hit_rate"`
	Deleted      bool    `json:"deleted,omitempty"`
}

// CacheStats is the shared cache's totals plus derived hit rate.
type CacheStats struct {
	cache.Stats
	HitRate float64 `json:"hit_rate"`
}

// EndpointStats is one endpoint's request/error tally, summed over the
// rankserve_requests_total series (errors are the non-200 statuses), plus
// latency percentiles from rankserve_request_latency_ns merged across
// tenants (upper-bound quantiles; zero when telemetry is disabled, since
// latency observations are gated).
type EndpointStats struct {
	Requests int64 `json:"requests"`
	Errors   int64 `json:"errors"`
	P50Ns    int64 `json:"p50_ns,omitempty"`
	P95Ns    int64 `json:"p95_ns,omitempty"`
	P99Ns    int64 `json:"p99_ns,omitempty"`
}

// OverloadStats is the /stats view of the admission pipeline: shed tallies by
// reason (rankserve_shed_total), ladder degradations by level
// (rankserve_degraded_answers_total), and the live queue state.
type OverloadStats struct {
	ShedRateLimit int64 `json:"shed_rate_limit"`
	ShedQueueFull int64 `json:"shed_queue_full"`
	ShedDeadline  int64 `json:"shed_deadline"`
	ShedDraining  int64 `json:"shed_draining"`
	ApproxAnswers int64 `json:"approx_answers"`
	StaleAnswers  int64 `json:"stale_answers"`
	QueueDepth    int   `json:"queue_depth"`
	Inflight      int   `json:"inflight"`
	// EngineEwmaNs is the admission layer's engine service-time estimate.
	EngineEwmaNs int64 `json:"engine_ewma_ns"`
}

// StatsResponse is the /stats snapshot. DegradedQueries sums
// rankserve_degraded_queries_total; Server holds the per-endpoint latency
// histograms as http.<op>.latency_ns; Telemetry is the process-wide default
// registry.
type StatsResponse struct {
	UptimeNs        int64                    `json:"uptime_ns"`
	Tenants         []TenantStats            `json:"tenants"`
	Cache           CacheStats               `json:"cache"`
	Endpoints       map[string]EndpointStats `json:"endpoints"`
	DegradedQueries int64                    `json:"degraded_queries"`
	Overload        OverloadStats            `json:"overload"`
	Telemetry       telemetry.Snapshot       `json:"telemetry"`
	Server          telemetry.Snapshot       `json:"server"`
}

// Handler returns the service's HTTP API mux, with the diagnostics surface
// (expvar, pprof) mounted under /debug/ via debugserve.
func (s *Service) Handler() http.Handler { return s.mux }

// newMux builds the HTTP API, recording each instrumented op: /stats reports
// a row for every endpoint, served or not.
func (s *Service) newMux() *http.ServeMux {
	mux := http.NewServeMux()
	handle := func(pattern, op string, h apiHandler) {
		s.ops = append(s.ops, op)
		mux.HandleFunc(pattern, s.instrument(op, h))
	}
	handle("GET /healthz", "healthz", s.handleHealthz)
	handle("GET /stats", "stats", s.handleStats)
	handle("PUT /v1/tenants/{tenant}/catalogs/{catalog}", "put_catalog", s.handlePutCatalog)
	handle("POST /v1/tenants/{tenant}/catalogs/{catalog}/rankings", "append_rankings", s.handleAppendRankings)
	handle("GET /v1/tenants/{tenant}/catalogs/{catalog}", "get_catalog", s.handleGetCatalog)
	handle("DELETE /v1/tenants/{tenant}/catalogs/{catalog}", "delete_catalog", s.handleDeleteCatalog)
	handle("GET /v1/tenants/{tenant}/catalogs", "list_catalogs", s.handleListCatalogs)
	handle("DELETE /v1/tenants/{tenant}", "delete_tenant", s.handleDeleteTenant)
	handle("POST /v1/tenants/{tenant}/catalogs/{catalog}/topk", "topk", s.handleTopK)
	handle("POST /v1/tenants/{tenant}/catalogs/{catalog}/aggregate", "aggregate", s.handleAggregate)
	// The metrics scrape is deliberately uninstrumented: scrapers poll it on
	// their own cadence and must not perturb the request series they read.
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	debugserve.Register(mux)
	return mux
}

// apiHandler is a handler that returns its result (or structured failure)
// instead of writing it, so the rim can render, count, and time uniformly.
type apiHandler func(w http.ResponseWriter, r *http.Request) (any, *apiError)

// writeJSON renders v as compact JSON, one value per body ending in a
// newline. Indenting would re-scan every encoded answer for whitespace no
// client reads.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v) //nolint:errcheck // client gone; nothing to do
}

// parseModeOptions reads the ?mode= and ?repair= ingestion query params.
func (s *Service) parseModeOptions(r *http.Request) (ranking.ParseOptions, string, *apiError) {
	opts := ranking.ParseOptions{Limits: s.cfg.Limits}
	mode := r.URL.Query().Get("mode")
	switch mode {
	case "", "strict":
		mode = "strict"
	case "lenient":
		opts.Lenient = true
	default:
		return opts, "", fail(http.StatusBadRequest, "unknown mode %q (want strict or lenient)", mode)
	}
	if rep := r.URL.Query().Get("repair"); rep != "" {
		pol, err := guard.ParseRepairPolicy(rep)
		if err != nil {
			return opts, "", fail(http.StatusBadRequest, "%v", err)
		}
		opts.Repair = pol
	}
	return opts, mode, nil
}

// readBodyErr converts a body-read failure into the right admission error:
// the body cap maps to 413 with a structured defect.
func readBodyErr(err error) *apiError {
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		e := fail(http.StatusRequestEntityTooLarge, "request body exceeds %d bytes", tooLarge.Limit)
		e.defects = []guard.Defect{{Msg: e.msg}}
		return e
	}
	return fail(http.StatusBadRequest, "reading request body: %v", err)
}

// ingest parses a request body of ranking lines under the tenant's admission
// limits and parse mode.
func (s *Service) ingest(r *http.Request) ([]*ranking.PartialRanking, *ranking.Domain, *guard.ErrorList, string, *apiError) {
	opts, mode, apiErr := s.parseModeOptions(r)
	if apiErr != nil {
		return nil, nil, nil, "", apiErr
	}
	rankings, dom, report, err := ranking.ParseLinesWith(r.Body, opts)
	if err != nil {
		var maxErr *http.MaxBytesError
		if errors.As(err, &maxErr) {
			return nil, nil, nil, "", readBodyErr(err)
		}
		e := fail(http.StatusBadRequest, "%v", err)
		return nil, nil, nil, "", e
	}
	return rankings, dom, report, mode, nil
}

func (s *Service) handleHealthz(_ http.ResponseWriter, _ *http.Request) (any, *apiError) {
	return map[string]string{"status": "ok"}, nil
}

// handlePutCatalog registers or replaces a catalog from a text-codec body of
// ranking lines.
func (s *Service) handlePutCatalog(_ http.ResponseWriter, r *http.Request) (any, *apiError) {
	tenantName, catalogName := r.PathValue("tenant"), r.PathValue("catalog")
	rankings, dom, report, mode, apiErr := s.ingest(r)
	if apiErr != nil {
		return nil, apiErr
	}
	if len(rankings) == 0 {
		e := fail(http.StatusBadRequest, "no valid ranking lists in request body")
		if report != nil {
			e.defects, e.dropped = report.Defects, report.Dropped
		}
		return nil, e
	}
	t, ok := s.tenantFor(tenantName, true)
	if !ok {
		e := fail(http.StatusTooManyRequests, "tenant limit %d reached", s.cfg.MaxTenants)
		e.defects = []guard.Defect{{Msg: e.msg}}
		return nil, e
	}
	if !t.putCatalog(catalogName, &catalog{dom: dom, rankings: rankings}, s.cfg.MaxCatalogsPerTenant) {
		e := fail(http.StatusTooManyRequests, "catalog limit %d reached for tenant %q", s.cfg.MaxCatalogsPerTenant, tenantName)
		e.defects = []guard.Defect{{Msg: e.msg}}
		return nil, e
	}
	s.stale.invalidate(tenantName, catalogName)
	resp := IngestResponse{
		Tenant:   tenantName,
		Catalog:  catalogName,
		Rankings: len(rankings),
		Elements: dom.Size(),
		Mode:     mode,
	}
	if report != nil {
		resp.Defects, resp.Dropped = report.Defects, report.Dropped
	}
	return resp, nil
}

// handleAppendRankings submits additional ranking lists to an existing
// catalog; the new lists must cover the catalog's domain (by element name).
func (s *Service) handleAppendRankings(_ http.ResponseWriter, r *http.Request) (any, *apiError) {
	tenantName, catalogName := r.PathValue("tenant"), r.PathValue("catalog")
	t, ok := s.tenantFor(tenantName, false)
	if !ok {
		return nil, fail(http.StatusNotFound, "unknown tenant %q", tenantName)
	}
	old, ok := t.getCatalog(catalogName)
	if !ok {
		return nil, fail(http.StatusNotFound, "unknown catalog %q", catalogName)
	}
	newRankings, newDom, report, mode, apiErr := s.ingest(r)
	if apiErr != nil {
		return nil, apiErr
	}
	if len(newRankings) == 0 {
		e := fail(http.StatusBadRequest, "no valid ranking lists in request body")
		if report != nil {
			e.defects, e.dropped = report.Defects, report.Dropped
		}
		return nil, e
	}
	remapped, err := remapToDomain(old.dom, newDom, newRankings)
	if err != nil {
		return nil, fail(http.StatusConflict, "%v", err)
	}
	if !s.cfg.Limits.RankingsOK(len(old.rankings) + len(remapped)) {
		e := fail(http.StatusRequestEntityTooLarge, "catalog would exceed ranking limit %d", s.cfg.Limits.MaxRankings)
		e.defects = []guard.Defect{{Msg: e.msg}}
		return nil, e
	}
	merged := make([]*ranking.PartialRanking, 0, len(old.rankings)+len(remapped))
	merged = append(merged, old.rankings...)
	merged = append(merged, remapped...)
	// Re-fetch under the write path: a concurrent replace wins over a stale
	// append base, but the swap itself is atomic either way.
	if !t.putCatalog(catalogName, &catalog{dom: old.dom, rankings: merged}, s.cfg.MaxCatalogsPerTenant) {
		return nil, fail(http.StatusTooManyRequests, "catalog limit reached")
	}
	s.stale.invalidate(tenantName, catalogName)
	resp := IngestResponse{
		Tenant:   tenantName,
		Catalog:  catalogName,
		Rankings: len(merged),
		Elements: old.dom.Size(),
		Mode:     mode,
		Appended: len(remapped),
	}
	if report != nil {
		resp.Defects, resp.Dropped = report.Defects, report.Dropped
	}
	return resp, nil
}

func (s *Service) handleGetCatalog(_ http.ResponseWriter, r *http.Request) (any, *apiError) {
	t, ok := s.tenantFor(r.PathValue("tenant"), false)
	if !ok {
		return nil, fail(http.StatusNotFound, "unknown tenant %q", r.PathValue("tenant"))
	}
	c, ok := t.getCatalog(r.PathValue("catalog"))
	if !ok {
		return nil, fail(http.StatusNotFound, "unknown catalog %q", r.PathValue("catalog"))
	}
	return CatalogInfo{
		Tenant:   t.name,
		Catalog:  r.PathValue("catalog"),
		Rankings: len(c.rankings),
		Elements: c.dom.Size(),
		Names:    c.dom.Names(),
	}, nil
}

func (s *Service) handleDeleteCatalog(_ http.ResponseWriter, r *http.Request) (any, *apiError) {
	t, ok := s.tenantFor(r.PathValue("tenant"), false)
	if !ok {
		return nil, fail(http.StatusNotFound, "unknown tenant %q", r.PathValue("tenant"))
	}
	if !t.deleteCatalog(r.PathValue("catalog")) {
		return nil, fail(http.StatusNotFound, "unknown catalog %q", r.PathValue("catalog"))
	}
	s.stale.invalidate(t.name, r.PathValue("catalog"))
	return map[string]string{"deleted": r.PathValue("catalog")}, nil
}

func (s *Service) handleListCatalogs(_ http.ResponseWriter, r *http.Request) (any, *apiError) {
	t, ok := s.tenantFor(r.PathValue("tenant"), false)
	if !ok {
		return nil, fail(http.StatusNotFound, "unknown tenant %q", r.PathValue("tenant"))
	}
	return map[string]any{"tenant": t.name, "catalogs": t.catalogNames()}, nil
}

func (s *Service) handleDeleteTenant(_ http.ResponseWriter, r *http.Request) (any, *apiError) {
	if !s.deleteTenant(r.PathValue("tenant")) {
		return nil, fail(http.StatusNotFound, "unknown tenant %q", r.PathValue("tenant"))
	}
	return map[string]string{"deleted": r.PathValue("tenant")}, nil
}

// decodeJSONBody strictly decodes one JSON document into v.
func decodeJSONBody(r *http.Request, v any) *apiError {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		if err == io.EOF {
			return fail(http.StatusBadRequest, "empty request body (want a JSON document)")
		}
		var maxErr *http.MaxBytesError
		if errors.As(err, &maxErr) {
			return readBodyErr(err)
		}
		return fail(http.StatusBadRequest, "decoding request: %v", err)
	}
	return nil
}

// lookupCatalog resolves the request's tenant and catalog path segments.
func (s *Service) lookupCatalog(r *http.Request) (*tenant, *catalog, *apiError) {
	t, ok := s.tenantFor(r.PathValue("tenant"), false)
	if !ok {
		return nil, nil, fail(http.StatusNotFound, "unknown tenant %q", r.PathValue("tenant"))
	}
	c, ok := t.getCatalog(r.PathValue("catalog"))
	if !ok {
		return nil, nil, fail(http.StatusNotFound, "unknown catalog %q", r.PathValue("catalog"))
	}
	return t, c, nil
}

func (s *Service) handleTopK(_ http.ResponseWriter, r *http.Request) (any, *apiError) {
	t, c, apiErr := s.lookupCatalog(r)
	if apiErr != nil {
		return nil, apiErr
	}
	var req TopKRequest
	if apiErr := decodeJSONBody(r, &req); apiErr != nil {
		return nil, apiErr
	}
	if req.K < 1 || req.K > c.dom.Size() {
		return nil, fail(http.StatusBadRequest, "k=%d out of range [1,%d]", req.K, c.dom.Size())
	}
	if err := topk.CheckAlgo(req.Algo); err != nil {
		return nil, fail(http.StatusBadRequest, "%v", err)
	}
	if req.CostRatio < 0 || req.CostRatio > topk.MaxCostRatio {
		return nil, fail(http.StatusBadRequest, "cost_ratio=%d out of range [0,%d]", req.CostRatio, topk.MaxCostRatio)
	}
	if req.Chaos != nil && !req.Resilient {
		return nil, fail(http.StatusBadRequest, "chaos requires resilient mode")
	}
	if req.Trim < 0 || req.Trim >= len(c.rankings) {
		return nil, fail(http.StatusBadRequest, "trim=%d out of range [0,%d] for %d lists",
			req.Trim, len(c.rankings)-1, len(c.rankings))
	}
	if req.Theta != nil {
		if *req.Theta < 0 || math.IsNaN(*req.Theta) || math.IsInf(*req.Theta, 0) {
			return nil, fail(http.StatusBadRequest, "theta=%v out of range [0, +inf)", *req.Theta)
		}
		if req.Resilient {
			return nil, fail(http.StatusBadRequest, "theta is incompatible with resilient mode")
		}
		if req.Algo == topk.AlgoNRA {
			// The θ-approximate engine earns its early stop with random
			// accesses; honoring it would contradict the client's explicit
			// no-random-access choice.
			return nil, fail(http.StatusBadRequest, "theta is incompatible with algo \"nra\" (the approximate engine uses random access)")
		}
	}

	release, apiErr := s.admitQuery(r.Context(), t.name)
	if apiErr != nil {
		return nil, apiErr
	}
	defer release()

	algo := req.Algo
	if algo == "" {
		algo = topk.AlgoMedRank
	}
	spec := topk.Spec{Algo: algo, K: req.K, Policy: topk.GlobalMerge, CostRatio: topk.EffectiveCostRatio(algo, req.CostRatio)}
	start := time.Now()
	meta := metaFrom(r.Context())

	// Degradation-ladder selection: with a deadline in force (and on the
	// plain query path — resilient runs own their degraded semantics), pick
	// the cheapest rung that still lands inside the remaining budget. An
	// explicit θ in the request forces the approximate engine outright.
	level, theta, ladderReason := LadderExact, 0.0, ""
	ladderActive := false
	deadline, hasDeadline := r.Context().Deadline()
	skey := staleKey{tenant: t.name, catalog: r.PathValue("catalog"), algo: algo, k: req.K, ratio: spec.CostRatio}
	if req.Theta != nil {
		level, theta, ladderActive = LadderApprox, *req.Theta, true
		ladderReason = "explicit theta"
	} else if hasDeadline && !req.Resilient {
		ladderActive = true
		est := s.adm.estimateNs()
		remaining := time.Until(deadline)
		level = chooseLevel(remaining, est, true)
		ladderReason = fmt.Sprintf("budget %s vs engine ewma %s",
			remaining.Round(time.Millisecond), time.Duration(est).Round(time.Millisecond))
		if level == LadderApprox {
			theta = s.cfg.ApproxTheta
		}
	}
	if ladderActive {
		_, lsp := telemetry.Start(r.Context(), "overload.ladder")
		lsp.SetAttr("level", ladderLevelCode(level))
		lsp.End()
	}
	if level == LadderStale {
		if req.Trim == 0 {
			if resp, age, ok := s.stale.get(skey); ok {
				return s.finishStale(t.name, meta, resp, age, ladderReason, start), nil
			}
		}
		// No stored answer (or a trim request, which is never cached): the
		// approximate engine is the best remaining effort inside the budget.
		level, theta = LadderApprox, s.cfg.ApproxTheta
		ladderReason += "; no stale answer, attempting approx"
	}
	if algo == topk.AlgoNRA && level == LadderApprox {
		// The approx rung's engine uses random access, which an explicit
		// "nra" forbids; serve exact instead and let the ladder say why.
		level, theta = LadderExact, 0
		ladderReason += "; nra serves exact (approx rung requires random access)"
	}

	// Reliability trim: score every list's centrality in the catalog's
	// pairwise-distance graph (default kprof metric, shared cache) and drop
	// the Trim least reliable BEFORE the engines run, so the query — and on
	// the resilient path the degraded quality intervals, whose median index
	// is derived from the voter count — sees only the post-trim voter set.
	rankings := c.rankings
	keptIdx := []int(nil) // non-nil only when trimming; maps engine index -> catalog index
	var trimSummary *TrimSummary
	if req.Trim > 0 {
		_, tsp := telemetry.Start(r.Context(), "robust.trim")
		d := t.cachedDistance(s.cache, metrics.CacheIDKProf, metrics.KProfWS, meta)
		weights, werr := robust.Weights(c.rankings, d)
		var dropped []int
		if werr == nil {
			dropped, keptIdx, werr = robust.TrimByWeight(weights, req.Trim)
		}
		tsp.End()
		if werr != nil {
			return nil, fail(http.StatusInternalServerError, "reliability trim: %v", werr)
		}
		rankings = make([]*ranking.PartialRanking, len(keptIdx))
		for i, orig := range keptIdx {
			rankings[i] = c.rankings[orig]
		}
		trimSummary = &TrimSummary{Dropped: dropped, Survivors: len(keptIdx), Weights: weights}
		s.mRobustTrim.With(t.name).ForceAdd(int64(len(dropped)))
	}

	if level == LadderApprox {
		// The approx rung answers with θ-approximate TA whatever engine was
		// requested, so the run is priced and labelled as TA.
		spec.Algo, spec.Theta = topk.AlgoTA, theta
		spec.CostRatio = topk.EffectiveCostRatio(topk.AlgoTA, req.CostRatio)
	}
	var wrap faults.Wrapper
	acc := telemetry.NewAccessAccountant(len(rankings))
	if req.Resilient {
		wrap = resilientWrap(req.Chaos, acc)
	}
	ectx, eng := telemetry.Start(r.Context(), "engine."+spec.Algo)
	res, err := topk.Run(ectx, spec, topk.ListSources(rankings, acc, wrap), acc)
	if err != nil {
		eng.End()
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			// The budget ran out mid-engine: one rung remains — a cached
			// answer beats a timeout, if the store has one fresh enough.
			if ladderActive && req.Trim == 0 {
				if resp, age, ok := s.stale.get(skey); ok {
					return s.finishStale(t.name, meta, resp, age, "engine exceeded budget; served cached answer", start), nil
				}
			}
			e := fail(http.StatusServiceUnavailable, "query aborted: %v", err)
			if est := s.adm.estimateNs(); est > 0 {
				e.retryAfter = time.Duration(est)
			}
			return nil, e
		}
		return nil, fail(http.StatusInternalServerError, "top-k query: %v", err)
	}
	// A trimmed resilient run reports lost lists in the trimmed slice's index
	// space; remap to the original catalog indices so clients and the trim
	// summary speak the same coordinates.
	if res.Degraded != nil && keptIdx != nil {
		for i, lost := range res.Degraded.Lost {
			res.Degraded.Lost[i] = keptIdx[lost]
		}
	}
	access := AccessSummary{
		Sequential:     res.Stats.Total,
		Random:         res.Stats.Random,
		BucketIOs:      res.Stats.TotalBucketProbes,
		MaxDepth:       res.Stats.MaxDepth,
		CostRatio:      spec.CostRatio,
		MiddlewareCost: res.Stats.MiddlewareCost(1, spec.CostRatio),
	}
	s.mAlgo.With(t.name, spec.Algo).ForceInc()
	s.mMwCost.With(t.name, spec.Algo).ForceAdd(int64(access.MiddlewareCost))
	spanAttrsFromAccess(&eng, access, res.Degraded != nil)
	eng.End()
	if meta != nil {
		meta.access = access
		meta.degraded = res.Degraded != nil
	}
	// The cache span is zero-traffic unless the reliability trim probed the
	// distance cache; emitting it regardless keeps request span trees
	// structurally uniform across endpoints.
	_, csp := telemetry.Start(r.Context(), "cache")
	if meta != nil {
		csp.SetAttr("hits", meta.cacheHits.Load())
		csp.SetAttr("misses", meta.cacheMisses.Load())
	} else {
		csp.SetAttr("hits", 0)
		csp.SetAttr("misses", 0)
	}
	csp.End()

	resp := TopKResponse{
		Winners:   make([]string, len(res.Winners)),
		Medians:   make([]float64, len(res.Winners)),
		TopK:      c.dom.Render(res.TopK),
		Access:    access,
		Degraded:  res.Degraded,
		Trim:      trimSummary,
		ElapsedNs: time.Since(start).Nanoseconds(),
	}
	for i, e := range res.Winners {
		resp.Winners[i] = c.dom.Name(e)
		resp.Medians[i] = float64(res.Medians2[i]) / 2
	}
	s.adm.observeService(time.Since(start))
	if ladderActive {
		resp.Ladder = &LadderInfo{Level: level, Reason: ladderReason}
		if level == LadderApprox {
			resp.Ladder.Theta = theta
			resp.Ladder.Certificate = res.Approx
			s.mDegradedAns.With(t.name, LadderApprox).ForceInc()
			if meta != nil {
				meta.ladderLevel = LadderApprox
			}
		}
	}
	// Exact answers on the plain query path refresh the stale store, the
	// ladder's bottom rung. Resilient, chaos, trim, and approximate answers
	// are never cached: a stale answer must be a previously correct one.
	if !req.Resilient && req.Trim == 0 && level == LadderExact {
		stored := resp
		stored.Ladder = nil
		s.stale.put(skey, stored)
	}
	return resp, nil
}

// finishStale serves a stored answer as the ladder's bottom rung: the access
// summary is zeroed (no engine ran for this request) and the answer is
// age-stamped.
func (s *Service) finishStale(tenantName string, meta *requestMeta, resp TopKResponse, age time.Duration, reason string, start time.Time) TopKResponse {
	resp.Access = AccessSummary{}
	resp.Ladder = &LadderInfo{Level: LadderStale, AgeMs: age.Milliseconds(), Reason: reason}
	resp.ElapsedNs = time.Since(start).Nanoseconds()
	s.mDegradedAns.With(tenantName, LadderStale).ForceInc()
	if meta != nil {
		meta.ladderLevel = LadderStale
	}
	return resp
}

// ladderLevelCode maps a ladder level to its span-attribute code.
func ladderLevelCode(level string) int64 {
	switch level {
	case LadderExact:
		return 0
	case LadderApprox:
		return 1
	default:
		return 2
	}
}

// resilientWrap wraps each list source of a resilient query in the
// request's deterministic fault plan, if any, and the default retry policy,
// charging failures and retries to acc.
func resilientWrap(chaos *ChaosPlan, acc *telemetry.AccessAccountant) faults.Wrapper {
	return func(i int, src faults.Source) faults.Source {
		if chaos != nil {
			src = faults.Inject(src, faults.Plan{
				Seed:          chaos.Seed + int64(i),
				TransientRate: chaos.TransientRate,
				DeathRate:     chaos.DeathRate,
				DeathAfter:    chaos.DeathAfter,
				Latency:       time.Duration(chaos.LatencyMs) * time.Millisecond,
			})
		}
		return faults.WithRetry(src, faults.DefaultRetryPolicy(), acc, i)
	}
}

func (s *Service) handleAggregate(_ http.ResponseWriter, r *http.Request) (any, *apiError) {
	t, c, apiErr := s.lookupCatalog(r)
	if apiErr != nil {
		return nil, apiErr
	}
	var req AggregateRequest
	if apiErr := decodeJSONBody(r, &req); apiErr != nil {
		return nil, apiErr
	}
	id, base, err := metricByName(req.Metric)
	if err != nil {
		return nil, fail(http.StatusBadRequest, "%v", err)
	}
	var robustMode robust.Mode
	if req.Robust != nil {
		robustMode, err = robust.ParseMode(req.Robust.Mode)
		if err != nil {
			return nil, fail(http.StatusBadRequest, "%v", err)
		}
		if req.Robust.Trim < 0 || req.Robust.Trim >= len(c.rankings) {
			return nil, fail(http.StatusBadRequest, "robust trim=%d out of range [0,%d] for %d lists",
				req.Robust.Trim, len(c.rankings)-1, len(c.rankings))
		}
	}
	meta := metaFrom(r.Context())
	d := t.cachedDistance(s.cache, id, base, meta)

	release, apiErr := s.admitQuery(r.Context(), t.name)
	if apiErr != nil {
		return nil, apiErr
	}
	defer release()

	start := time.Now()
	n := c.dom.Size()
	ectx, eng := telemetry.Start(r.Context(), "engine.aggregate")
	phase := func(name string, f func(ctx context.Context) error) *apiError {
		// Deadline budgets abort aggregation at phase boundaries: the phase
		// kernels are tight parallel loops, so the boundary check is where a
		// canceled request actually stops burning workers.
		if err := r.Context().Err(); err != nil {
			e := fail(http.StatusServiceUnavailable, "query aborted before %s: %v", name, err)
			if est := s.adm.estimateNs(); est > 0 {
				e.retryAfter = time.Duration(est)
			}
			return e
		}
		pctx, sp := telemetry.Start(ectx, "aggregate."+name)
		err := f(pctx)
		sp.End()
		if err != nil {
			if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
				return fail(http.StatusServiceUnavailable, "%s aborted: %v", name, err)
			}
			return fail(http.StatusInternalServerError, "%s: %v", name, err)
		}
		return nil
	}
	var scores []float64
	var median *ranking.PartialRanking
	var medianDist float64
	if apiErr := phase("median_scores", func(context.Context) error {
		var err error
		scores, err = aggregate.MedianScores(c.rankings, aggregate.LowerMedian)
		return err
	}); apiErr != nil {
		eng.End()
		return nil, apiErr
	}
	if apiErr := phase("median_topk", func(context.Context) error {
		var err error
		median, err = aggregate.TopKByScore(scores, n)
		return err
	}); apiErr != nil {
		eng.End()
		return nil, apiErr
	}
	if apiErr := phase("score_median", func(context.Context) error {
		var err error
		medianDist, err = aggregate.SumDistanceParallel(median, c.rankings, d)
		return err
	}); apiErr != nil {
		eng.End()
		return nil, apiErr
	}
	var bestIdx int
	var bestPR *ranking.PartialRanking
	var bestDist float64
	if apiErr := phase("best_of_inputs", func(context.Context) error {
		var err error
		bestIdx, bestPR, bestDist, err = aggregate.BestOfInputsParallel(c.rankings, d)
		return err
	}); apiErr != nil {
		eng.End()
		return nil, apiErr
	}

	resp := AggregateResponse{
		Metric:    req.Metric,
		Medians:   make(map[string]float64, n),
		Median:    RankedCandidate{Ranking: c.dom.Render(median), SumDistance: medianDist},
		BestInput: bestIdx,
		Best:      RankedCandidate{Ranking: c.dom.Render(bestPR), SumDistance: bestDist},
	}
	if resp.Metric == "" {
		resp.Metric = "kprof"
	}
	for e := 0; e < n; e++ {
		resp.Medians[c.dom.Name(e)] = scores[e]
	}
	if req.Kemenize == nil || *req.Kemenize {
		var kem *ranking.PartialRanking
		var kemDist float64
		if apiErr := phase("kemenize", func(context.Context) error {
			var err error
			kem, err = aggregate.LocalKemenize(median, c.rankings)
			if err != nil {
				return err
			}
			kemDist, err = aggregate.SumDistanceParallel(kem, c.rankings, d)
			return err
		}); apiErr != nil {
			eng.End()
			return nil, apiErr
		}
		resp.Kemenized = &RankedCandidate{Ranking: c.dom.Render(kem), SumDistance: kemDist}
	}
	if req.Robust != nil {
		var rres *robust.Result
		if apiErr := phase("robust", func(context.Context) error {
			var err error
			rres, err = robust.Aggregate(c.rankings, robust.Options{
				Mode:     robustMode,
				Trim:     req.Robust.Trim,
				Distance: d,
			})
			return err
		}); apiErr != nil {
			eng.End()
			return nil, apiErr
		}
		s.mRobust.With(t.name, string(robustMode)).ForceInc()
		s.mRobustTrim.With(t.name).ForceAdd(int64(len(rres.Trimmed)))
		resp.Robust = &RobustResult{
			Mode:        string(robustMode),
			Trim:        req.Robust.Trim,
			Ranking:     c.dom.Render(rres.Aggregate),
			SumDistance: rres.SumDistance,
			MaxDistance: rres.MaxDistance,
			Weights:     rres.Weights,
			Trimmed:     rres.Trimmed,
			Survivors:   len(rres.Kept),
		}
	}
	eng.End()
	_, csp := telemetry.Start(r.Context(), "cache")
	if meta != nil {
		csp.SetAttr("hits", meta.cacheHits.Load())
		csp.SetAttr("misses", meta.cacheMisses.Load())
	}
	csp.End()
	resp.ElapsedNs = time.Since(start).Nanoseconds()
	s.adm.observeService(time.Since(start))
	return resp, nil
}

// handleStats renders the /stats snapshot. Every tally in it is derived from
// the service's metric families, so /stats and /metrics cannot disagree.
func (s *Service) handleStats(_ http.ResponseWriter, _ *http.Request) (any, *apiError) {
	shed := sumBy(s.mShed, 1)
	answers := sumBy(s.mDegradedAns, 1)
	var degraded int64
	s.mDegraded.Each(func(_ []string, c *telemetry.Counter) { degraded += c.Value() })
	endpoints, latency := s.endpointStats()
	tenants := s.tenantsSnapshot()
	resp := StatsResponse{
		UptimeNs:        time.Since(s.start).Nanoseconds(),
		Tenants:         make([]TenantStats, 0, len(tenants)),
		DegradedQueries: degraded,
		Overload: OverloadStats{
			ShedRateLimit: shed[ShedRateLimit],
			ShedQueueFull: shed[ShedQueueFull],
			ShedDeadline:  shed[ShedDeadline],
			ShedDraining:  shed[ShedDraining],
			ApproxAnswers: answers[LadderApprox],
			StaleAnswers:  answers[LadderStale],
			QueueDepth:    s.adm.queueLen(),
			Inflight:      s.adm.inflight(),
			EngineEwmaNs:  int64(s.adm.estimateNs()),
		},
		Endpoints: endpoints,
		Telemetry: telemetry.Default.Snapshot(),
		Server:    telemetry.Snapshot{Counters: map[string]int64{}, Histograms: latency},
	}
	for _, t := range tenants {
		hits, misses := t.cacheHits.Load(), t.cacheMisses.Load()
		ts := TenantStats{
			Name:        t.name,
			Catalogs:    len(t.catalogNames()),
			Rankings:    t.rankingCount(),
			CacheHits:   hits,
			CacheMisses: misses,
		}
		if total := hits + misses; total > 0 {
			ts.CacheHitRate = float64(hits) / float64(total)
		}
		resp.Tenants = append(resp.Tenants, ts)
	}
	// Recently deleted tenants keep their attribution for one snapshot.
	resp.Tenants = append(resp.Tenants, s.takeDeparted()...)
	sortTenantStats(resp.Tenants)
	cs := s.cache.Stats()
	resp.Cache = CacheStats{Stats: cs, HitRate: cs.HitRate()}
	return resp, nil
}

// endpointStats returns one row per API endpoint, with rankserve_requests_total
// summed over tenants and statuses, and the endpoints' latency histograms
// merged across tenants: their percentiles go in the rows, their snapshots
// under http.<op>.latency_ns.
func (s *Service) endpointStats() (map[string]EndpointStats, map[string]telemetry.HistogramSnapshot) {
	rows := make(map[string]EndpointStats, len(s.ops))
	for _, op := range s.ops {
		rows[op] = EndpointStats{}
	}
	s.mRequests.Each(func(v []string, c *telemetry.Counter) {
		row := rows[v[1]]
		row.Requests += c.Value()
		if v[2] != "200" {
			row.Errors += c.Value()
		}
		rows[v[1]] = row
	})
	merged := make(map[string]*telemetry.Histogram)
	s.mLatency.Each(func(v []string, h *telemetry.Histogram) {
		if merged[v[1]] == nil {
			merged[v[1]] = new(telemetry.Histogram)
		}
		merged[v[1]].Merge(h)
	})
	latency := make(map[string]telemetry.HistogramSnapshot, len(merged))
	for op, h := range merged {
		row := rows[op]
		row.P50Ns, row.P95Ns, row.P99Ns = h.Quantile(0.50), h.Quantile(0.95), h.Quantile(0.99)
		rows[op] = row
		if hs := h.Snapshot(); hs.Count != 0 {
			latency["http."+op+".latency_ns"] = hs
		}
	}
	return rows, latency
}

// sumBy totals a counter family's series grouped by the value of one label,
// given by its index among the family's keys.
func sumBy(v telemetry.CounterVec, key int) map[string]int64 {
	out := make(map[string]int64)
	v.Each(func(values []string, c *telemetry.Counter) { out[values[key]] += c.Value() })
	return out
}

// sortTenantStats orders tenant rows by name for deterministic snapshots.
func sortTenantStats(ts []TenantStats) {
	sort.Slice(ts, func(i, j int) bool { return ts[i].Name < ts[j].Name })
}
