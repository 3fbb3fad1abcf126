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

// failDefect is fail with the message as the answer's one structured defect.
func failDefect(status int, format string, args ...any) *apiError {
	e := fail(status, format, args...)
	e.defects = []guard.Defect{{Msg: e.msg}}
	return e
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

// TenantStats is one tenant name's row in the /stats snapshot. Its cache
// counts sum the name's rankserve_cache_{hits,misses}_total series, every
// lifetime of the name included; a deleted tenant's row stays, with Deleted
// set, for as long as its series exist.
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
		return failDefect(http.StatusRequestEntityTooLarge, "request body exceeds %d bytes", tooLarge.Limit)
	}
	return fail(http.StatusBadRequest, "reading request body: %v", err)
}

// ingest parses a request body of ranking lines under the tenant's admission
// limits and parse mode; a body with no valid list is a 400. The
// IngestResponse it starts names the path's tenant and catalog, the mode,
// and what lenient parsing repaired or dropped.
func (s *Service) ingest(r *http.Request) ([]*ranking.PartialRanking, *ranking.Domain, IngestResponse, *apiError) {
	resp := IngestResponse{Tenant: r.PathValue("tenant"), Catalog: r.PathValue("catalog")}
	opts, mode, apiErr := s.parseModeOptions(r)
	if apiErr != nil {
		return nil, nil, resp, apiErr
	}
	rankings, dom, report, err := ranking.ParseLinesWith(r.Body, opts)
	if err != nil {
		var maxErr *http.MaxBytesError
		if errors.As(err, &maxErr) {
			return nil, nil, resp, readBodyErr(err)
		}
		return nil, nil, resp, fail(http.StatusBadRequest, "%v", err)
	}
	resp.Mode = mode
	if report != nil {
		resp.Defects, resp.Dropped = report.Defects, report.Dropped
	}
	if len(rankings) == 0 {
		e := fail(http.StatusBadRequest, "no valid ranking lists in request body")
		e.defects, e.dropped = resp.Defects, resp.Dropped
		return nil, nil, resp, e
	}
	return rankings, dom, resp, nil
}

func (s *Service) handleHealthz(_ http.ResponseWriter, _ *http.Request) (any, *apiError) {
	return map[string]string{"status": "ok"}, nil
}

// handlePutCatalog registers or replaces a catalog from a text-codec body of
// ranking lines.
func (s *Service) handlePutCatalog(_ http.ResponseWriter, r *http.Request) (any, *apiError) {
	rankings, dom, resp, apiErr := s.ingest(r)
	if apiErr != nil {
		return nil, apiErr
	}
	t, ok := s.tenantFor(resp.Tenant, true)
	if !ok {
		return nil, failDefect(http.StatusTooManyRequests, "tenant limit %d reached", s.cfg.MaxTenants)
	}
	if !t.putCatalog(resp.Catalog, &catalog{dom: dom, rankings: rankings}, s.cfg.MaxCatalogsPerTenant) {
		return nil, failDefect(http.StatusTooManyRequests, "catalog limit %d reached for tenant %q", s.cfg.MaxCatalogsPerTenant, resp.Tenant)
	}
	s.stale.invalidate(resp.Tenant, resp.Catalog)
	resp.Rankings, resp.Elements = len(rankings), dom.Size()
	return resp, nil
}

// handleAppendRankings submits additional ranking lists to an existing
// catalog; the new lists must cover the catalog's domain (by element name).
func (s *Service) handleAppendRankings(_ http.ResponseWriter, r *http.Request) (any, *apiError) {
	t, _, apiErr := s.lookupCatalog(r)
	if apiErr != nil {
		return nil, apiErr
	}
	rankings, dom, resp, apiErr := s.ingest(r)
	if apiErr != nil {
		return nil, apiErr
	}
	c, apiErr := t.appendRankings(resp.Catalog, dom, rankings, s.cfg.Limits)
	if apiErr != nil {
		return nil, apiErr
	}
	s.stale.invalidate(resp.Tenant, resp.Catalog)
	resp.Rankings, resp.Elements, resp.Appended = len(c.rankings), c.dom.Size(), len(rankings)
	return resp, nil
}

func (s *Service) handleGetCatalog(_ http.ResponseWriter, r *http.Request) (any, *apiError) {
	t, c, apiErr := s.lookupCatalog(r)
	if apiErr != nil {
		return nil, apiErr
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

// handleTopK answers a top-k query in stages: decode and validate,
// admission, ladder plan, trim, engine, account, render.
func (s *Service) handleTopK(_ http.ResponseWriter, r *http.Request) (any, *apiError) {
	var req TopKRequest
	t, c, apiErr := s.decodeQuery(r, &req)
	if apiErr != nil {
		return nil, apiErr
	}
	ctx, meta := r.Context(), metaFrom(r.Context())
	release, apiErr := s.admitQuery(ctx, t.name)
	if apiErr != nil {
		return nil, apiErr
	}
	defer release()
	start := time.Now()

	plan, spec, skey := s.planTopK(r, t.name, req)
	if plan.stale {
		if resp, age, ok := s.stale.get(skey); ok {
			return s.finishStale(t.name, meta, resp, age, plan.reason, start), nil
		}
	}
	rankings, kept, trim, apiErr := s.trimLists(ctx, t, c, req.Trim, meta)
	if apiErr != nil {
		return nil, apiErr
	}
	var wrap faults.Wrapper
	if req.Resilient {
		wrap = resilientWrap(req.Chaos)
	}
	res, access, err := runTopK(ctx, spec, rankings, wrap)
	if err != nil {
		// The budget ran out mid-engine: one rung remains — a cached answer
		// beats a timeout, if the store has one fresh enough.
		if faults.IsContextErr(err) && plan.active && req.Trim == 0 {
			if resp, age, ok := s.stale.get(skey); ok {
				return s.finishStale(t.name, meta, resp, age, "engine exceeded budget; served cached answer", start), nil
			}
		}
		return nil, s.failQuery(err, "query aborted", "top-k query")
	}
	s.accountTopK(t.name, meta, spec.Algo, plan.level, res, access, kept)
	traceCache(ctx, meta)
	resp := renderTopK(c, res, access, trim, plan, start)
	s.adm.observeService(time.Since(start))
	// Exact answers on the plain query path refresh the stale store, the
	// ladder's bottom rung. Resilient, chaos, trim, and approximate answers
	// are never cached: a stale answer must be a previously correct one.
	if !req.Resilient && req.Trim == 0 && plan.level == LadderExact {
		stored := resp
		stored.Ladder = nil
		s.stale.put(skey, stored)
	}
	return resp, nil
}

// decodeQuery is a query's decode/validate stage: the catalog the path
// names, and the request body decoded into req and checked against it.
func (s *Service) decodeQuery(r *http.Request, req interface{ check(*catalog) *apiError }) (*tenant, *catalog, *apiError) {
	t, c, apiErr := s.lookupCatalog(r)
	if apiErr == nil {
		apiErr = decodeJSONBody(r, req)
	}
	if apiErr == nil {
		apiErr = req.check(c)
	}
	return t, c, apiErr
}

// check validates a top-k request against the catalog it queries.
func (req *TopKRequest) check(c *catalog) *apiError {
	if req.K < 1 || req.K > c.dom.Size() {
		return fail(http.StatusBadRequest, "k=%d out of range [1,%d]", req.K, c.dom.Size())
	}
	if err := topk.CheckAlgo(req.Algo); err != nil {
		return fail(http.StatusBadRequest, "%v", err)
	}
	if req.CostRatio < 0 || req.CostRatio > topk.MaxCostRatio {
		return fail(http.StatusBadRequest, "cost_ratio=%d out of range [0,%d]", req.CostRatio, topk.MaxCostRatio)
	}
	if req.Chaos != nil && !req.Resilient {
		return fail(http.StatusBadRequest, "chaos requires resilient mode")
	}
	if req.Trim < 0 || req.Trim >= len(c.rankings) {
		return fail(http.StatusBadRequest, "trim=%d out of range [0,%d] for %d lists",
			req.Trim, len(c.rankings)-1, len(c.rankings))
	}
	if req.Theta == nil {
		return nil
	}
	if *req.Theta < 0 || math.IsNaN(*req.Theta) || math.IsInf(*req.Theta, 0) {
		return fail(http.StatusBadRequest, "theta=%v out of range [0, +inf)", *req.Theta)
	}
	if req.Resilient {
		return fail(http.StatusBadRequest, "theta is incompatible with resilient mode")
	}
	if req.Algo == topk.AlgoNRA {
		// The θ-approximate engine earns its early stop with random
		// accesses; honoring it would contradict the client's explicit
		// no-random-access choice.
		return fail(http.StatusBadRequest, "theta is incompatible with algo \"nra\" (the approximate engine uses random access)")
	}
	return nil
}

// planTopK is the ladder-plan stage. It hands planLadder what remains of the
// request's deadline budget and the engine service-time estimate, records
// the chosen rung in an "overload.ladder" span, and returns the plan with
// the engine spec of its rung and the key of the request's stored answer.
func (s *Service) planTopK(r *http.Request, tenantName string, req TopKRequest) (ladderPlan, topk.Spec, staleKey) {
	algo := req.Algo
	if algo == "" {
		algo = topk.AlgoMedRank
	}
	spec := topk.Spec{Algo: algo, K: req.K, Policy: topk.GlobalMerge, CostRatio: topk.EffectiveCostRatio(algo, req.CostRatio)}
	skey := staleKey{tenant: tenantName, catalog: r.PathValue("catalog"), algo: algo, k: req.K, ratio: spec.CostRatio}
	deadline, hasDeadline := r.Context().Deadline()
	var remaining time.Duration
	if hasDeadline {
		remaining = time.Until(deadline)
	}
	plan := planLadder(req, algo, hasDeadline, remaining, s.adm.estimateNs(), s.cfg.ApproxTheta)
	if plan.active {
		_, lsp := telemetry.Start(r.Context(), "overload.ladder")
		lsp.SetAttr("level", ladderLevelCode(plan.chosen))
		lsp.End()
	}
	if plan.level == LadderApprox {
		// The approx rung answers with θ-approximate TA whatever engine was
		// requested, so the run is priced and labelled as TA.
		spec.Algo, spec.Theta = topk.AlgoTA, plan.theta
		spec.CostRatio = topk.EffectiveCostRatio(topk.AlgoTA, req.CostRatio)
	}
	return plan, spec, skey
}

// trimLists is the reliability-trim stage. It scores every list's centrality
// in the catalog's pairwise-distance graph (default kprof metric, shared
// cache) and drops the trim least reliable BEFORE the engine runs, so the
// query — and on the resilient path the degraded quality intervals, whose
// median index is derived from the voter count — sees only the post-trim
// voter set. kept maps engine index to catalog index; with trim 0 it is nil
// and the catalog's lists run as they are.
func (s *Service) trimLists(ctx context.Context, t *tenant, c *catalog, trim int, meta *requestMeta) ([]*ranking.PartialRanking, []int, *TrimSummary, *apiError) {
	if trim == 0 {
		return c.rankings, nil, nil, nil
	}
	_, tsp := telemetry.Start(ctx, "robust.trim")
	d := cachedDistance(s.cache, metrics.CacheIDKProf, metrics.KProfWS, meta)
	weights, err := robust.Weights(c.rankings, d)
	var dropped, kept []int
	if err == nil {
		dropped, kept, err = robust.TrimByWeight(weights, trim)
	}
	tsp.End()
	if err != nil {
		return nil, nil, nil, fail(http.StatusInternalServerError, "reliability trim: %v", err)
	}
	rankings := make([]*ranking.PartialRanking, len(kept))
	for i, orig := range kept {
		rankings[i] = c.rankings[orig]
	}
	s.mRobustTrim.With(t.name).ForceAdd(int64(len(dropped)))
	return rankings, kept, &TrimSummary{Dropped: dropped, Survivors: len(kept), Weights: weights}, nil
}

// runTopK is the top-k engine stage: spec over the lists inside the engine
// span, which it stamps with the run's access totals.
func runTopK(ctx context.Context, spec topk.Spec, rankings []*ranking.PartialRanking, wrap faults.Wrapper) (*topk.Result, AccessSummary, error) {
	ectx, eng := telemetry.Start(ctx, "engine."+spec.Algo)
	res, err := topk.RunRankings(ectx, spec, rankings, wrap)
	var access AccessSummary
	if err == nil {
		access = AccessSummary{
			Sequential:     res.Stats.Total,
			Random:         res.Stats.Random,
			BucketIOs:      res.Stats.TotalBucketProbes,
			MaxDepth:       res.Stats.MaxDepth,
			CostRatio:      spec.CostRatio,
			MiddlewareCost: res.Stats.MiddlewareCost(1, spec.CostRatio),
		}
		spanAttrsFromAccess(&eng, access, res.Degraded != nil)
	}
	eng.End()
	return res, access, err
}

// accountTopK is the top-k account stage: it charges an engine answer to the
// tenant's engine, middleware-cost and ladder series and to the request's
// meta. A trimmed resilient run reports lost lists in the trimmed slice's
// index space; they are mapped back to catalog indices, so clients and the
// trim summary speak the same coordinates.
func (s *Service) accountTopK(tenantName string, meta *requestMeta, algo, level string, res *topk.Result, access AccessSummary, kept []int) {
	if res.Degraded != nil && kept != nil {
		for i, lost := range res.Degraded.Lost {
			res.Degraded.Lost[i] = kept[lost]
		}
	}
	s.mAlgo.With(tenantName, algo).ForceInc()
	s.mMwCost.With(tenantName, algo).ForceAdd(int64(access.MiddlewareCost))
	if level == LadderApprox {
		s.mDegradedAns.With(tenantName, LadderApprox).ForceInc()
		meta.ladderLevel = LadderApprox
	}
	meta.access = access
	meta.degraded = res.Degraded != nil
}

// renderTopK is the top-k render stage: the engine's answer in the
// catalog's element names, with the ladder rung that produced it.
func renderTopK(c *catalog, res *topk.Result, access AccessSummary, trim *TrimSummary, plan ladderPlan, start time.Time) TopKResponse {
	resp := TopKResponse{
		Winners:   make([]string, len(res.Winners)),
		Medians:   make([]float64, len(res.Winners)),
		TopK:      c.dom.Render(res.TopK),
		Access:    access,
		Degraded:  res.Degraded,
		Trim:      trim,
		ElapsedNs: time.Since(start).Nanoseconds(),
	}
	for i, e := range res.Winners {
		resp.Winners[i] = c.dom.Name(e)
		resp.Medians[i] = float64(res.Medians2[i]) / 2
	}
	if plan.active {
		resp.Ladder = &LadderInfo{Level: plan.level, Reason: plan.reason + plan.note}
		if plan.level == LadderApprox {
			resp.Ladder.Theta, resp.Ladder.Certificate = plan.theta, res.Approx
		}
	}
	return resp
}

// finishStale serves a stored answer as the ladder's bottom rung: the access
// summary is zeroed (no engine ran for this request) and the answer is
// age-stamped.
func (s *Service) finishStale(tenantName string, meta *requestMeta, resp TopKResponse, age time.Duration, reason string, start time.Time) TopKResponse {
	resp.Access = AccessSummary{}
	resp.Ladder = &LadderInfo{Level: LadderStale, AgeMs: age.Milliseconds(), Reason: reason}
	resp.ElapsedNs = time.Since(start).Nanoseconds()
	s.mDegradedAns.With(tenantName, LadderStale).ForceInc()
	meta.ladderLevel = LadderStale
	return resp
}

// failQuery is the answer of a query stage that failed: a context error
// that stopped the query is a 503 whose Retry-After is the engine
// service-time EWMA, when there is one; any other error is a 500.
func (s *Service) failQuery(err error, aborted, failed string) *apiError {
	if !faults.IsContextErr(err) {
		return fail(http.StatusInternalServerError, "%s: %v", failed, err)
	}
	e := fail(http.StatusServiceUnavailable, "%s: %v", aborted, err)
	if est := s.adm.estimateNs(); est > 0 {
		e.retryAfter = time.Duration(est)
	}
	return e
}

// traceCache records the request's distance-cache traffic as its "cache"
// span. The span is zero-traffic unless the request probed the cache;
// emitting it regardless keeps span trees uniform across endpoints.
func traceCache(ctx context.Context, meta *requestMeta) {
	_, csp := telemetry.Start(ctx, "cache")
	csp.SetAttr("hits", meta.cacheHits.Load())
	csp.SetAttr("misses", meta.cacheMisses.Load())
	csp.End()
}

// resilientWrap wraps each list source of a resilient query in the
// request's deterministic fault plan, if any, and the default retry policy,
// charging failures and retries to the run's accountant.
func resilientWrap(chaos *ChaosPlan) faults.Wrapper {
	return func(i int, src faults.Source, acc *telemetry.AccessAccountant) faults.Source {
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

// handleAggregate answers an aggregation in stages: decode and validate,
// admission, engine (its phases), account, render.
func (s *Service) handleAggregate(_ http.ResponseWriter, r *http.Request) (any, *apiError) {
	var q aggregateQuery
	t, c, apiErr := s.decodeQuery(r, &q)
	if apiErr != nil {
		return nil, apiErr
	}
	ctx, meta := r.Context(), metaFrom(r.Context())
	d := cachedDistance(s.cache, q.metricID, q.metric, meta)
	release, apiErr := s.admitQuery(ctx, t.name)
	if apiErr != nil {
		return nil, apiErr
	}
	defer release()
	start := time.Now()

	ectx, eng := telemetry.Start(ctx, "engine.aggregate")
	resp, failed, err := aggregatePhases(ctx, ectx, c, q, d)
	eng.End()
	if err != nil {
		return nil, s.failQuery(err, "query aborted before "+failed, failed)
	}
	if resp.Robust != nil {
		s.mRobust.With(t.name, resp.Robust.Mode).ForceInc()
		s.mRobustTrim.With(t.name).ForceAdd(int64(len(resp.Robust.Trimmed)))
	}
	traceCache(ctx, meta)
	resp.ElapsedNs = time.Since(start).Nanoseconds()
	s.adm.observeService(time.Since(start))
	return resp, nil
}

// aggregateQuery is a validated aggregation request: the metric's cache id
// and kernel, and the robust clause's mode.
type aggregateQuery struct {
	AggregateRequest
	metricID uint32
	metric   metrics.DistanceWS
	mode     robust.Mode
}

// check validates an aggregation request against the catalog it queries
// and resolves its metric and robust mode.
func (q *aggregateQuery) check(c *catalog) *apiError {
	var err error
	if q.metricID, q.metric, err = metricByName(q.Metric); err != nil {
		return fail(http.StatusBadRequest, "%v", err)
	}
	if q.Robust == nil {
		return nil
	}
	if q.mode, err = robust.ParseMode(q.Robust.Mode); err != nil {
		return fail(http.StatusBadRequest, "%v", err)
	}
	if q.Robust.Trim < 0 || q.Robust.Trim >= len(c.rankings) {
		return fail(http.StatusBadRequest, "robust trim=%d out of range [0,%d] for %d lists",
			q.Robust.Trim, len(c.rankings)-1, len(c.rankings))
	}
	return nil
}

// phaseRunner runs an aggregation's phases in order under its engine span
// and stops at the first that fails. The request's budget is checked at
// each phase boundary: the phase kernels are tight parallel loops that take
// no context, so the boundary is where a canceled request stops burning
// workers.
type phaseRunner struct {
	ctx, ectx context.Context
	failed    string // the phase that failed or was not started
	err       error
}

// run runs f as the named phase inside its span, unless a phase before it
// failed.
func (p *phaseRunner) run(name string, f func() error) {
	if p.err != nil {
		return
	}
	if p.err = p.ctx.Err(); p.err == nil {
		_, sp := telemetry.Start(p.ectx, "aggregate."+name)
		p.err = f()
		sp.End()
	}
	if p.err != nil {
		p.failed = name
	}
}

// aggregatePhases is the aggregate engine stage: the median aggregate, the
// best single input, and the optional Kemenized and robust aggregates, each
// a phase under the engine span ectx, rendered in the catalog's names. On
// error it returns the phase that failed or was not started.
func aggregatePhases(ctx, ectx context.Context, c *catalog, q aggregateQuery, d metrics.DistanceWS) (AggregateResponse, string, error) {
	n := c.dom.Size()
	p := phaseRunner{ctx: ctx, ectx: ectx}
	var scores []float64
	var median, best, kem *ranking.PartialRanking
	var medianDist, bestDist, kemDist float64
	var bestIdx int
	var rres *robust.Result
	p.run("median_scores", func() (err error) {
		scores, err = aggregate.MedianScores(c.rankings, aggregate.LowerMedian)
		return err
	})
	p.run("median_topk", func() (err error) {
		median, err = aggregate.TopKByScore(scores, n)
		return err
	})
	p.run("score_median", func() (err error) {
		medianDist, err = aggregate.SumDistanceParallel(median, c.rankings, d)
		return err
	})
	p.run("best_of_inputs", func() (err error) {
		bestIdx, best, bestDist, err = aggregate.BestOfInputsParallel(c.rankings, d)
		return err
	})
	kemenize := q.Kemenize == nil || *q.Kemenize
	if kemenize {
		p.run("kemenize", func() (err error) {
			if kem, err = aggregate.LocalKemenize(median, c.rankings); err == nil {
				kemDist, err = aggregate.SumDistanceParallel(kem, c.rankings, d)
			}
			return err
		})
	}
	if q.Robust != nil {
		p.run("robust", func() (err error) {
			rres, err = robust.Aggregate(c.rankings, robust.Options{Mode: q.mode, Trim: q.Robust.Trim, Distance: d})
			return err
		})
	}
	if p.err != nil {
		return AggregateResponse{}, p.failed, p.err
	}

	resp := AggregateResponse{
		Metric:    q.Metric,
		Medians:   make(map[string]float64, n),
		Median:    RankedCandidate{Ranking: c.dom.Render(median), SumDistance: medianDist},
		BestInput: bestIdx,
		Best:      RankedCandidate{Ranking: c.dom.Render(best), SumDistance: bestDist},
	}
	if resp.Metric == "" {
		resp.Metric = "kprof"
	}
	for e := 0; e < n; e++ {
		resp.Medians[c.dom.Name(e)] = scores[e]
	}
	if kemenize {
		resp.Kemenized = &RankedCandidate{Ranking: c.dom.Render(kem), SumDistance: kemDist}
	}
	if rres != nil {
		resp.Robust = &RobustResult{
			Mode:        string(q.mode),
			Trim:        q.Robust.Trim,
			Ranking:     c.dom.Render(rres.Aggregate),
			SumDistance: rres.SumDistance,
			MaxDistance: rres.MaxDistance,
			Weights:     rres.Weights,
			Trimmed:     rres.Trimmed,
			Survivors:   len(rres.Kept),
		}
	}
	return resp, "", nil
}

// handleStats renders the /stats snapshot. Every tally in it is derived from
// the service's metric families, so /stats and /metrics cannot disagree.
func (s *Service) handleStats(_ http.ResponseWriter, _ *http.Request) (any, *apiError) {
	shed := sumBy(s.mShed, 1)
	answers := sumBy(s.mDegradedAns, 1)
	var degraded int64
	s.mDegraded.Each(func(_ []string, c *telemetry.Counter) { degraded += c.Value() })
	endpoints, latency := s.endpointStats()
	resp := StatsResponse{
		UptimeNs:        time.Since(s.start).Nanoseconds(),
		Tenants:         s.tenantStats(),
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

// tenantStats returns the /stats tenant rows, sorted by name: one per live
// tenant and per name with cache series. Cache counts come from the
// rankserve_cache_{hits,misses}_total families, catalog and ranking counts
// from the live tenant; a name with series but no live tenant is deleted.
func (s *Service) tenantStats() []TenantStats {
	rows := make(map[string]*TenantStats)
	row := func(name string) *TenantStats {
		if rows[name] == nil {
			rows[name] = &TenantStats{Name: name, Deleted: true}
		}
		return rows[name]
	}
	s.mCacheHits.Each(func(v []string, c *telemetry.Counter) { row(v[0]).CacheHits += c.Value() })
	s.mCacheMisses.Each(func(v []string, c *telemetry.Counter) { row(v[0]).CacheMisses += c.Value() })
	for _, t := range s.tenantsSnapshot() {
		r := row(t.name)
		r.Catalogs, r.Rankings, r.Deleted = len(t.catalogNames()), t.rankingCount(), false
	}
	out := make([]TenantStats, 0, len(rows))
	for _, r := range rows {
		if total := r.CacheHits + r.CacheMisses; total > 0 {
			r.CacheHitRate = float64(r.CacheHits) / float64(total)
		}
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
