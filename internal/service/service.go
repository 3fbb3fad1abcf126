// Package service is the multi-tenant ranking-as-a-service layer: the state
// and policy that turn the repo's engines (median/threshold top-k,
// median-rank aggregation, pairwise-distance metrics) into a server the CLIs
// and cmd/rankserve both sit on.
//
// The layer owns what no single engine does:
//
//   - Tenancy: named tenants, each holding named catalogs of ranking lists
//     ingested through the hardened parser (strict or lenient, with
//     deterministic repair), isolated from each other.
//   - Admission: guard.Limits bounds every ingest, a body cap bounds every
//     request, and tenant/catalog counts are capped; every rejection is a
//     structured guard.Defect JSON document, not an opaque string.
//   - Shared compute: one sharded distance cache serves all tenants (the
//     duplicate-heavy workloads that justify the cache cross tenant
//     boundaries) with per-tenant hit/miss attribution, and one worker gate
//     sized to GOMAXPROCS keeps concurrent queries from oversubscribing the
//     machine the parallel engines already saturate.
//   - Observability: every endpoint opens a telemetry span and records each
//     request once, into the labeled families of a service-owned
//     telemetry.Registry. GET /metrics renders those families; /stats
//     derives its request, latency, and overload tallies from them.
//
// The package sits above ranking/metrics/aggregate/topk/faults/guard/cache
// and below cmd/rankserve; it knows nothing about flags or listeners.
package service

import (
	"io"
	"net/http"
	"runtime"
	"sync"
	"time"

	"context"

	"repro/internal/cache"
	"repro/internal/guard"
	"repro/internal/telemetry"
)

// Config bounds one Service. The zero value selects the defaults below.
type Config struct {
	// MaxTenants caps how many tenants may exist at once (default 64).
	MaxTenants int
	// MaxCatalogsPerTenant caps catalogs per tenant (default 64).
	MaxCatalogsPerTenant int
	// MaxBodyBytes caps a single request body (default 8 MiB). Oversized
	// bodies are rejected with a structured defect and HTTP 413.
	MaxBodyBytes int64
	// Limits is the per-tenant ingestion admission policy handed to
	// ranking.ParseLinesWith. Zero-valued fields fall back to
	// guard.DefaultLimits.
	Limits guard.Limits
	// CacheCapacity is the shared distance cache's entry budget
	// (cache.DefaultCapacity when <= 0).
	CacheCapacity int
	// Workers caps concurrently executing queries (default GOMAXPROCS).
	// Excess queries wait in the gate until a slot frees or their context
	// is canceled.
	Workers int
	// QueueDepth bounds the admission wait queue (default 256): requests
	// beyond Workers in flight wait here (LIFO), and requests beyond the
	// depth are shed with 429.
	QueueDepth int
	// RatePerSec is the per-tenant sustained query rate (token bucket);
	// <= 0 disables rate limiting (the default).
	RatePerSec float64
	// RateBurst is the token bucket's capacity (default 2×RatePerSec, min 1).
	RateBurst int
	// DefaultDeadline is applied to every query request that doesn't carry
	// its own X-Deadline-Ms header; 0 (the default) means no deadline.
	DefaultDeadline time.Duration
	// MaxDeadline caps the deadline a client may request via X-Deadline-Ms;
	// 0 means uncapped.
	MaxDeadline time.Duration
	// ApproxTheta is the approximation slack the topk degradation ladder
	// uses when it steps down from exact to θ-approximate (default 0.5).
	ApproxTheta float64
	// StaleTTL bounds how old a cached answer the ladder's stale rung may
	// serve (default 5m).
	StaleTTL time.Duration
	// TraceSampleRate is the fraction of requests that collect a span tree
	// (deterministic in the trace ID; see telemetry.SampleTrace). 0 disables
	// rate sampling; a request can still force sampling with the
	// X-Trace-Sample header.
	TraceSampleRate float64
	// AccessLog, when non-nil, receives one structured JSON line per
	// request. Writes are serialized by the service.
	AccessLog io.Writer
}

// withDefaults fills the zero fields of a Config.
func (c Config) withDefaults() Config {
	if c.MaxTenants <= 0 {
		c.MaxTenants = 64
	}
	if c.MaxCatalogsPerTenant <= 0 {
		c.MaxCatalogsPerTenant = 64
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 8 << 20
	}
	if (c.Limits == guard.Limits{}) {
		c.Limits = guard.DefaultLimits()
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 256
	}
	if c.ApproxTheta <= 0 {
		c.ApproxTheta = 0.5
	}
	if c.StaleTTL <= 0 {
		c.StaleTTL = 5 * time.Minute
	}
	return c
}

// Service is the multi-tenant aggregation service. Construct with New; all
// methods and handlers are safe for concurrent use.
type Service struct {
	cfg   Config
	cache *cache.Cache
	mux   *http.ServeMux
	ops   []string // instrumented endpoint names, one /stats row each
	adm   *admitter
	stale *staleStore
	start time.Time

	mu      sync.RWMutex
	tenants map[string]*tenant

	inflight *telemetry.Gauge
	logMu    sync.Mutex // serializes AccessLog writes

	// Metric families backing GET /metrics and the /stats tallies. Counter
	// families count with ForceInc/ForceAdd, so the tallies do not depend on
	// the telemetry switch; latency observations stay gated.
	reg          *telemetry.Registry
	mRequests    telemetry.CounterVec   // {tenant, endpoint, status}
	mLatency     telemetry.HistogramVec // {tenant, endpoint}
	mSequential  telemetry.CounterVec   // {tenant}
	mRandom      telemetry.CounterVec   // {tenant}
	mCacheHits   telemetry.CounterVec   // {tenant}
	mCacheMisses telemetry.CounterVec   // {tenant}
	mDegraded    telemetry.CounterVec   // {tenant}
	mRobust      telemetry.CounterVec   // {tenant, mode}
	mRobustTrim  telemetry.CounterVec   // {tenant}
	mShed        telemetry.CounterVec   // {tenant, reason}
	mDegradedAns telemetry.CounterVec   // {tenant, level}
	mAlgo        telemetry.CounterVec   // {tenant, algo}
	mMwCost      telemetry.CounterVec   // {tenant, algo}
	mTenants     *telemetry.Gauge
	mQueueDepth  *telemetry.Gauge
}

// New builds a Service with the given bounds, a fresh shared distance cache,
// and its own metrics registry.
func New(cfg Config) *Service {
	cfg = cfg.withDefaults()
	s := &Service{
		cfg:     cfg,
		cache:   cache.New(cfg.CacheCapacity),
		stale:   newStaleStore(cfg.StaleTTL, 1024),
		start:   time.Now(),
		tenants: make(map[string]*tenant),
		reg:     telemetry.NewRegistry(),
	}
	s.mRequests = s.reg.CounterVec("rankserve_requests_total",
		"Requests served, by tenant, endpoint, and HTTP status.", "tenant", "endpoint", "status")
	s.mLatency = s.reg.HistogramVec("rankserve_request_latency_ns",
		"Request latency in nanoseconds (base-2 buckets), by tenant and endpoint.", "tenant", "endpoint")
	s.mSequential = s.reg.CounterVec("rankserve_access_sequential_total",
		"Sequential (sorted) list accesses charged to queries, by tenant.", "tenant")
	s.mRandom = s.reg.CounterVec("rankserve_access_random_total",
		"Random list accesses charged to queries, by tenant.", "tenant")
	s.mCacheHits = s.reg.CounterVec("rankserve_cache_hits_total",
		"Shared distance-cache hits attributed to requests, by tenant.", "tenant")
	s.mCacheMisses = s.reg.CounterVec("rankserve_cache_misses_total",
		"Shared distance-cache misses attributed to requests, by tenant.", "tenant")
	s.mDegraded = s.reg.CounterVec("rankserve_degraded_queries_total",
		"Queries answered in degraded mode, by tenant.", "tenant")
	s.mRobust = s.reg.CounterVec("rankserve_robust_requests_total",
		"Robust aggregations served, by tenant and robust mode.", "tenant", "mode")
	s.mRobustTrim = s.reg.CounterVec("rankserve_robust_trimmed_voters_total",
		"Voters dropped by reliability trimming, by tenant.", "tenant")
	s.mShed = s.reg.CounterVec("rankserve_shed_total",
		"Requests shed by admission control, by tenant and reason.", "tenant", "reason")
	s.mDegradedAns = s.reg.CounterVec("rankserve_degraded_answers_total",
		"Topk answers served below the exact ladder level, by tenant and level.", "tenant", "level")
	s.mAlgo = s.reg.CounterVec("rankserve_topk_algo_total",
		"Top-k queries answered, by tenant and engine (medrank, ta, nra, ca).", "tenant", "algo")
	s.mMwCost = s.reg.CounterVec("rankserve_middleware_cost_total",
		"FLN middleware cost (cs=1, cr=effective cost ratio) accumulated by top-k queries, by tenant and engine.", "tenant", "algo")
	s.mTenants = s.reg.GaugeVec("rankserve_tenants",
		"Live tenants.").With()
	s.inflight = s.reg.GaugeVec("rankserve_inflight_requests",
		"Requests currently being served.").With()
	s.mQueueDepth = s.reg.GaugeVec("rankserve_queue_depth",
		"Requests waiting in the admission queue.").With()
	s.adm = newAdmitter(cfg, s.mQueueDepth)
	s.mux = s.newMux()
	return s
}

// BeginDrain puts the service into drain mode ahead of listener shutdown:
// queued-but-unstarted requests fail fast with 503 and new query admissions
// are refused, while in-flight engines run to completion. Safe to call more
// than once.
func (s *Service) BeginDrain() { s.adm.beginDrain() }

// Cache returns the shared distance cache (tests cross-check its totals
// against the per-tenant attributions).
func (s *Service) Cache() *cache.Cache { return s.cache }

// admitQuery runs a query request through the admission pipeline (tenant
// token bucket, concurrency gate with bounded LIFO queue, deadline-aware
// shedding, drain fast-fail) inside an "admission" span, and converts a shed
// into a rendered apiError with its Retry-After hint, charging the shed
// family and an "overload.shed" child span on the way out. On success
// release must be called exactly once.
func (s *Service) admitQuery(ctx context.Context, tenantName string) (release func(), apiErr *apiError) {
	actx, adm := telemetry.Start(ctx, "admission")
	release, state, shed := s.adm.acquire(actx, tenantName)
	if state.queued {
		adm.SetAttr("queued", 1)
		adm.SetAttr("queue_pos", int64(state.queuePos))
	}
	if shed == nil {
		adm.End()
		return release, nil
	}
	_, shsp := telemetry.Start(actx, "overload.shed")
	shsp.SetAttr("status", int64(shed.status))
	shsp.End()
	adm.End()
	s.mShed.With(tenantName, shed.reason).ForceInc()
	if meta := metaFrom(ctx); meta != nil {
		meta.shedReason = shed.reason
	}
	e := fail(shed.status, "query admission: %s", shed.msg)
	e.retryAfter = shed.retryAfter
	return nil, e
}

// tenantFor returns the named tenant, creating it if the tenant cap allows.
// The bool reports whether the tenant exists (or was created); a false
// return means the cap rejected creation.
func (s *Service) tenantFor(name string, create bool) (*tenant, bool) {
	s.mu.RLock()
	t, ok := s.tenants[name]
	s.mu.RUnlock()
	if ok || !create {
		return t, ok
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if t, ok := s.tenants[name]; ok {
		return t, true
	}
	if len(s.tenants) >= s.cfg.MaxTenants {
		return nil, false
	}
	t = newTenant(name)
	s.tenants[name] = t
	s.mTenants.Set(int64(len(s.tenants)))
	return t, true
}

// deleteTenant removes a tenant and all its catalogs. Its labeled series
// stay, so /stats keeps reporting its cache traffic, marked deleted.
// Reports whether the tenant existed.
func (s *Service) deleteTenant(name string) bool {
	s.mu.Lock()
	if _, ok := s.tenants[name]; !ok {
		s.mu.Unlock()
		return false
	}
	delete(s.tenants, name)
	s.mTenants.Set(int64(len(s.tenants)))
	s.mu.Unlock()
	s.adm.forgetTenant(name)
	s.stale.invalidate(name, "")
	return true
}

// tenantsSnapshot returns the live tenants.
func (s *Service) tenantsSnapshot() []*tenant {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]*tenant, 0, len(s.tenants))
	for _, t := range s.tenants {
		out = append(out, t)
	}
	return out
}
