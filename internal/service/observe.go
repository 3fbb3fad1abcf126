package service

import (
	"context"
	"encoding/json"
	"math"
	"math/rand/v2"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/telemetry"
)

// Request-scoped observability: every request gets a trace identity (minted
// or propagated via X-Trace-Id), a deterministic sampling decision, a root
// span, labeled Prometheus-style metrics, and — when an access log is
// configured — one structured JSON line. Handlers fill a requestMeta carried
// in the context so the rim can attribute engine access counts, cache
// traffic, and degradation to the request without changing handler return
// types.

// Trace propagation headers. A request may carry its own 16-hex-digit
// X-Trace-Id (e.g. minted by a load balancer or a retrying client); the
// response always echoes the ID actually used. X-Trace-Sample: 1 forces the
// request to be sampled regardless of the configured rate, which is how
// tests and operators pull a span tree on demand.
const (
	TraceIDHeader     = "X-Trace-Id"
	TraceSampleHeader = "X-Trace-Sample"
	TraceSampledNote  = "X-Trace-Sampled"
)

// DeadlineHeader lets a client cap how long the server may spend on its
// request, in whole milliseconds. The resulting deadline propagates through
// the request context into admission (deadline-aware shedding), the topk
// degradation ladder, and the engines themselves (in-flight work stops). A
// missing header falls back to Config.DefaultDeadline; Config.MaxDeadline
// caps whatever the client asks for.
const DeadlineHeader = "X-Deadline-Ms"

// requestBudget resolves the request's deadline budget from the header and
// config. ok is false (with a message) when the header is malformed. A header
// too large for a time.Duration asks for more than any cap allows: it gets
// the cap, or no deadline when there is none.
func (s *Service) requestBudget(r *http.Request) (budget time.Duration, ok bool, msg string) {
	budget = s.cfg.DefaultDeadline
	if h := r.Header.Get(DeadlineHeader); h != "" {
		ms, err := strconv.ParseInt(h, 10, 64)
		if err != nil || ms <= 0 {
			return 0, false, "invalid " + DeadlineHeader + " header (want a positive integer of milliseconds)"
		}
		budget = 0
		if ms <= int64(math.MaxInt64/time.Millisecond) {
			budget = time.Duration(ms) * time.Millisecond
		}
	}
	if s.cfg.MaxDeadline > 0 && (budget == 0 || budget > s.cfg.MaxDeadline) {
		budget = s.cfg.MaxDeadline
	}
	return budget, true, ""
}

// requestMeta is the per-request accounting handlers fill for the rim.
// Cache counters are atomics because aggregation fans distance probes out
// across ParallelEach workers.
type requestMeta struct {
	access      AccessSummary
	degraded    bool
	defects     int
	shedReason  string // non-empty when admission shed the request
	ladderLevel string // non-empty when the ladder degraded the answer
	cacheHits   atomic.Int64
	cacheMisses atomic.Int64
}

type metaKey struct{}

// metaFrom returns the request's meta, or nil outside an instrumented
// request (direct tenant method calls in tests).
func metaFrom(ctx context.Context) *requestMeta {
	m, _ := ctx.Value(metaKey{}).(*requestMeta)
	return m
}

// accessLogLine is one structured access-log record.
type accessLogLine struct {
	Time        string `json:"time"`
	TraceID     string `json:"trace_id"`
	Sampled     bool   `json:"sampled"`
	Tenant      string `json:"tenant"`
	Endpoint    string `json:"endpoint"`
	Status      int    `json:"status"`
	LatencyNs   int64  `json:"latency_ns"`
	Sequential  int    `json:"sequential"`
	Random      int    `json:"random"`
	CacheHits   int64  `json:"cache_hits"`
	CacheMisses int64  `json:"cache_misses"`
	Degraded    bool   `json:"degraded"`
	Defects     int    `json:"defects"`
	DeadlineMs  int64  `json:"deadline_ms,omitempty"`
	Shed        string `json:"shed,omitempty"`
	Ladder      string `json:"ladder,omitempty"`
}

// logAccess writes one JSON line; the mutex serializes writers so concurrent
// requests never interleave bytes mid-line.
func (s *Service) logAccess(line accessLogLine) {
	if s.cfg.AccessLog == nil {
		return
	}
	b, err := json.Marshal(line)
	if err != nil {
		return
	}
	b = append(b, '\n')
	s.logMu.Lock()
	s.cfg.AccessLog.Write(b) //nolint:errcheck // best-effort log sink
	s.logMu.Unlock()
}

// tenantLabel bounds the tenant label: endpoints without a tenant path
// segment ("/stats", "/healthz") share the "-" series.
func tenantLabel(r *http.Request) string {
	if t := r.PathValue("tenant"); t != "" {
		return t
	}
	return "-"
}

// instrument wraps an apiHandler with the service's per-request plumbing:
// body cap, trace identity + sampling + root span, the request's one record
// in the labeled families (status count, latency, accesses, cache traffic,
// degradation), the access log, and uniform JSON rendering. A request is
// counted when it finishes.
func (s *Service) instrument(op string, h apiHandler) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		s.inflight.Add(1)
		defer s.inflight.Add(-1)
		if r.Body != nil {
			r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
		}

		traceID, ok := telemetry.ParseTraceID(r.Header.Get(TraceIDHeader))
		if !ok {
			traceID = rand.Uint64()
		}
		sampled := telemetry.Enabled() &&
			(r.Header.Get(TraceSampleHeader) == "1" ||
				telemetry.SampleTrace(traceID, s.cfg.TraceSampleRate))
		meta := &requestMeta{}
		tctx := telemetry.WithTrace(context.WithValue(r.Context(), metaKey{}, meta), traceID, sampled)
		w.Header().Set(TraceIDHeader, telemetry.TraceIDString(traceID))
		if sampled {
			w.Header().Set(TraceSampledNote, "1")
		}

		rctx, root := telemetry.Start(tctx, "http."+op)
		budget, budgetOK, budgetMsg := s.requestBudget(r)
		var result any
		var apiErr *apiError
		if !budgetOK {
			apiErr = fail(http.StatusBadRequest, "%s", budgetMsg)
		} else if budget > 0 {
			// The deadline budget rides the request context: admission sheds
			// against it, the ladder selects by what remains of it, and the
			// engines abort on it.
			dctx, cancel := context.WithTimeout(rctx, budget)
			result, apiErr = h(w, r.WithContext(dctx))
			cancel()
		} else {
			result, apiErr = h(w, r.WithContext(rctx))
		}
		status := http.StatusOK
		if apiErr != nil {
			status = apiErr.status
			meta.defects += len(apiErr.defects)
		}
		root.End()

		elapsed := time.Since(start).Nanoseconds()
		tenant := tenantLabel(r)
		s.mRequests.With(tenant, op, strconv.Itoa(status)).ForceInc()
		s.mLatency.With(tenant, op).Observe(elapsed)
		if meta.access.Sequential > 0 {
			s.mSequential.With(tenant).ForceAdd(int64(meta.access.Sequential))
		}
		if meta.access.Random > 0 {
			s.mRandom.With(tenant).ForceAdd(int64(meta.access.Random))
		}
		if hits := meta.cacheHits.Load(); hits > 0 {
			s.mCacheHits.With(tenant).ForceAdd(hits)
		}
		if misses := meta.cacheMisses.Load(); misses > 0 {
			s.mCacheMisses.With(tenant).ForceAdd(misses)
		}
		if meta.degraded {
			s.mDegraded.With(tenant).ForceInc()
		}
		telemetry.FinishTrace(tctx, telemetry.TraceMeta{Tenant: tenant, Endpoint: op, Status: status})
		s.logAccess(accessLogLine{
			Time:        start.UTC().Format(time.RFC3339Nano),
			TraceID:     telemetry.TraceIDString(traceID),
			Sampled:     sampled,
			Tenant:      tenant,
			Endpoint:    op,
			Status:      status,
			LatencyNs:   elapsed,
			Sequential:  meta.access.Sequential,
			Random:      meta.access.Random,
			CacheHits:   meta.cacheHits.Load(),
			CacheMisses: meta.cacheMisses.Load(),
			Degraded:    meta.degraded,
			Defects:     meta.defects,
			DeadlineMs:  budget.Milliseconds(),
			Shed:        meta.shedReason,
			Ladder:      meta.ladderLevel,
		})

		if apiErr != nil {
			resp := ErrorResponse{
				Error:   apiErr.msg,
				Defects: apiErr.defects,
				Dropped: apiErr.dropped,
			}
			// Shed responses tell the client when to come back: Retry-After
			// in whole seconds (minimum 1 — every 429 carries the header).
			if apiErr.retryAfter > 0 || apiErr.status == http.StatusTooManyRequests {
				secs := int(math.Ceil(apiErr.retryAfter.Seconds()))
				if secs < 1 {
					secs = 1
				}
				w.Header().Set("Retry-After", strconv.Itoa(secs))
				resp.RetryAfterS = secs
			}
			writeJSON(w, apiErr.status, resp)
			return
		}
		writeJSON(w, http.StatusOK, result)
	}
}

// handleMetrics renders the Prometheus text exposition: the service's
// rankserve_* families first, then the process-wide default registry under
// rankties_*. The two prefixes cannot collide, so every family appears
// exactly once per scrape.
func (s *Service) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := s.reg.WritePrometheus(w, ""); err != nil {
		return
	}
	telemetry.Default.WritePrometheus(w, "rankties_") //nolint:errcheck // client gone
}

// spanAttrsFromAccess stamps an engine span with the request's
// AccessAccountant totals, the per-query face of the Fagin–Lotem–Naor
// middleware cost model.
func spanAttrsFromAccess(sp *telemetry.Span, a AccessSummary, degraded bool) {
	sp.SetAttr("sequential", int64(a.Sequential))
	sp.SetAttr("random", int64(a.Random))
	sp.SetAttr("bucket_ios", int64(a.BucketIOs))
	sp.SetAttr("max_depth", int64(a.MaxDepth))
	if degraded {
		sp.SetAttr("degraded", 1)
	}
}
