// Command rankserve is the multi-tenant ranking-as-a-service front end: a
// stdlib net/http JSON API over the repo's aggregation engines. Tenants
// register catalogs of ranking lists (strict or lenient ingestion with
// deterministic repair), then run top-k queries (MEDRANK or the TA-style
// baseline, optionally in resilient degraded mode over fault-wrapped
// sources) and full aggregations (median scores, best-of-inputs, local
// Kemenization) against them. One sharded distance cache and one
// GOMAXPROCS-sized worker gate are shared across tenants; guard.Limits
// admission rejects oversized inputs with structured defect JSON.
//
// Endpoints (see README "Running the server" for curl examples):
//
//	GET    /healthz
//	GET    /stats
//	GET    /metrics                 (Prometheus text exposition)
//	GET    /debug/traces[?trace_id=]
//	GET    /debug/vars, /debug/pprof/
//	PUT    /v1/tenants/{t}/catalogs/{c}?mode=strict|lenient&repair=drop|complete
//	POST   /v1/tenants/{t}/catalogs/{c}/rankings
//	GET    /v1/tenants/{t}/catalogs/{c}
//	DELETE /v1/tenants/{t}/catalogs/{c}
//	GET    /v1/tenants/{t}/catalogs
//	DELETE /v1/tenants/{t}
//	POST   /v1/tenants/{t}/catalogs/{c}/topk
//	POST   /v1/tenants/{t}/catalogs/{c}/aggregate
//
// Overload protection (see README "Overload & degradation"): per-tenant
// token-bucket rate limiting (-rate/-rate-burst), a bounded LIFO wait queue
// behind the -workers engine slots (-queue-depth), per-request deadline
// budgets (X-Deadline-Ms header, -default-deadline fallback, -max-deadline
// cap), and a degradation ladder that trades answer exactness for latency
// under pressure (exact TA → (1+θ)-approximate TA with -approx-theta →
// cached stale answer younger than -stale-ttl). Shed requests get 429 with
// Retry-After; degraded answers carry a ladder annotation.
//
// Shutdown is graceful: SIGINT/SIGTERM begins a drain — queued-but-unstarted
// requests fail fast with 503, the listener stops accepting, and in-flight
// queries get -grace to finish; queries still running after the grace window
// are canceled through their contexts.
//
// Usage:
//
//	rankserve [-addr :8080] [-max-tenants 64] [-max-catalogs 64]
//	          [-max-body 8388608] [-max-rankings N] [-max-elements N]
//	          [-cache N] [-workers N] [-grace 10s]
//	          [-queue-depth 256] [-rate 0] [-rate-burst 0]
//	          [-default-deadline 0] [-max-deadline 0]
//	          [-approx-theta 0.5] [-stale-ttl 5m]
//	          [-trace-sample 0.1] [-traces 64] [-access-log path|-]
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/guard"
	"repro/internal/service"
	"repro/internal/telemetry"
)

func main() {
	if err := run(os.Args[1:], os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "rankserve:", err)
		os.Exit(1)
	}
}

func run(args []string, logw io.Writer) error {
	fs := flag.NewFlagSet("rankserve", flag.ContinueOnError)
	addr := fs.String("addr", ":8080", "listen address (host:port; port 0 picks a free one)")
	maxTenants := fs.Int("max-tenants", 64, "maximum concurrent tenants")
	maxCatalogs := fs.Int("max-catalogs", 64, "maximum catalogs per tenant")
	maxBody := fs.Int64("max-body", 8<<20, "maximum request body bytes")
	maxRankings := fs.Int("max-rankings", 0, "maximum ranking lists per catalog (0 = guard default)")
	maxElements := fs.Int("max-elements", 0, "maximum domain size per catalog (0 = guard default)")
	cacheCap := fs.Int("cache", 0, "shared distance cache capacity in entries (0 = default)")
	workers := fs.Int("workers", 0, "concurrent query slots (0 = GOMAXPROCS)")
	grace := fs.Duration("grace", 10*time.Second, "shutdown drain window for in-flight queries")
	queueDepth := fs.Int("queue-depth", 256, "bounded wait queue behind the engine slots; arrivals past it shed with 429")
	rate := fs.Float64("rate", 0, "per-tenant query rate limit in req/s (0 = off)")
	rateBurst := fs.Int("rate-burst", 0, "per-tenant token-bucket burst (0 = 2x rate)")
	defaultDeadline := fs.Duration("default-deadline", 0, "deadline budget for requests without an X-Deadline-Ms header (0 = none)")
	maxDeadline := fs.Duration("max-deadline", 0, "cap on any request's deadline budget (0 = uncapped)")
	approxTheta := fs.Float64("approx-theta", 0.5, "theta of the degradation ladder's (1+theta)-approximate top-k rung")
	staleTTL := fs.Duration("stale-ttl", 5*time.Minute, "how long a cached exact answer may serve as the ladder's stale rung")
	traceSample := fs.Float64("trace-sample", 0.1, "fraction of requests that collect a span tree (deterministic in the trace ID; X-Trace-Sample: 1 forces)")
	traces := fs.Int("traces", 64, "recent-traces buffer capacity behind GET /debug/traces")
	accessLog := fs.String("access-log", "", "structured JSON access-log destination: a file path, or - for stderr (empty = off)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	limits := guard.DefaultLimits()
	if *maxRankings > 0 {
		limits.MaxRankings = *maxRankings
	}
	if *maxElements > 0 {
		limits.MaxElements = *maxElements
	}

	var logSink io.Writer
	var logClose func() error
	switch *accessLog {
	case "":
	case "-":
		logSink = os.Stderr
	default:
		f, err := os.OpenFile(*accessLog, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return fmt.Errorf("opening access log: %w", err)
		}
		logSink = f
		logClose = f.Close
	}
	if logClose != nil {
		defer logClose() //nolint:errcheck // best-effort close on exit
	}

	// A server wants its instruments live: enable the gated telemetry layer
	// and publish the process-wide registry under "rankties" at /debug/vars.
	// The service's own rankserve_* families and the same process-wide
	// instruments render at GET /metrics, /stats derives its tallies from
	// those families, and span trees of sampled requests are at
	// GET /debug/traces.
	telemetry.Enable()
	telemetry.SetRecentTraceCapacity(*traces)
	svc := service.New(service.Config{
		MaxTenants:           *maxTenants,
		MaxCatalogsPerTenant: *maxCatalogs,
		MaxBodyBytes:         *maxBody,
		Limits:               limits,
		CacheCapacity:        *cacheCap,
		Workers:              *workers,
		QueueDepth:           *queueDepth,
		RatePerSec:           *rate,
		RateBurst:            *rateBurst,
		DefaultDeadline:      *defaultDeadline,
		MaxDeadline:          *maxDeadline,
		ApproxTheta:          *approxTheta,
		StaleTTL:             *staleTTL,
		TraceSampleRate:      *traceSample,
		AccessLog:            logSink,
	})
	telemetry.PublishExpvar()

	// Register the signal handler before the listener exists: once a client
	// can reach the server, SIGINT is already guaranteed to drain rather
	// than kill.
	sigCtx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}

	// baseCtx parents every request context; canceling it after the grace
	// window threads cancellation into in-flight engine runs (MedRank,
	// ThresholdTopK, and the fallible variants all honor their contexts).
	baseCtx, cancelBase := context.WithCancel(context.Background())
	defer cancelBase()
	srv := &http.Server{
		Handler:           svc.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
		BaseContext:       func(net.Listener) context.Context { return baseCtx },
	}

	serveErr := make(chan error, 1)
	go func() {
		err := srv.Serve(ln)
		if err == http.ErrServerClosed {
			err = nil
		}
		serveErr <- err
	}()
	fmt.Fprintf(logw, "rankserve: listening on http://%s\n", ln.Addr())

	select {
	case err := <-serveErr:
		return err
	case <-sigCtx.Done():
	}
	stop()
	fmt.Fprintf(logw, "rankserve: draining (grace %s)\n", *grace)

	// Drain the admission queue before the listener: queued-but-unstarted
	// requests fail fast with 503 instead of competing with the in-flight
	// ones for the grace window, and new arrivals are refused outright.
	svc.BeginDrain()
	shutCtx, cancel := context.WithTimeout(context.Background(), *grace)
	defer cancel()
	shutErr := srv.Shutdown(shutCtx)
	cancelBase() // cancel any queries that outlived the grace window
	if errors.Is(shutErr, context.DeadlineExceeded) {
		// In-flight queries were canceled rather than drained; the engines
		// unwind through their contexts, so this is still a clean exit.
		fmt.Fprintln(logw, "rankserve: grace window expired; canceled remaining queries")
		shutErr = nil
	}
	if err := <-serveErr; err != nil {
		return err
	}
	fmt.Fprintln(logw, "rankserve: drained")
	return shutErr
}
