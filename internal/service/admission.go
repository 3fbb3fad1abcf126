package service

import (
	"fmt"
	"math"
	"net/http"
	"sync"
	"time"

	"repro/internal/telemetry"
)

// Overload admission: the layer between "the request parsed" and "an engine
// runs". Under light load it is a pass-through; at saturation it turns
// overload into designed-for behavior instead of collapse:
//
//   - A per-tenant token bucket bounds each tenant's sustained query rate, so
//     one tenant's burst cannot starve the others (disabled by default).
//   - A global concurrency limiter caps engines actually running at
//     Config.Workers; excess requests wait in a bounded LIFO stack. LIFO is
//     deliberate: under overload the newest waiter is the one whose client
//     deadline is furthest from expiry, so serving it first maximizes the
//     fraction of answers that still matter. The oldest waiters are exactly
//     the ones that will shed on deadline anyway.
//   - Deadline-aware shedding: a request whose expected queue wait exceeds
//     its remaining budget is rejected immediately with 429 + Retry-After —
//     a fast honest "no" instead of a slow guaranteed timeout. The estimate
//     is the admitted-work EWMA of engine service time scaled by queue
//     position.
//   - Draining: once BeginDrain is called (SIGINT), queued-but-unstarted
//     requests fail fast with 503 so the listener's graceful shutdown never
//     waits on work that hasn't started, while in-flight engines finish.
//
// Shed decisions carry a machine-readable reason, which feeds the
// rankserve_shed_total{tenant,reason} family, the access log, and the
// admission span.

// Shed reasons (the `reason` label of rankserve_shed_total).
const (
	ShedRateLimit = "rate_limit" // tenant token bucket empty
	ShedQueueFull = "queue_full" // global wait queue at capacity
	ShedDeadline  = "deadline"   // expected wait exceeds remaining budget
	ShedDraining  = "draining"   // server shutting down
)

// shedError is an admission rejection: an HTTP status, a reason label, and a
// client hint for when capacity is expected back.
type shedError struct {
	status     int
	reason     string
	retryAfter time.Duration
	msg        string
}

func (e *shedError) Error() string { return e.msg }

// tokenBucket is one tenant's rate limiter: capacity `burst`, refilled at
// `rate` tokens/second. Guarded by the admitter's mutex.
type tokenBucket struct {
	tokens float64
	last   time.Time
}

// waiter is one queued request. Grant closes ch with granted set; drain
// closes ch with drained set; a context abort leaves both false and the
// waiter unlinks itself.
type waiter struct {
	ch      chan struct{}
	granted bool
	drained bool
}

// admitter owns the admission state. All fields are guarded by mu except the
// service-time EWMA, which is its own atomic.
type admitter struct {
	workers    int
	queueDepth int
	rate       float64 // per-tenant tokens/second; <= 0 disables rate limiting
	burst      float64

	mu       sync.Mutex
	free     int
	waiters  []*waiter // LIFO: grants pop from the tail
	draining bool
	buckets  map[string]*tokenBucket

	// serviceNs tracks admitted engine service time (EWMA, nanoseconds); it
	// is the basis of every expected-wait estimate. Zero until the first
	// completed request, during which estimates are skipped — the bootstrap
	// never sheds on a guess.
	serviceNs *telemetry.EWMA

	queueGauge *telemetry.Gauge // rankserve_queue_depth, kept in sync with len(waiters)
}

func newAdmitter(cfg Config, queueGauge *telemetry.Gauge) *admitter {
	burst := cfg.RateBurst
	if burst <= 0 {
		burst = int(math.Ceil(cfg.RatePerSec)) * 2
		if burst < 1 {
			burst = 1
		}
	}
	return &admitter{
		workers:    cfg.Workers,
		queueDepth: cfg.QueueDepth,
		rate:       cfg.RatePerSec,
		burst:      float64(burst),
		free:       cfg.Workers,
		buckets:    make(map[string]*tokenBucket),
		serviceNs:  telemetry.NewEWMA(0.2),
		queueGauge: queueGauge,
	}
}

// observeService folds one completed engine run into the service-time EWMA.
func (a *admitter) observeService(d time.Duration) {
	if d > 0 {
		a.serviceNs.Observe(float64(d.Nanoseconds()))
	}
}

// estimateNs returns the current engine service-time estimate, or 0 when no
// request has completed yet.
func (a *admitter) estimateNs() float64 { return a.serviceNs.Value() }

// expectedWait estimates how long the pos-th waiter (1-based) will sit in
// the queue: the requests ahead of it drain through `workers` parallel slots
// at one EWMA service time each, plus its own service time once scheduled.
func (a *admitter) expectedWait(pos int) time.Duration {
	est := a.estimateNs()
	if est <= 0 {
		return 0
	}
	rounds := float64(pos+a.workers-1) / float64(a.workers)
	return time.Duration((rounds + 1) * est)
}

// takeToken charges one request against the tenant's bucket. Returns the
// wait until the next token when the bucket is empty.
// Caller holds a.mu.
func (a *admitter) takeToken(tenant string, now time.Time) (ok bool, retryAfter time.Duration) {
	if a.rate <= 0 {
		return true, 0
	}
	b := a.buckets[tenant]
	if b == nil {
		b = &tokenBucket{tokens: a.burst, last: now}
		a.buckets[tenant] = b
	}
	b.tokens = math.Min(a.burst, b.tokens+a.rate*now.Sub(b.last).Seconds())
	b.last = now
	if b.tokens >= 1 {
		b.tokens--
		return true, 0
	}
	return false, time.Duration((1 - b.tokens) / a.rate * float64(time.Second))
}

// forgetTenant drops a deleted tenant's bucket so the map stays bounded by
// live tenants (MaxTenants).
func (a *admitter) forgetTenant(tenant string) {
	a.mu.Lock()
	delete(a.buckets, tenant)
	a.mu.Unlock()
}

// admissionState is the admit-time outcome surfaced to the admission span.
type admissionState struct {
	queued   bool
	queuePos int // 1-based position at enqueue time; 0 when admitted directly
}

// acquire admits one request for tenant `tenant` under ctx: it charges the
// tenant's token bucket, then either takes a free engine slot, joins the
// bounded LIFO wait queue, or sheds. A nil shedError return means admitted;
// release must then be called exactly once.
func (a *admitter) acquire(ctx contextDeadliner, tenant string) (release func(), state admissionState, shed *shedError) {
	now := time.Now()
	a.mu.Lock()
	if a.draining {
		a.mu.Unlock()
		return nil, state, &shedError{
			status: http.StatusServiceUnavailable,
			reason: ShedDraining,
			msg:    "server is draining",
		}
	}
	if ok, wait := a.takeToken(tenant, now); !ok {
		a.mu.Unlock()
		return nil, state, &shedError{
			status:     http.StatusTooManyRequests,
			reason:     ShedRateLimit,
			retryAfter: wait,
			msg:        fmt.Sprintf("tenant %q over its %.3g req/s rate", tenant, a.rate),
		}
	}
	if a.free > 0 {
		a.free--
		a.mu.Unlock()
		return a.release, state, nil
	}
	// No slot free: queue, shed on depth, or shed on hopeless deadline.
	if len(a.waiters) >= a.queueDepth {
		wait := a.expectedWait(len(a.waiters))
		a.mu.Unlock()
		return nil, state, &shedError{
			status:     http.StatusTooManyRequests,
			reason:     ShedQueueFull,
			retryAfter: wait,
			msg:        fmt.Sprintf("wait queue full (%d deep)", a.queueDepth),
		}
	}
	pos := len(a.waiters) + 1
	if dl, ok := ctx.Deadline(); ok {
		if expect := a.expectedWait(pos); expect > 0 && expect > time.Until(dl) {
			a.mu.Unlock()
			return nil, state, &shedError{
				status:     http.StatusTooManyRequests,
				reason:     ShedDeadline,
				retryAfter: expect,
				msg: fmt.Sprintf("expected wait %s exceeds remaining deadline budget %s",
					expect.Round(time.Millisecond), time.Until(dl).Round(time.Millisecond)),
			}
		}
	}
	w := &waiter{ch: make(chan struct{})}
	a.waiters = append(a.waiters, w)
	a.queueGauge.Set(int64(len(a.waiters)))
	a.mu.Unlock()

	state.queued, state.queuePos = true, pos
	select {
	case <-w.ch:
		if w.drained {
			return nil, state, &shedError{
				status: http.StatusServiceUnavailable,
				reason: ShedDraining,
				msg:    "server is draining; queued request aborted",
			}
		}
		// granted
		return a.release, state, nil
	case <-ctx.Done():
		a.mu.Lock()
		if w.granted {
			// The grant raced the cancellation: the slot is ours, hand it back.
			a.mu.Unlock()
			a.release()
		} else {
			a.unlink(w)
			a.mu.Unlock()
		}
		return nil, state, &shedError{
			status:     http.StatusServiceUnavailable,
			reason:     ShedDeadline,
			retryAfter: time.Duration(a.estimateNs()),
			msg:        fmt.Sprintf("abandoned in queue: %v", ctx.Err()),
		}
	}
}

// unlink removes an abandoned waiter from the queue. Caller holds a.mu.
func (a *admitter) unlink(dead *waiter) {
	for i, w := range a.waiters {
		if w == dead {
			a.waiters = append(a.waiters[:i], a.waiters[i+1:]...)
			break
		}
	}
	a.queueGauge.Set(int64(len(a.waiters)))
}

// release frees one engine slot, handing it to the newest waiter if any.
func (a *admitter) release() {
	a.mu.Lock()
	if n := len(a.waiters); n > 0 && !a.draining {
		w := a.waiters[n-1] // LIFO
		a.waiters = a.waiters[:n-1]
		a.queueGauge.Set(int64(len(a.waiters)))
		w.granted = true
		close(w.ch)
		a.mu.Unlock()
		return
	}
	a.free++
	a.mu.Unlock()
}

// beginDrain flips the admitter into drain mode: every queued waiter is woken
// with a fast failure, and every future acquire sheds immediately. In-flight
// requests are unaffected; their releases stop granting and just restore
// free slots.
func (a *admitter) beginDrain() {
	a.mu.Lock()
	if a.draining {
		a.mu.Unlock()
		return
	}
	a.draining = true
	for _, w := range a.waiters {
		w.drained = true
		close(w.ch)
	}
	a.waiters = nil
	a.queueGauge.Set(0)
	a.mu.Unlock()
}

// queueLen reports the current wait-queue depth (tests and /stats).
func (a *admitter) queueLen() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.waiters)
}

// inflight reports how many engine slots are taken (tests and /stats).
func (a *admitter) inflight() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.workers - a.free
}

// contextDeadliner is the slice of context.Context acquire needs; taking the
// interface keeps the admitter testable with synthetic deadlines.
type contextDeadliner interface {
	Deadline() (time.Time, bool)
	Done() <-chan struct{}
	Err() error
}
