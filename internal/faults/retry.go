package faults

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"time"

	"repro/internal/telemetry"
)

// Gated telemetry instruments of the retry layer. The "span.retry" histogram
// records backoff waits in nanoseconds, so -stats runs show how much time a
// query spent absorbing transient faults.
var (
	tRetries          = telemetry.GetCounter("faults.retries")
	tRetriesExhausted = telemetry.GetCounter("faults.retries_exhausted")
	hRetryBackoff     = telemetry.GetHistogram("span.retry")
)

// RetryPolicy bounds the transient-fault absorption of WithRetry:
// exponential backoff with deterministic jitter, capped attempts, capped
// delay. The zero value is normalized to DefaultRetryPolicy's fields.
type RetryPolicy struct {
	// MaxAttempts is the total number of tries per access, the first one
	// included; once exhausted the source is declared dead.
	MaxAttempts int
	// BaseDelay is the backoff before the second attempt.
	BaseDelay time.Duration
	// MaxDelay caps the grown backoff.
	MaxDelay time.Duration
	// Multiplier grows the backoff between attempts (exponential base).
	Multiplier float64
	// JitterSeed seeds the deterministic jitter source: the same seed yields
	// the same backoff schedule, so chaos runs are reproducible.
	JitterSeed int64
	// Sleeper performs the waits; nil means WallClock. Tests inject a
	// FakeSleeper so retry paths run instantly.
	Sleeper Sleeper
}

// DefaultRetryPolicy is the production default: 4 attempts, 1ms initial
// backoff doubling to a 100ms cap.
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{
		MaxAttempts: 4,
		BaseDelay:   time.Millisecond,
		MaxDelay:    100 * time.Millisecond,
		Multiplier:  2,
		JitterSeed:  1,
	}
}

func (p RetryPolicy) normalized() RetryPolicy {
	def := DefaultRetryPolicy()
	if p.MaxAttempts < 1 {
		p.MaxAttempts = def.MaxAttempts
	}
	if p.BaseDelay <= 0 {
		p.BaseDelay = def.BaseDelay
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = def.MaxDelay
	}
	if p.Multiplier <= 1 {
		p.Multiplier = def.Multiplier
	}
	if p.Sleeper == nil {
		p.Sleeper = WallClock
	}
	return p
}

type retrySource struct {
	src  Source
	pol  RetryPolicy
	acc  *telemetry.AccessAccountant
	list int

	// mu guards the jitter RNG and the dead flag: chaos harnesses share one
	// wrapped stack across goroutines, and an unsynchronized *rand.Rand races
	// under that use. The lock is never held across the underlying access or
	// a backoff sleep, so retries on one list do not serialize the others;
	// single-goroutine runs draw the exact same jitter sequence as before.
	mu   sync.Mutex
	rng  *rand.Rand // seeded on the first backoff; nil until then
	dead bool
}

// WithRetry wraps src so transient access failures are retried under pol
// with exponential backoff and deterministic jitter. Once MaxAttempts
// transient failures hit a single access, the wrapper declares the list dead
// (the returned error matches ErrSourceDead) and stays dead. Permanent and
// context errors pass through unretried.
//
// When acc is non-nil, every failed attempt is charged as a failure and
// every re-attempt as a retry on list `list`, so injected faults appear in
// the same access report as the probes they delayed.
//
// The wrapper's own state (jitter RNG, dead flag) is safe for concurrent
// use; concurrent accesses to the underlying source are only safe when the
// source itself is (faults.Inject's wrapper is).
func WithRetry(src Source, pol RetryPolicy, acc *telemetry.AccessAccountant, list int) Source {
	pol = pol.normalized()
	return &retrySource{
		src:  src,
		pol:  pol,
		acc:  acc,
		list: list,
	}
}

// markDead flips the sticky dead flag under the lock.
func (r *retrySource) markDead() {
	r.mu.Lock()
	r.dead = true
	r.mu.Unlock()
}

// isDead reads the sticky dead flag under the lock.
func (r *retrySource) isDead() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.dead
}

// do runs op, absorbing transient failures per the policy. The caller's
// context gates every step: a canceled or expired context is returned before
// the first attempt, before any re-attempt, and aborts a backoff sleep
// mid-wait — the remaining deadline budget is never spent driving a source
// the caller has already abandoned.
func (r *retrySource) do(ctx context.Context, op func() error) error {
	if r.isDead() {
		return ErrSourceDead
	}
	delay := r.pol.BaseDelay
	for attempt := 1; ; attempt++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		err := op()
		if err == nil {
			return nil
		}
		if IsContextErr(err) {
			return err
		}
		if !IsTransient(err) {
			// Permanent: the list is gone for good.
			r.markDead()
			return err
		}
		if r.acc != nil {
			r.acc.Failure(r.list)
		}
		if attempt >= r.pol.MaxAttempts {
			tRetriesExhausted.Inc()
			r.markDead()
			return fmt.Errorf("%w (after %d attempts: %v)", ErrSourceDead, attempt, err)
		}
		// Jittered backoff in [delay/2, delay]: deterministic given the seed.
		// Most wrapped lists never back off, so the source (about 5 KB, and
		// most of the cost of a wrapper) is seeded on the first backoff; the
		// draws are the ones an eagerly seeded source would make.
		r.mu.Lock()
		if r.rng == nil {
			r.rng = rand.New(rand.NewSource(r.pol.JitterSeed))
		}
		d := delay/2 + time.Duration(r.rng.Int63n(int64(delay/2)+1))
		r.mu.Unlock()
		if err := r.pol.Sleeper.Sleep(ctx, d); err != nil {
			// The backoff was aborted by the context: no retry happens, so no
			// retry is charged — the access report must reflect work done,
			// not work planned.
			return err
		}
		tRetries.Inc()
		hRetryBackoff.Observe(int64(d))
		if r.acc != nil {
			r.acc.Retry(r.list)
		}
		delay = time.Duration(float64(delay) * r.pol.Multiplier)
		if delay > r.pol.MaxDelay {
			delay = r.pol.MaxDelay
		}
	}
}

func (r *retrySource) Next(ctx context.Context) (Entry, bool, error) {
	var e Entry
	var ok bool
	err := r.do(ctx, func() error {
		var err error
		e, ok, err = r.src.Next(ctx)
		return err
	})
	if err != nil {
		return Entry{}, false, err
	}
	return e, ok, nil
}

func (r *retrySource) Pos2(ctx context.Context, elem int) (int64, error) {
	var v int64
	err := r.do(ctx, func() error {
		var err error
		v, err = r.src.Pos2(ctx, elem)
		return err
	})
	if err != nil {
		return 0, err
	}
	return v, nil
}

func (r *retrySource) Peek2() int64 {
	if r.isDead() {
		return math.MaxInt64
	}
	return r.src.Peek2()
}

func (r *retrySource) N() int { return r.src.N() }
