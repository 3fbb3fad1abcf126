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

// Gated telemetry instruments of the injector.
var (
	tInjTransient = telemetry.GetCounter("faults.injected.transient")
	tInjDeaths    = telemetry.GetCounter("faults.injected.deaths")
)

// Plan configures a deterministic fault injector: given the same seed and
// the same access sequence, the injected faults are identical, so chaos
// experiments and tests replay exactly. All rates are per access attempt.
type Plan struct {
	// Seed drives the injector's private random stream.
	Seed int64
	// TransientRate is the probability an access fails with a retryable
	// error (the underlying access does not happen and no entry is lost).
	TransientRate float64
	// DeathRate is the probability an access kills the list permanently.
	DeathRate float64
	// DeathAfter, when positive, kills the list permanently once this many
	// accesses (sequential plus random) have succeeded — the deterministic
	// "kill list i mid-query" knob of the chaos tests.
	DeathAfter int
	// Latency is a fixed wait injected before every access, served through
	// Sleeper so deadlines interrupt it.
	Latency time.Duration
	// Sleeper performs latency waits; nil means WallClock.
	Sleeper Sleeper
}

type injectedSource struct {
	src     Source
	plan    Plan
	sleeper Sleeper

	// mu guards the injector's mutable state: the private RNG stream and the
	// served/death bookkeeping. A Source need not be concurrency-safe, but
	// chaos harnesses do share one wrapped stack across goroutines, and an
	// unsynchronized *rand.Rand races (and can corrupt its internal state)
	// under that use. The lock is held across the underlying access too, so
	// the wrapper serializes the inner source and the served counts stay
	// consistent with the accesses they bill. Single-goroutine runs draw the
	// exact same RNG sequence as before: the lock changes when state may be
	// touched, never the order it is touched in.
	mu     sync.Mutex
	rng    *rand.Rand
	served int // successful accesses, sequential + random
	dead   bool
}

// Inject wraps src with the deterministic fault plan. A transient failure
// consumes no entry from the underlying source, so a retried access sees
// exactly what the failed one would have; death is permanent and sticky.
// The returned source is safe for concurrent use (accesses serialize on an
// internal lock); determinism of the fault sequence is per access order, so
// concurrent callers see a valid but schedule-dependent interleaving.
func Inject(src Source, plan Plan) Source {
	s := plan.Sleeper
	if s == nil {
		s = WallClock
	}
	return &injectedSource{
		src:     src,
		plan:    plan,
		rng:     rand.New(rand.NewSource(plan.Seed)),
		sleeper: s,
	}
}

// gate performs the checks that precede every access — dead check, latency
// wait, fault draws — and on success returns with s.mu HELD so the caller
// can perform the underlying access and its bookkeeping atomically. On error
// the lock is released. The latency wait happens outside the lock so
// injected latency does not serialize into injected contention.
func (s *injectedSource) gate(ctx context.Context) error {
	s.mu.Lock()
	if s.dead {
		s.mu.Unlock()
		return ErrSourceDead
	}
	s.mu.Unlock()
	if s.plan.Latency > 0 {
		if err := s.sleeper.Sleep(ctx, s.plan.Latency); err != nil {
			return err
		}
	}
	s.mu.Lock()
	if err := s.faultLocked(); err != nil {
		s.mu.Unlock()
		return err
	}
	return nil
}

// faultLocked decides the fate of one access attempt: nil to let it through,
// a transient error, or ErrSourceDead. Caller holds s.mu.
func (s *injectedSource) faultLocked() error {
	if s.dead {
		// Killed between the gate's dead check and the draws.
		return ErrSourceDead
	}
	if s.plan.DeathAfter > 0 && s.served >= s.plan.DeathAfter {
		return s.dieLocked()
	}
	if s.plan.DeathRate > 0 && s.rng.Float64() < s.plan.DeathRate {
		return s.dieLocked()
	}
	if s.plan.TransientRate > 0 && s.rng.Float64() < s.plan.TransientRate {
		tInjTransient.Inc()
		return Transient(fmt.Errorf("injected fault after %d accesses", s.served))
	}
	return nil
}

func (s *injectedSource) dieLocked() error {
	s.dead = true
	tInjDeaths.Inc()
	return ErrSourceDead
}

func (s *injectedSource) Next(ctx context.Context) (Entry, bool, error) {
	if err := s.gate(ctx); err != nil {
		return Entry{}, false, err
	}
	defer s.mu.Unlock()
	e, ok, err := s.src.Next(ctx)
	if err == nil && ok {
		s.served++
	}
	return e, ok, err
}

func (s *injectedSource) Pos2(ctx context.Context, elem int) (int64, error) {
	if err := s.gate(ctx); err != nil {
		return 0, err
	}
	defer s.mu.Unlock()
	v, err := s.src.Pos2(ctx, elem)
	if err == nil {
		s.served++
	}
	return v, err
}

func (s *injectedSource) Peek2() int64 {
	// The underlying peek stays under the lock like Next/Pos2: the injector is
	// the layer that makes an unsynchronized inner source shareable.
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.dead {
		return math.MaxInt64
	}
	return s.src.Peek2()
}

func (s *injectedSource) N() int { return s.src.N() }
