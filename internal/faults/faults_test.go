package faults

import (
	"context"
	"errors"
	"fmt"
	"math"
	"testing"
	"time"

	"repro/internal/telemetry"
)

// sliceSource is an infallible in-test Source over a fixed entry slice.
type sliceSource struct {
	entries []Entry
	next    int
	n       int
}

func newSliceSource(n int, entries ...Entry) *sliceSource {
	return &sliceSource{entries: entries, n: n}
}

func (s *sliceSource) Next(ctx context.Context) (Entry, bool, error) {
	if s.next >= len(s.entries) {
		return Entry{}, false, nil
	}
	e := s.entries[s.next]
	s.next++
	return e, true, nil
}

func (s *sliceSource) Peek2() int64 {
	if s.next >= len(s.entries) {
		return math.MaxInt64
	}
	return s.entries[s.next].Pos2
}

func (s *sliceSource) Pos2(ctx context.Context, elem int) (int64, error) {
	for _, e := range s.entries {
		if e.Elem == elem {
			return e.Pos2, nil
		}
	}
	return 0, fmt.Errorf("elem %d not present", elem)
}

func (s *sliceSource) N() int { return s.n }

// flakySource fails the first `failures` accesses with a transient error,
// then delegates.
type flakySource struct {
	Source
	failures int
	calls    int
}

func (s *flakySource) Next(ctx context.Context) (Entry, bool, error) {
	s.calls++
	if s.calls <= s.failures {
		return Entry{}, false, Transient(fmt.Errorf("flaky call %d", s.calls))
	}
	return s.Source.Next(ctx)
}

func entries(n int) []Entry {
	es := make([]Entry, n)
	for i := range es {
		es[i] = Entry{Elem: i, Pos2: int64(2 * i)}
	}
	return es
}

func TestTransientClassification(t *testing.T) {
	base := errors.New("boom")
	if !IsTransient(Transient(base)) {
		t.Error("Transient(err) not classified transient")
	}
	if IsTransient(base) {
		t.Error("plain error classified transient")
	}
	if IsTransient(ErrSourceDead) {
		t.Error("ErrSourceDead classified transient")
	}
	if Transient(nil) != nil {
		t.Error("Transient(nil) != nil")
	}
	if !errors.Is(Transient(base), base) {
		t.Error("Transient does not unwrap to the cause")
	}
	if !IsContextErr(context.Canceled) || !IsContextErr(fmt.Errorf("wrap: %w", context.DeadlineExceeded)) {
		t.Error("context errors not classified")
	}
	if IsContextErr(base) {
		t.Error("plain error classified as context error")
	}
}

func TestInjectDeterministic(t *testing.T) {
	// Two injectors with the same seed over the same access sequence must
	// fail at exactly the same points.
	run := func() []bool {
		src := Inject(newSliceSource(50, entries(50)...), Plan{Seed: 7, TransientRate: 0.3})
		var fails []bool
		for i := 0; i < 80; i++ {
			_, ok, err := src.Next(context.Background())
			fails = append(fails, err != nil)
			if err == nil && !ok {
				break
			}
		}
		return fails
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("runs diverged in length: %d vs %d", len(a), len(b))
	}
	failed := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("runs diverged at access %d", i)
		}
		if a[i] {
			failed++
		}
	}
	if failed == 0 {
		t.Error("TransientRate=0.3 over 50+ accesses injected no faults")
	}
}

func TestInjectTransientConsumesNoEntry(t *testing.T) {
	src := Inject(newSliceSource(10, entries(10)...), Plan{Seed: 3, TransientRate: 0.5})
	var got []Entry
	for len(got) < 10 {
		e, ok, err := src.Next(context.Background())
		if err != nil {
			if !IsTransient(err) {
				t.Fatalf("unexpected permanent error: %v", err)
			}
			continue // retry: the failed access must not have eaten an entry
		}
		if !ok {
			break
		}
		got = append(got, e)
	}
	want := entries(10)
	if len(got) != len(want) {
		t.Fatalf("got %d entries, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("entry %d = %+v, want %+v (transient failure consumed an entry)", i, got[i], want[i])
		}
	}
}

func TestInjectDeathAfter(t *testing.T) {
	src := Inject(newSliceSource(10, entries(10)...), Plan{DeathAfter: 3})
	for i := 0; i < 3; i++ {
		if _, ok, err := src.Next(context.Background()); !ok || err != nil {
			t.Fatalf("access %d failed early: ok=%v err=%v", i, ok, err)
		}
	}
	for i := 0; i < 2; i++ { // death is sticky
		if _, _, err := src.Next(context.Background()); !errors.Is(err, ErrSourceDead) {
			t.Fatalf("post-death access %d: err=%v, want ErrSourceDead", i, err)
		}
	}
	if _, err := src.Pos2(context.Background(), 0); !errors.Is(err, ErrSourceDead) {
		t.Errorf("post-death random access: err=%v, want ErrSourceDead", err)
	}
	if src.Peek2() != math.MaxInt64 {
		t.Error("dead source's frontier not MaxInt64")
	}
}

func TestInjectLatencyHonorsDeadline(t *testing.T) {
	sl := &FakeSleeper{}
	src := Inject(newSliceSource(10, entries(10)...), Plan{Latency: time.Second, Sleeper: sl})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := src.Next(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("Next under canceled ctx: err=%v, want Canceled", err)
	}
	if _, _, err := src.Next(context.Background()); err != nil {
		t.Fatalf("Next after cancellation recovered: %v", err)
	}
	if got := sl.Waits(); len(got) != 1 || got[0] != time.Second {
		t.Errorf("recorded waits = %v, want [1s]", got)
	}
}

func TestWithRetryAbsorbsTransients(t *testing.T) {
	sl := &FakeSleeper{}
	acc := telemetry.NewAccessAccountant(1)
	inner := &flakySource{Source: newSliceSource(5, entries(5)...), failures: 2}
	src := WithRetry(inner, RetryPolicy{
		MaxAttempts: 4,
		BaseDelay:   8 * time.Millisecond,
		MaxDelay:    time.Second,
		Multiplier:  2,
		JitterSeed:  1,
		Sleeper:     sl,
	}, acc, 0)

	e, ok, err := src.Next(context.Background())
	if err != nil || !ok || e.Elem != 0 {
		t.Fatalf("retried Next = %+v ok=%v err=%v", e, ok, err)
	}
	waits := sl.Waits()
	if len(waits) != 2 {
		t.Fatalf("recorded %d backoffs, want 2", len(waits))
	}
	// Jitter keeps each backoff in [delay/2, delay], delay doubling from base.
	if waits[0] < 4*time.Millisecond || waits[0] > 8*time.Millisecond {
		t.Errorf("backoff[0] = %v outside [4ms, 8ms]", waits[0])
	}
	if waits[1] < 8*time.Millisecond || waits[1] > 16*time.Millisecond {
		t.Errorf("backoff[1] = %v outside [8ms, 16ms]", waits[1])
	}
	rep := acc.Report()
	if rep.Failed != 2 || rep.Retried != 2 {
		t.Errorf("accountant saw failed=%d retried=%d, want 2 and 2", rep.Failed, rep.Retried)
	}
}

func TestWithRetryExhaustionKillsSource(t *testing.T) {
	sl := &FakeSleeper{}
	acc := telemetry.NewAccessAccountant(1)
	inner := &flakySource{Source: newSliceSource(5, entries(5)...), failures: 100}
	src := WithRetry(inner, RetryPolicy{MaxAttempts: 3, Sleeper: sl, JitterSeed: 1,
		BaseDelay: time.Millisecond, MaxDelay: time.Second, Multiplier: 2}, acc, 0)

	_, _, err := src.Next(context.Background())
	if !errors.Is(err, ErrSourceDead) {
		t.Fatalf("exhausted retries: err=%v, want ErrSourceDead", err)
	}
	if inner.calls != 3 {
		t.Errorf("inner saw %d attempts, want 3", inner.calls)
	}
	// Dead stays dead, without touching the inner source again.
	if _, _, err := src.Next(context.Background()); !errors.Is(err, ErrSourceDead) {
		t.Fatalf("post-death Next: err=%v", err)
	}
	if inner.calls != 3 {
		t.Errorf("dead wrapper still forwarded accesses (calls=%d)", inner.calls)
	}
	if src.Peek2() != math.MaxInt64 {
		t.Error("dead wrapper's frontier not MaxInt64")
	}
	if rep := acc.Report(); rep.Failed != 3 || rep.Retried != 2 {
		t.Errorf("accountant saw failed=%d retried=%d, want 3 and 2", rep.Failed, rep.Retried)
	}
}

func TestWithRetryDeterministicBackoff(t *testing.T) {
	run := func() []time.Duration {
		sl := &FakeSleeper{}
		inner := &flakySource{Source: newSliceSource(5, entries(5)...), failures: 3}
		src := WithRetry(inner, RetryPolicy{MaxAttempts: 5, Sleeper: sl, JitterSeed: 42,
			BaseDelay: time.Millisecond, MaxDelay: time.Second, Multiplier: 2}, nil, 0)
		if _, _, err := src.Next(context.Background()); err != nil {
			t.Fatalf("Next: %v", err)
		}
		return sl.Waits()
	}
	a, b := run(), run()
	if len(a) != 3 || len(b) != 3 {
		t.Fatalf("backoff counts = %d, %d; want 3", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("backoff %d differs across identical runs: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestWithRetryPermanentPassesThrough(t *testing.T) {
	boom := errors.New("disk gone")
	inner := &errSource{err: boom}
	src := WithRetry(inner, DefaultRetryPolicy(), nil, 0)
	if _, _, err := src.Next(context.Background()); !errors.Is(err, boom) {
		t.Fatalf("permanent error not passed through: %v", err)
	}
	if inner.calls != 1 {
		t.Errorf("permanent error was retried (%d calls)", inner.calls)
	}
	// And the wrapper is dead afterwards.
	if _, _, err := src.Next(context.Background()); !errors.Is(err, ErrSourceDead) {
		t.Fatalf("wrapper not dead after permanent error: %v", err)
	}
}

func TestWithRetryContextPassesThrough(t *testing.T) {
	inner := &flakySource{Source: newSliceSource(5, entries(5)...), failures: 100}
	src := WithRetry(inner, RetryPolicy{MaxAttempts: 10, Sleeper: &FakeSleeper{}, JitterSeed: 1,
		BaseDelay: time.Millisecond, MaxDelay: time.Second, Multiplier: 2}, nil, 0)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := src.Next(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled ctx: err=%v, want Canceled", err)
	}
	// Cancellation is not death: the wrapper must still work afterwards.
	inner.failures = 0
	if _, ok, err := src.Next(context.Background()); !ok || err != nil {
		t.Fatalf("wrapper dead after mere cancellation: ok=%v err=%v", ok, err)
	}
}

type errSource struct {
	err   error
	calls int
}

func (s *errSource) Next(ctx context.Context) (Entry, bool, error) {
	s.calls++
	return Entry{}, false, s.err
}
func (s *errSource) Peek2() int64 { return 0 }
func (s *errSource) Pos2(ctx context.Context, elem int) (int64, error) {
	s.calls++
	return 0, s.err
}
func (s *errSource) N() int { return 0 }
