// Package faults is the fallible access layer of the reproduction: it
// abstracts the ranked lists every aggregation engine reads behind a Source
// interface whose accesses can fail, and provides composable wrappers — a
// deterministic seed-driven fault injector and a bounded exponential-backoff
// retrier — that turn an infallible in-memory list into the kind of external
// middleware source the Fagin–Lotem–Naor model actually describes: one that
// can stall, fail transiently, or die mid-query.
//
// The layering is strictly one-directional: engines (internal/topk,
// internal/db) consume Source values; this package never imports them. The
// infallible implementation lives in internal/topk (a cursor over a
// PartialRanking); chaos tooling composes it as
//
//	src := topk.NewListSource(pr, acc, i)      // infallible, accounted
//	src = faults.Inject(src, plan)             // deterministic failures
//	src = faults.WithRetry(src, policy, acc, i) // transient-fault absorption
//
// so injected faults and retries show up in the same
// telemetry.AccessAccountant report as the probes themselves.
package faults

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/telemetry"
)

// Entry is one probed item of a ranked list: an element and its (doubled)
// bucket position in that list. It is the wire type of the access layer;
// internal/topk aliases it so engine code and source code share one value
// type.
type Entry struct {
	Elem int
	Pos2 int64
}

// Source abstracts access to one ranked list under the middleware model:
// sequential access yields entries in non-decreasing position order, random
// access resolves one element's position by identity. Both can fail.
//
// Error contract:
//
//   - a transient error (IsTransient reports true) means the access failed
//     but the source may recover; WithRetry absorbs these.
//   - an error matching ErrSourceDead means the list is permanently gone and
//     no further access will succeed; engines degrade to the surviving lists.
//   - a context error (context.Canceled / context.DeadlineExceeded) aborts
//     the whole query and must be propagated unwrapped enough for errors.Is.
//
// A Source is driven by a single goroutine; implementations need not be
// concurrency-safe.
type Source interface {
	// Next returns the next entry of the sorted scan. ok is false with a nil
	// error only when the list is exhausted: every entry has been delivered.
	// A source must not end its scan early. Engines read a scan's end as
	// complete knowledge of the list, and a run whose surviving scans all
	// end before its answer is certified fails rather than answer from part
	// of the data.
	Next(ctx context.Context) (Entry, bool, error)
	// Peek2 returns the doubled position of the next unprobed entry — the
	// frontier — or math.MaxInt64 when the scan is exhausted or the source is
	// dead. Peeking is free and infallible: a sequential scan always knows it
	// has not yet passed a given position.
	Peek2() int64
	// Pos2 random-accesses element elem's doubled position in the list.
	Pos2(ctx context.Context, elem int) (int64, error)
	// N returns the domain size of the underlying list.
	N() int
}

// Wrapper decorates one list's source in a chaos pipeline: callers hand one
// to an engine entry point (topk.RunRankings, db.TopKResilient) to splice
// injectors and retry policies between the engine and its lists. acc is the
// accountant the run charges, so a WithRetry layer built on it reports its
// failures and retries in the run's own access report.
type Wrapper func(list int, src Source, acc *telemetry.AccessAccountant) Source

// ErrSourceDead marks a ranked list as permanently unavailable: every
// subsequent access fails the same way. Engines test for it (or for any
// non-transient, non-context error) and drop the list from the aggregation.
var ErrSourceDead = errors.New("faults: ranked list permanently unavailable")

// transientError marks an error as retryable.
type transientError struct{ err error }

func (e *transientError) Error() string   { return fmt.Sprintf("transient: %v", e.err) }
func (e *transientError) Unwrap() error   { return e.err }
func (e *transientError) Transient() bool { return true }

// Transient wraps err so IsTransient reports true for it. Returns nil for a
// nil err.
func Transient(err error) error {
	if err == nil {
		return nil
	}
	return &transientError{err: err}
}

// IsTransient reports whether err is marked retryable: some error in its
// chain implements Transient() bool returning true. Context errors are never
// transient.
func IsTransient(err error) bool {
	var t interface{ Transient() bool }
	return errors.As(err, &t) && t.Transient()
}

// IsContextErr reports whether err is (or wraps) a context cancellation or
// deadline expiry — the class of errors that aborts a whole query rather
// than killing one list.
func IsContextErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}
