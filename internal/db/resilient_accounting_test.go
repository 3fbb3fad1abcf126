package db

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"

	"repro/internal/faults"
	"repro/internal/telemetry"
)

// observedSource sits between the retry layer and the fault injector and
// records ground truth about what the injector actually did: successful
// accesses per mode, transient errors surfaced, and dead errors surfaced.
// The accounting layers above and below it must reconcile with these tallies
// exactly — that is what makes the chaos accounting trustworthy rather than
// merely plausible.
type observedSource struct {
	src        faults.Source
	seq        atomic.Int64 // successful sequential accesses
	random     atomic.Int64 // successful random accesses
	transients atomic.Int64 // transient errors surfaced by the injector
	deadErrs   atomic.Int64 // ErrSourceDead errors surfaced by the injector
}

func (o *observedSource) observe(err error) {
	switch {
	case err == nil:
	case faults.IsTransient(err):
		o.transients.Add(1)
	case errors.Is(err, faults.ErrSourceDead):
		o.deadErrs.Add(1)
	}
}

func (o *observedSource) Next(ctx context.Context) (faults.Entry, bool, error) {
	e, ok, err := o.src.Next(ctx)
	o.observe(err)
	if err == nil && ok {
		o.seq.Add(1)
	}
	return e, ok, err
}

func (o *observedSource) Pos2(ctx context.Context, elem int) (int64, error) {
	v, err := o.src.Pos2(ctx, elem)
	o.observe(err)
	if err == nil {
		o.random.Add(1)
	}
	return v, err
}

func (o *observedSource) Peek2() int64 { return o.src.Peek2() }
func (o *observedSource) N() int       { return o.src.N() }

// chaosWrap builds the standard resilient stack for TopKResilient — list
// source → injector → observer → retry — returning the observers and the
// report of the run's accountant, which the retry layer charges failures
// and retries to.
func chaosWrap(lists int, planFor func(i int) faults.Plan, seed int64) (faults.Wrapper, []*observedSource, func() telemetry.AccessReport) {
	obs := make([]*observedSource, lists)
	var runAcc *telemetry.AccessAccountant
	wrap := func(i int, src faults.Source, acc *telemetry.AccessAccountant) faults.Source {
		runAcc = acc
		plan := planFor(i)
		plan.Sleeper = &faults.FakeSleeper{}
		inj := faults.Inject(src, plan)
		obs[i] = &observedSource{src: inj}
		pol := faults.DefaultRetryPolicy()
		pol.MaxAttempts = 8
		pol.JitterSeed = seed
		pol.Sleeper = &faults.FakeSleeper{}
		return faults.WithRetry(obs[i], pol, acc, i)
	}
	return wrap, obs, func() telemetry.AccessReport { return runAcc.Report() }
}

// TestResilientAccountingReconcilesTransientSchedule runs TopKResilient
// under a transient-only fault schedule for a fixed seed matrix and
// reconciles every layer's tallies against the observer's ground truth:
//
//   - the retry accountant's Failed equals the transient errors the injector
//     surfaced (each is charged exactly once),
//   - Retried equals Failed when no access exhausted its retry budget (no
//     list died, so every transient was absorbed by a re-attempt),
//   - the engine's per-list sequential/random counts equal the successful
//     accesses the observer saw pass the injector (faults consume no entry),
//   - QueryResult.Access reports the same Failed and Retried: the retry
//     layer charges the run's own accountant.
func TestResilientAccountingReconcilesTransientSchedule(t *testing.T) {
	const n, k = 48, 10
	tbl := accountingTable(t, n)
	m := len(accountingPrefs)

	sawFaults := false
	for _, seed := range []int64{1, 2, 3, 4, 5} {
		for _, rate := range []float64{0, 0.05, 0.15} {
			wrap, obs, report := chaosWrap(m, func(i int) faults.Plan {
				return faults.Plan{Seed: seed + 31*int64(i), TransientRate: rate}
			}, seed)
			res, err := tbl.TopKResilient(context.Background(), Query{Preferences: accountingPrefs, K: k}, wrap)
			if err != nil {
				t.Fatalf("seed=%d rate=%v: %v", seed, rate, err)
			}
			if res.Degraded != nil {
				t.Fatalf("seed=%d rate=%v: unexpected degraded answer (lost %v)", seed, rate, res.Degraded.Lost)
			}
			rep := report()
			var transients int64
			for i, o := range obs {
				transients += o.transients.Load()
				if got, want := rep.FailedPerList[i], o.transients.Load(); got != want {
					t.Errorf("seed=%d rate=%v list %d: accountant failures %d, injector surfaced %d transients", seed, rate, i, got, want)
				}
				if got, want := int64(res.Access.PerList[i]), o.seq.Load(); got != want {
					t.Errorf("seed=%d rate=%v list %d: engine sequential %d, observer saw %d successes", seed, rate, i, got, want)
				}
				if got, want := int64(res.Access.RandomPerList[i]), o.random.Load(); got != want {
					t.Errorf("seed=%d rate=%v list %d: engine random %d, observer saw %d successes", seed, rate, i, got, want)
				}
				if o.deadErrs.Load() != 0 {
					t.Errorf("seed=%d rate=%v list %d: injector surfaced %d dead errors under a transient-only plan", seed, rate, i, o.deadErrs.Load())
				}
			}
			if rep.Failed != transients {
				t.Errorf("seed=%d rate=%v: accountant failures %d != injector transients %d", seed, rate, rep.Failed, transients)
			}
			if int64(res.Access.Failed) != transients || int64(res.Access.Retried) != transients {
				t.Errorf("seed=%d rate=%v: QueryResult.Access failed=%d retried=%d, retry layer absorbed %d transients",
					seed, rate, res.Access.Failed, res.Access.Retried, transients)
			}
			// No exhaustion (no list died), so every failure was followed by a
			// re-attempt: the two tallies must be equal, not merely close.
			if rep.Retried != rep.Failed {
				t.Errorf("seed=%d rate=%v: retried %d != failed %d with no exhausted access", seed, rate, rep.Retried, rep.Failed)
			}
			if rate == 0 && rep.Failed != 0 {
				t.Errorf("seed=%d: %d failures injected under a zero-rate plan", seed, rep.Failed)
			}
			if rate > 0 && transients > 0 {
				sawFaults = true
			}
		}
	}
	if !sawFaults {
		t.Error("no seed in the matrix injected any transient fault; the reconciliation was vacuous")
	}
}

// TestResilientAccountingReconcilesDeathSchedule kills one list after a
// known number of successful accesses and reconciles the degraded answer's
// wasted-access counts against the injector's schedule: the work charged to
// the dead list equals what the observer saw succeed there, which is capped
// by the plan's DeathAfter.
func TestResilientAccountingReconcilesDeathSchedule(t *testing.T) {
	const n, k = 48, 10
	tbl := accountingTable(t, n)
	m := len(accountingPrefs)

	for _, seed := range []int64{1, 2, 3} {
		for victim := 0; victim < m; victim++ {
			const deathAfter = 5
			wrap, obs, report := chaosWrap(m, func(i int) faults.Plan {
				if i == victim {
					return faults.Plan{Seed: seed, DeathAfter: deathAfter}
				}
				return faults.Plan{Seed: seed}
			}, seed)
			res, err := tbl.TopKResilient(context.Background(), Query{Preferences: accountingPrefs, K: k}, wrap)
			if err != nil {
				t.Fatalf("seed=%d victim=%d: %v", seed, victim, err)
			}
			if res.Degraded == nil {
				t.Fatalf("seed=%d victim=%d: query did not degrade although list %d died after %d accesses", seed, victim, victim, deathAfter)
			}
			if len(res.Degraded.Lost) != 1 || res.Degraded.Lost[0] != victim {
				t.Fatalf("seed=%d victim=%d: lost %v, want [%d]", seed, victim, res.Degraded.Lost, victim)
			}
			if res.Degraded.Survivors != m-1 {
				t.Errorf("seed=%d victim=%d: %d survivors, want %d", seed, victim, res.Degraded.Survivors, m-1)
			}

			o := obs[victim]
			succeeded := o.seq.Load() + o.random.Load()
			if succeeded != deathAfter {
				t.Errorf("seed=%d victim=%d: %d accesses succeeded on the victim, schedule allowed exactly %d", seed, victim, succeeded, deathAfter)
			}
			if o.deadErrs.Load() == 0 {
				t.Errorf("seed=%d victim=%d: observer never saw the injected death", seed, victim)
			}
			// Wasted work is exactly what the schedule let through before the
			// kill: the degraded report must agree with the observer, access
			// mode by access mode.
			if got, want := int64(res.Degraded.WastedSequential), o.seq.Load(); got != want {
				t.Errorf("seed=%d victim=%d: wasted sequential %d, observer saw %d", seed, victim, got, want)
			}
			if got, want := int64(res.Degraded.WastedRandom), o.random.Load(); got != want {
				t.Errorf("seed=%d victim=%d: wasted random %d, observer saw %d", seed, victim, got, want)
			}
			// A death is permanent, not transient: the retry layer must not
			// have charged it as an absorbable failure.
			rep := report()
			if rep.FailedPerList[victim] != 0 || rep.RetriedPerList[victim] != 0 {
				t.Errorf("seed=%d victim=%d: death charged as failed=%d retried=%d; permanent errors pass through unretried",
					seed, victim, rep.FailedPerList[victim], rep.RetriedPerList[victim])
			}
		}
	}
}

// TestResilientAccountingDeterministicReplay pins the replay guarantee the
// fixed-seed matrix relies on: the same seeds produce byte-identical
// answers, access stats, and fault tallies across runs.
func TestResilientAccountingDeterministicReplay(t *testing.T) {
	const n, k = 48, 10
	tbl := accountingTable(t, n)
	m := len(accountingPrefs)

	type runOutcome struct {
		keys       []string
		access     []int
		failed     []int64
		retried    []int64
		transients []int64
	}
	run := func() runOutcome {
		wrap, obs, report := chaosWrap(m, func(i int) faults.Plan {
			return faults.Plan{Seed: 7 + 31*int64(i), TransientRate: 0.1}
		}, 7)
		res, err := tbl.TopKResilient(context.Background(), Query{Preferences: accountingPrefs, K: k}, wrap)
		if err != nil {
			t.Fatal(err)
		}
		rep := report()
		out := runOutcome{keys: res.Keys, access: res.Access.PerList, failed: rep.FailedPerList, retried: rep.RetriedPerList}
		for _, o := range obs {
			out.transients = append(out.transients, o.transients.Load())
		}
		return out
	}
	first, second := run(), run()
	if !equalSlices(first.keys, second.keys) {
		t.Errorf("replay changed the answer: %v vs %v", first.keys, second.keys)
	}
	if !equalSlices(first.access, second.access) {
		t.Errorf("replay changed access counts: %v vs %v", first.access, second.access)
	}
	if !equalSlices(first.failed, second.failed) || !equalSlices(first.retried, second.retried) {
		t.Errorf("replay changed fault tallies: failed %v vs %v, retried %v vs %v",
			first.failed, second.failed, first.retried, second.retried)
	}
	if !equalSlices(first.transients, second.transients) {
		t.Errorf("replay changed the injected schedule itself: %v vs %v", first.transients, second.transients)
	}
}

func equalSlices[T comparable](a, b []T) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
