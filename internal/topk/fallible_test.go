package topk

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"os"
	"reflect"
	"runtime"
	"strconv"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/randrank"
	"repro/internal/ranking"
	"repro/internal/telemetry"
)

// faultSeed returns the chaos seed: RANKTIES_FAULT_SEED when set (the CI
// chaos job runs the suite under a small seed matrix), 1 otherwise.
func faultSeed(t *testing.T) int64 {
	t.Helper()
	s := os.Getenv("RANKTIES_FAULT_SEED")
	if s == "" {
		return 1
	}
	v, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		t.Fatalf("RANKTIES_FAULT_SEED=%q: %v", s, err)
	}
	return v
}

func chaosEnsemble(t *testing.T, n, m int) []*ranking.PartialRanking {
	t.Helper()
	rng := rand.New(rand.NewSource(faultSeed(t)))
	return randrank.CatalogEnsemble(rng, n, m, 6, 1.0, 1.5).Rankings
}

// TestMedRankOverFaultFreeMatchesMedRank checks fault-free MEDRANK under
// every policy against the full-scan reference.
func TestMedRankOverFaultFreeMatchesMedRank(t *testing.T) {
	in := chaosEnsemble(t, 400, 5)
	for _, pol := range []Policy{GlobalMerge, RoundRobin, GlobalMergeBuckets, RoundRobinBuckets} {
		acc := telemetry.NewAccessAccountant(len(in))
		got, err := MedRankOver(context.Background(), listSources(in, acc, nil), 10, pol, acc)
		if err != nil {
			t.Fatal(err)
		}
		if got.Degraded != nil {
			t.Fatalf("policy %d: fault-free run reported Degraded", pol)
		}
		checkReference(t, in, Spec{K: 10, Policy: pol}, got)
	}
}

// TestMedRankOverSingleDeathDeterministic is the acceptance chaos test:
// killing any single list out of m=5 mid-query yields a Degraded result that
// is identical across runs and equal to the full-scan reference over the four
// surviving lists.
func TestMedRankOverSingleDeathDeterministic(t *testing.T) {
	const n, m, k = 300, 5, 8
	in := chaosEnsemble(t, n, m)
	for _, pol := range []Policy{GlobalMerge, RoundRobin, GlobalMergeBuckets, RoundRobinBuckets} {
		for victim := 0; victim < m; victim++ {
			run := func() *Result {
				acc := telemetry.NewAccessAccountant(m)
				srcs := listSources(in, acc, func(i int, s faults.Source, _ *telemetry.AccessAccountant) faults.Source {
					if i != victim {
						return s
					}
					return faults.Inject(s, faults.Plan{DeathAfter: 1})
				})
				res, err := MedRankOver(context.Background(), srcs, k, pol, acc)
				if err != nil {
					t.Fatalf("policy %d victim %d: %v", pol, victim, err)
				}
				return res
			}
			a, b := run(), run()
			if !reflect.DeepEqual(a.Winners, b.Winners) || !reflect.DeepEqual(a.Medians2, b.Medians2) ||
				!reflect.DeepEqual(a.Degraded, b.Degraded) || !reflect.DeepEqual(a.Stats, b.Stats) {
				t.Fatalf("policy %d victim %d: two identical chaos runs diverged", pol, victim)
			}
			if a.Degraded == nil {
				// Merge and bucket-granular scheduling may certify without
				// ever probing the victim twice (three drained first buckets
				// can already certify the top k); element-granular
				// round-robin cannot — it needs k distinct exact elements,
				// far more than one round — so there a missing death is a bug.
				if pol == RoundRobin {
					t.Fatalf("policy %d victim %d: death not reported", pol, victim)
				}
				checkReference(t, in, Spec{K: k, Policy: pol}, a)
				continue
			}
			if !reflect.DeepEqual(a.Degraded.Lost, []int{victim}) || a.Degraded.Survivors != m-1 {
				t.Fatalf("policy %d victim %d: Degraded = %+v", pol, victim, a.Degraded)
			}
			if a.Degraded.WastedSequential <= 0 {
				t.Errorf("policy %d victim %d: no wasted accesses recorded for the dead list", pol, victim)
			}
			checkReference(t, in, Spec{K: k, Policy: pol}, a)
		}
	}
}

// TestMedRankOverQualityInterval checks the Degraded certificate: every
// winner's interval must contain the median the winner would have had on the
// full fault-free instance.
func TestMedRankOverQualityInterval(t *testing.T) {
	const n, m, k = 300, 5, 8
	in := chaosEnsemble(t, n, m)
	j := (m + 1) / 2
	for victim := 0; victim < m; victim++ {
		acc := telemetry.NewAccessAccountant(m)
		srcs := listSources(in, acc, func(i int, s faults.Source, _ *telemetry.AccessAccountant) faults.Source {
			if i != victim {
				return s
			}
			return faults.Inject(s, faults.Plan{DeathAfter: 1})
		})
		res, err := MedRankOver(context.Background(), srcs, k, RoundRobin, acc)
		if err != nil {
			t.Fatal(err)
		}
		if res.Degraded == nil {
			t.Fatal("death not reported")
		}
		if len(res.Degraded.MedianIntervals2) != len(res.Winners) {
			t.Fatalf("got %d intervals for %d winners", len(res.Degraded.MedianIntervals2), len(res.Winners))
		}
		for i, w := range res.Winners {
			all := make([]int64, m)
			for l, r := range in {
				all[l] = r.Pos2(w)
			}
			truth := kthSmallest(all, j)
			iv := res.Degraded.MedianIntervals2[i]
			if truth < iv[0] || truth > iv[1] {
				t.Errorf("victim %d winner %d: fault-free median %d outside certified [%d, %d]",
					victim, w, truth, iv[0], iv[1])
			}
		}
	}
}

func TestMedRankOverTransientsAbsorbed(t *testing.T) {
	in := chaosEnsemble(t, 300, 5)
	seed := faultSeed(t)
	acc := telemetry.NewAccessAccountant(len(in))
	sl := &faults.FakeSleeper{}
	srcs := listSources(in, acc, func(i int, s faults.Source, _ *telemetry.AccessAccountant) faults.Source {
		s = faults.Inject(s, faults.Plan{Seed: seed + int64(i), TransientRate: 0.05})
		return faults.WithRetry(s, faults.RetryPolicy{
			MaxAttempts: 6, BaseDelay: time.Millisecond, MaxDelay: time.Second,
			Multiplier: 2, JitterSeed: seed, Sleeper: sl,
		}, acc, i)
	})
	got, err := MedRankOver(context.Background(), srcs, 10, RoundRobin, acc)
	if err != nil {
		t.Fatal(err)
	}
	if got.Degraded != nil {
		t.Fatal("retry-absorbed transients must not degrade the answer")
	}
	checkReference(t, in, Spec{K: 10, Policy: RoundRobin}, got)
	if got.Stats.Failed == 0 || got.Stats.Retried == 0 {
		t.Errorf("expected injected failures in stats, got failed=%d retried=%d",
			got.Stats.Failed, got.Stats.Retried)
	}
}

func TestMedRankOverRetryExhaustionKillsList(t *testing.T) {
	in := chaosEnsemble(t, 200, 5)
	const victim = 2
	acc := telemetry.NewAccessAccountant(len(in))
	srcs := listSources(in, acc, func(i int, s faults.Source, _ *telemetry.AccessAccountant) faults.Source {
		if i != victim {
			return s
		}
		s = faults.Inject(s, faults.Plan{Seed: 1, TransientRate: 1})
		return faults.WithRetry(s, faults.RetryPolicy{
			MaxAttempts: 3, BaseDelay: time.Millisecond, MaxDelay: time.Second,
			Multiplier: 2, JitterSeed: 1, Sleeper: &faults.FakeSleeper{},
		}, acc, i)
	})
	res, err := MedRankOver(context.Background(), srcs, 5, RoundRobin, acc)
	if err != nil {
		t.Fatal(err)
	}
	if res.Degraded == nil || !reflect.DeepEqual(res.Degraded.Lost, []int{victim}) {
		t.Fatalf("Degraded = %+v, want lost=[%d]", res.Degraded, victim)
	}
	if res.Stats.Failed < 3 {
		t.Errorf("Stats.Failed = %d, want >= MaxAttempts", res.Stats.Failed)
	}
}

func TestMedRankOverAllListsDead(t *testing.T) {
	in := chaosEnsemble(t, 100, 3)
	acc := telemetry.NewAccessAccountant(len(in))
	srcs := listSources(in, acc, func(i int, s faults.Source, _ *telemetry.AccessAccountant) faults.Source {
		return faults.Inject(s, faults.Plan{DeathAfter: 5})
	})
	_, err := MedRankOver(context.Background(), srcs, 5, RoundRobin, acc)
	if err == nil {
		t.Fatal("all lists dead: expected an error")
	}
	if !errors.Is(err, faults.ErrSourceDead) {
		t.Errorf("error %v does not wrap ErrSourceDead", err)
	}
}

// TestMedRankOverDeadline checks that a deadline aborts an in-flight run
// (injected latency makes every access slow) and leaks no goroutines.
func TestMedRankOverDeadline(t *testing.T) {
	in := chaosEnsemble(t, 2000, 4)
	before := runtime.NumGoroutine()

	acc := telemetry.NewAccessAccountant(len(in))
	srcs := listSources(in, acc, func(i int, s faults.Source, _ *telemetry.AccessAccountant) faults.Source {
		return faults.Inject(s, faults.Plan{Latency: 2 * time.Millisecond})
	})
	ctx, cancel := context.WithTimeout(context.Background(), 25*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := MedRankOver(ctx, srcs, 50, RoundRobin, acc)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("deadline abort took %v", elapsed)
	}

	deadlineFree := false
	for i := 0; i < 50; i++ {
		if runtime.NumGoroutine() <= before {
			deadlineFree = true
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if !deadlineFree {
		t.Errorf("goroutines leaked: before=%d after=%d", before, runtime.NumGoroutine())
	}
}

func TestMedRankContextCancelled(t *testing.T) {
	in := chaosEnsemble(t, 500, 5)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := MedRankContext(ctx, in, 10, GlobalMerge); !errors.Is(err, context.Canceled) {
		t.Fatalf("MedRankContext under canceled ctx: %v", err)
	}
	if _, err := ThresholdTopKContext(ctx, in, 10); !errors.Is(err, context.Canceled) {
		t.Fatalf("ThresholdTopKContext under canceled ctx: %v", err)
	}
}

// TestThresholdTopKOverFaultFreeMatchesTA checks fault-free TA against the
// full-scan reference.
func TestThresholdTopKOverFaultFreeMatchesTA(t *testing.T) {
	in := chaosEnsemble(t, 400, 5)
	acc := telemetry.NewAccessAccountant(len(in))
	got, err := ThresholdTopKOver(context.Background(), listSources(in, acc, nil), 10, acc)
	if err != nil {
		t.Fatal(err)
	}
	if got.Degraded != nil {
		t.Fatal("fault-free TA run reported Degraded")
	}
	checkReference(t, in, Spec{Algo: AlgoTA, K: 10}, got)
}

func TestThresholdTopKOverDeathDeterministic(t *testing.T) {
	const n, m, k = 300, 5, 8
	in := chaosEnsemble(t, n, m)
	j := (m + 1) / 2
	for victim := 0; victim < m; victim++ {
		run := func() *Result {
			acc := telemetry.NewAccessAccountant(m)
			srcs := listSources(in, acc, func(i int, s faults.Source, _ *telemetry.AccessAccountant) faults.Source {
				if i != victim {
					return s
				}
				return faults.Inject(s, faults.Plan{DeathAfter: 25})
			})
			res, err := ThresholdTopKOver(context.Background(), srcs, k, acc)
			if err != nil {
				t.Fatalf("victim %d: %v", victim, err)
			}
			return res
		}
		a, b := run(), run()
		if !reflect.DeepEqual(a.Winners, b.Winners) || !reflect.DeepEqual(a.Degraded, b.Degraded) {
			t.Fatalf("victim %d: chaos TA runs diverged", victim)
		}
		if a.Degraded == nil || !reflect.DeepEqual(a.Degraded.Lost, []int{victim}) || a.Degraded.Survivors != m-1 {
			t.Fatalf("victim %d: Degraded = %+v", victim, a.Degraded)
		}
		checkReference(t, in, Spec{Algo: AlgoTA, K: k}, a)

		for i, w := range a.Winners {
			all := make([]int64, m)
			for l, r := range in {
				all[l] = r.Pos2(w)
			}
			truth := kthSmallest(all, j)
			iv := a.Degraded.MedianIntervals2[i]
			if truth < iv[0] || truth > iv[1] {
				t.Errorf("victim %d winner %d: fault-free median %d outside certified [%d, %d]",
					victim, w, truth, iv[0], iv[1])
			}
		}
	}
}

func TestMedRankOverValidation(t *testing.T) {
	in := chaosEnsemble(t, 50, 3)
	acc := telemetry.NewAccessAccountant(3)
	if _, err := MedRankOver(context.Background(), nil, 1, RoundRobin, nil); err == nil {
		t.Error("no sources accepted")
	}
	if _, err := MedRankOver(context.Background(), listSources(in, acc, nil), 51, RoundRobin, acc); err == nil {
		t.Error("k > n accepted")
	}
	if _, err := MedRankOver(context.Background(), listSources(in, acc, nil), 1, Policy(99), acc); err == nil {
		t.Error("unknown policy accepted")
	}
	if _, err := ThresholdTopKOver(context.Background(), nil, 1, nil); err == nil {
		t.Error("TA: no sources accepted")
	}
	// MedRankOver with k=0 certifies immediately.
	res, err := MedRankOver(context.Background(), listSources(in, acc, nil), 0, GlobalMerge, acc)
	if err != nil || len(res.Winners) != 0 {
		t.Errorf("k=0: res=%v err=%v", res, err)
	}
}

// endingSource ends its sorted scan after cut entries while random access
// still sees the whole list: a source that breaks the Source contract by
// ending early.
type endingSource struct {
	faults.Source
	left int
}

func (s *endingSource) Next(ctx context.Context) (Entry, bool, error) {
	if s.left == 0 {
		return Entry{}, false, nil
	}
	s.left--
	return s.Source.Next(ctx)
}

func (s *endingSource) Peek2() int64 {
	if s.left == 0 {
		return math.MaxInt64
	}
	return s.Source.Peek2()
}

// TestEnginesFailWhenScansEndEarly checks that no engine answers from part
// of the data: with every scan ended after a few entries, each one returns
// ErrScanEnded instead of winners. k = n leaves nothing certifiable; for TA,
// k = 2 also covers the threshold becoming infinite once the scans end,
// which used to stop the run on whatever k elements it had resolved.
func TestEnginesFailWhenScansEndEarly(t *testing.T) {
	const n, m, cut = 60, 5, 4
	in := chaosEnsemble(t, n, m)
	for _, c := range guardSpecs {
		for _, k := range []int{2, n} {
			if k == 2 && c.spec.Algo != AlgoTA {
				continue
			}
			spec := c.spec
			spec.K = k
			acc := telemetry.NewAccessAccountant(m)
			srcs := listSources(in, acc, func(_ int, s faults.Source, _ *telemetry.AccessAccountant) faults.Source {
				return &endingSource{Source: s, left: cut}
			})
			res, err := Run(context.Background(), spec, srcs, acc)
			if !errors.Is(err, ErrScanEnded) {
				t.Errorf("%s k=%d: err = %v (result %+v), want ErrScanEnded", c.name, k, err, res)
			}
		}
	}
}
