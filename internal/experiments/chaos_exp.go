package experiments

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/faults"
	"repro/internal/metrics"
	"repro/internal/randrank"
	"repro/internal/ranking"
	"repro/internal/telemetry"
	"repro/internal/topk"
)

// E15Chaos measures what list death costs in answer quality: for a sweep of
// per-access death rates it runs MEDRANK over fault-injected sources (with a
// retry layer absorbing a background transient-fault rate) and compares the
// possibly degraded top-k against the fault-free answer with the paper's
// distance measures. Mathieu and Mauras' analysis of aggregation from
// incomplete top lists is the theory backdrop: aggregating the surviving
// lists is a principled answer, and the distances quantify how far it drifts
// from the full aggregation as lists die.
func E15Chaos(seed int64) (*Table, error) {
	t := &Table{
		ID:    "E15",
		Title: "Degraded-mode MEDRANK under injected list death (n=800, m=5, k=10)",
		Claim: "robustness: degraded aggregation stays close to the fault-free answer, with measured distance",
		Headers: []string{
			"death rate", "trials", "degraded", "all dead", "lists lost",
			"mean KHaus", "mean Kprof", "exact answers", "retries",
		},
	}
	const (
		n      = 800
		m      = 5
		k      = 10
		trials = 20
	)
	rng := rand.New(rand.NewSource(seed))
	deathRates := []float64{0, 0.0005, 0.002, 0.01}

	// One ensemble per trial, shared across the death-rate sweep so rows
	// differ only in the injected fault plan.
	type instance struct {
		in   []*ranking.PartialRanking
		base *topk.Result
	}
	instances := make([]instance, trials)
	for i := range instances {
		in := randrank.CatalogEnsemble(rng, n, m, 10, 1.0, 0.4).Rankings
		base, err := runTopK(in, topk.Spec{K: k, Policy: topk.RoundRobin})
		if err != nil {
			return nil, err
		}
		instances[i] = instance{in: in, base: base}
	}

	for _, rate := range deathRates {
		var degradedRuns, allDead, listsLost, exact, retries, completed int
		var sumKH, sumKP float64
		for trial, inst := range instances {
			sl := &faults.FakeSleeper{}
			res, err := topk.RunRankings(context.Background(), topk.Spec{K: k, Policy: topk.RoundRobin}, inst.in, func(i int, s faults.Source, acc *telemetry.AccessAccountant) faults.Source {
				s = faults.Inject(s, faults.Plan{
					Seed:          seed + int64(trial)*100 + int64(i),
					TransientRate: 0.002,
					DeathRate:     rate,
					Sleeper:       sl,
				})
				return faults.WithRetry(s, faults.RetryPolicy{
					MaxAttempts: 4,
					BaseDelay:   time.Millisecond,
					MaxDelay:    100 * time.Millisecond,
					Multiplier:  2,
					JitterSeed:  seed + int64(trial),
					Sleeper:     sl,
				}, acc, i)
			})
			if err != nil {
				// Every list died before the answer was certified; there is
				// no degraded answer to measure. Reported separately so the
				// distance columns describe only runs that answered.
				allDead++
				listsLost += m
				continue
			}
			completed++
			retries += res.Stats.Retried
			if res.Degraded != nil {
				degradedRuns++
				listsLost += len(res.Degraded.Lost)
			}
			kh, err := metrics.KHaus(res.TopK, inst.base.TopK)
			if err != nil {
				return nil, err
			}
			kp, err := metrics.KProf(res.TopK, inst.base.TopK)
			if err != nil {
				return nil, err
			}
			sumKH += float64(kh)
			sumKP += kp
			if kh == 0 {
				exact++
			}
		}
		meanKH, meanKP := 0.0, 0.0
		if completed > 0 {
			meanKH = sumKH / float64(completed)
			meanKP = sumKP / float64(completed)
		}
		t.AddRow(
			fmt.Sprintf("%.4f", rate), trials, degradedRuns, allDead, listsLost,
			meanKH, meanKP,
			fmt.Sprintf("%d/%d", exact, completed), retries,
		)
	}
	t.Notef("distances compare the degraded top-%d list (as a partial ranking with a bottom bucket) against the fault-free MEDRANK answer on the same ensemble; means are over completed runs only, and 'exact answers' is out of completed runs", k)
	t.Notef("transient faults are injected at rate 0.002 throughout and absorbed by a 4-attempt exponential-backoff retry layer; only permanent deaths degrade the answer")
	return t, nil
}
