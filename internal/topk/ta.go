package topk

import (
	"cmp"
	"context"
	"math"

	"repro/internal/faults"
	"repro/internal/telemetry"
)

// Gated telemetry instruments of the θ-approximate variant.
var (
	tTAApproxRuns  = telemetry.GetCounter("topk.ta_approx.runs")
	tTAApproxEarly = telemetry.GetCounter("topk.ta_approx.early_stops")
)

// ApproxCertificate is the quality certificate of a TA run, in the sense of
// Fagin–Lotem–Naor's approximation variant of the Threshold Algorithm: for
// every reported winner y and every element z NOT reported, the doubled
// median of y is at most (1+θ) times the doubled median of z. The
// certificate carries the two quantities the guarantee is derived from at
// the moment the run stopped, so clients (and tests) can re-verify it.
type ApproxCertificate struct {
	// Theta is the requested slack; the run is a (1+θ)-approximation.
	Theta float64 `json:"theta"`
	// Threshold2 is τ at stop: the needed-th smallest frontier position, a
	// lower bound on the doubled median of any element the run never
	// resolved. Zero when the run resolved every element (the threshold never
	// gated the answer and the result is exact).
	Threshold2 int64 `json:"threshold2"`
	// KthMedian2 is the doubled median of the worst reported winner.
	KthMedian2 int64 `json:"kth_median2"`
	// Ratio is the certified approximation factor actually achieved,
	// max(1, KthMedian2/Threshold2) ≤ 1+θ. Exact answers report 1.
	Ratio float64 `json:"ratio"`
	// EarlyStop reports whether the θ-relaxed test fired before the exact
	// threshold test would have: false means the answer is exact (the
	// approximation budget was never spent).
	EarlyStop bool `json:"early_stop"`
}

// taDriver is the TA-style engine in the spirit of the Threshold Algorithm
// of Fagin, Lotem, and Naor, adapted to median-rank aggregation over partial
// rankings: lists are read round-robin under sorted access, and every newly
// discovered element is immediately resolved by random access to its
// position in every other surviving list, so its exact lower median is known
// the moment it is first seen. The run stops once k resolved elements have
// medians strictly below the threshold τ — the needed-th smallest frontier
// position, a lower bound on the median of any still-unseen element.
//
// The answer is identical to MEDRANK's. The cost profile is the interesting
// part: TA trades MEDRANK's extra sorted accesses for m-1 random accesses
// per distinct element it touches, which is exactly the trade-off the FLN
// middleware cost model (AccessStats.MiddlewareCost) prices.
//
// With θ > 0 the run may also stop as soon as the k-th best resolved median
// is within a (1+θ) factor of τ (FLN's approximate TA); the relaxed test is
// evaluated strictly after the exact one, so θ = 0 takes exactly the exact
// engine's branch sequence. Under deadline pressure a (1+θ)-certified answer
// now beats an exact answer that never arrives.
//
// A list whose access fails for good is dropped from the aggregation: every
// resolved median is recomputed over the survivors (each resolved element's
// positions in all currently alive lists are known, so the recomputation is
// exact).
type taDriver struct {
	lists
	n, k     int
	theta    float64
	needed   int       // (survivors+1)/2, the survivor median index
	frontier frontiers // per original list; dead and exhausted lists sit at MaxInt64
	pos      [][]int64 // per resolved element: positions, MaxInt64 = unknown
	rows     rowSlab   // where the resolved rows are carved from
	med      []int64   // per element: lower median over alive lists, MaxInt64 until resolved
	kSmall   kSmallest[int64]
	resolved int
	rrNext   int
	scratch  []int64 // kthAlive's reused buffer
	cert     ApproxCertificate
	sel      kSmallest[bound] // the answer's k best (median, element)
}

// reset readies the driver for a TA run over sources, keeping every buffer
// of its previous run.
func (t *taDriver) reset(sources []faults.Source, acc *telemetry.AccessAccountant, n, k int, theta float64) {
	m := len(sources)
	t.lists.reset(sources, acc)
	t.n, t.k, t.theta = n, k, theta
	t.needed = (m + 1) / 2
	t.pos = resize(t.pos, n)
	clear(t.pos)
	t.rows.reset(n, m)
	t.med = resize(t.med, n)
	for e := range t.med {
		t.med[e] = math.MaxInt64
	}
	t.kSmall.init(k, cmp.Less[int64])
	t.resolved, t.rrNext = 0, 0
	t.cert = ApproxCertificate{Theta: theta, Ratio: 1}
	t.scratch = resize(t.scratch, m)
	for i, s := range sources {
		t.scratch[i] = s.Peek2()
	}
	t.frontier.reset(t.scratch)
}

func (t *taDriver) drive(ctx context.Context) error {
	if t.k == 0 {
		return nil
	}
	for it := 0; t.resolved < t.n; it++ {
		if it%ctxCheckStride == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		if t.resolved >= t.k {
			tau := t.frontier.kth(t.needed)
			if tau == math.MaxInt64 {
				// Fewer than needed scans go on, so a surviving scan has
				// ended; a complete one reveals, and so resolves, every
				// element.
				return ErrScanEnded
			}
			if t.stop(tau) {
				return nil
			}
		}
		// Round-robin sorted access over the lists whose scans go on.
		i := -1
		for tries := 0; tries < len(t.frontier.val); tries++ {
			c := t.rrNext
			t.rrNext = (t.rrNext + 1) % len(t.frontier.val)
			if t.frontier.val[c] < math.MaxInt64 {
				i = c
				break
			}
		}
		if i < 0 {
			// Complete scans discover, and so resolve, every element.
			return ErrScanEnded
		}
		e, ok, err := t.sources[i].Next(ctx)
		if err != nil {
			if err := t.kill(i, err); err != nil {
				return err
			}
			continue
		}
		if !ok {
			t.frontier.advance(i, math.MaxInt64)
			continue
		}
		t.acc.BucketIO(i) // element-granular: one I/O per sorted access
		t.frontier.advance(i, t.sources[i].Peek2())
		if t.med[e.Elem] != math.MaxInt64 {
			continue // already resolved via random access
		}
		if err := t.resolve(ctx, e.Elem, i, e.Pos2); err != nil {
			return err
		}
	}
	return nil
}

// stop applies the stopping rules with at least k elements resolved and
// records the certificate when one fires. tau is the threshold: dead lists
// sit at MaxInt64, so the needed-th smallest over the whole frontier array is
// the needed-th smallest alive frontier.
func (t *taDriver) stop(tau int64) bool {
	kth := t.kSmall.max()
	// Threshold test: with k exact medians strictly below the best median
	// any unseen element could achieve, the answer is final (strictness
	// sidesteps ties, which break by element ID).
	if kth < tau {
		t.cert.Threshold2, t.cert.KthMedian2 = tau, kth
		return true
	}
	// θ-relaxed test: the k-th best resolved median is within a (1+θ)
	// factor of τ, so any element the run has not resolved can beat a
	// reported winner by at most that factor.
	if t.theta > 0 && float64(kth) <= (1+t.theta)*float64(tau) {
		t.cert.Threshold2, t.cert.KthMedian2 = tau, kth
		t.cert.EarlyStop = true
		if tau > 0 && kth > tau {
			t.cert.Ratio = float64(kth) / float64(tau)
		}
		return true
	}
	return false
}

// resolve random-accesses elem's position in every alive list (except seedList
// when its position arrived by sorted access) and records the element's exact
// lower median over the survivors. A list dying mid-resolution is killed and
// the resolution continues over the rest.
func (t *taDriver) resolve(ctx context.Context, elem, seedList int, seedPos2 int64) error {
	m := len(t.sources)
	row := t.rows.carve()[:m]
	for j := range row {
		row[j] = math.MaxInt64
	}
	if seedList >= 0 {
		row[seedList] = seedPos2
	}
	for j := 0; j < m; j++ {
		if j == seedList || !t.alive[j] {
			continue
		}
		v, err := t.sources[j].Pos2(ctx, elem)
		if err != nil {
			if err := t.kill(j, err); err != nil {
				return err
			}
			continue
		}
		row[j] = v
	}
	t.pos[elem] = row
	t.med[elem] = t.kthAlive(row)
	t.resolved++
	t.kSmall.push(t.med[elem])
	return nil
}

// kill handles an access error on list j. Unless the run must stop, the list
// is dropped from the aggregation and every resolved median is recomputed
// over the survivors. The recomputation is exact: a resolved element's row
// holds its true position in every list that was alive at resolution time, a
// superset of the lists alive now.
func (t *taDriver) kill(j int, cause error) error {
	if err := t.fail(j, cause); err != nil {
		return err
	}
	t.frontier.advance(j, math.MaxInt64)
	t.needed = (len(t.aliveIdx) + 1) / 2
	t.kSmall.reset()
	for e := 0; e < t.n; e++ {
		if t.pos[e] == nil {
			continue
		}
		t.med[e] = t.kthAlive(t.pos[e])
		t.kSmall.push(t.med[e])
	}
	return nil
}

// kthAlive returns the needed-th smallest of row restricted to alive lists,
// selected in expected linear time from a copy.
func (t *taDriver) kthAlive(row []int64) int64 {
	vals := t.scratch[:0]
	for j, v := range row {
		if t.alive[j] {
			vals = append(vals, v)
		}
	}
	t.scratch = vals
	return selectKth(vals, t.needed)
}

func (t *taDriver) answer() *Result {
	winners, medians2 := selectTopK(&t.sel, t.med, t.k)
	if t.cert.KthMedian2 == 0 && len(medians2) > 0 {
		// The run resolved everything (or stopped by exhaustion): the
		// certificate is exact, anchored on the reported worst winner.
		t.cert.KthMedian2 = medians2[len(medians2)-1]
	}
	if t.theta > 0 {
		tTAApproxRuns.Inc()
		if t.cert.EarlyStop {
			tTAApproxEarly.Inc()
		}
	}
	cert := t.cert // the driver's state goes back to the pool
	res := &Result{Winners: winners, Medians2: medians2, Approx: &cert}
	if len(t.lost) > 0 {
		// Positions resolved before a death are exact; positions in lists
		// dead before resolution are unknown.
		obs := make([][]int64, len(winners))
		for i, w := range winners {
			obs[i] = t.pos[w]
		}
		res.Degraded = t.degraded(obs)
	}
	return res
}
