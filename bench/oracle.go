package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"slices"
	"sort"
	"time"

	"repro/internal/aggregate"
	"repro/internal/guard"
	"repro/internal/metrics"
	"repro/internal/ranking"
	"repro/internal/service"
	"repro/internal/topk"
)

// outcome classifies one request after the run.
type outcome int

const (
	outOK      outcome = iota // 2xx with a verified answer
	outShed                   // 429/503 from admission or the budget: designed overload behaviour
	outExpired                // budget ran out before a connection was free; never sent
	outFailed                 // transport error, unexpected status, or a wrong answer
)

// verdict is the oracle's finding on one record.
type verdict struct {
	outcome   outcome
	reason    string // why the request failed
	ladder    string // top-k rung that answered: exact, approx or stale
	resilient bool
	degraded  bool
	elapsedNs int64 // server-reported elapsed_ns of a verified query answer
	// verifyStart and verifyEnd bound the oracle's work on this record, in
	// nanoseconds from the run's epoch.
	verifyStart, verifyEnd int64
}

// oracle checks every answer after the run against references computed
// in-process from the same catalog texts the server parsed, so element ids
// and tie-breaks match. It never runs while requests are being sent.
type oracle struct {
	d    *dataset
	cats map[[2]int]*parsedCatalog
	// putAt holds, per tenant and catalog version, when the installing PUT
	// was sent and answered; the seed version is installed before the run.
	putAt [][][2]time.Duration
	ws    *metrics.Workspace
	epoch time.Time
}

type parsedCatalog struct {
	rankings []*ranking.PartialRanking
	dom      *ranking.Domain
	meds     map[string][]int64 // doubled lower medians, keyed by excluded lists
	trim     map[int][]int      // dropped lists by trim count
	engine   map[string]*topk.Result
	aggSum   map[string]float64
	aggRank  map[string]string
}

func newOracle(d *dataset, epoch time.Time) *oracle {
	o := &oracle{d: d, cats: map[[2]int]*parsedCatalog{}, ws: metrics.NewWorkspace(), epoch: epoch}
	o.putAt = make([][][2]time.Duration, len(d.versions))
	for t, vs := range d.versions {
		o.putAt[t] = make([][2]time.Duration, len(vs))
		o.putAt[t][0] = [2]time.Duration{math.MinInt64, math.MinInt64}
		for v := 1; v < len(vs); v++ {
			// A PUT that was never answered may still land at any time.
			o.putAt[t][v] = [2]time.Duration{math.MaxInt64, math.MaxInt64}
		}
	}
	return o
}

func (o *oracle) catalog(t, v int) (*parsedCatalog, error) {
	if c, ok := o.cats[[2]int{t, v}]; ok {
		return c, nil
	}
	rs, dom, _, err := ranking.ParseLinesWith(bytes.NewReader(o.d.versions[t][v]), ranking.ParseOptions{Limits: guard.DefaultLimits()})
	if err != nil {
		return nil, fmt.Errorf("parsing tenant %d version %d: %w", t, v, err)
	}
	c := &parsedCatalog{rankings: rs, dom: dom, meds: map[string][]int64{}, trim: map[int][]int{},
		engine: map[string]*topk.Result{}, aggSum: map[string]float64{}, aggRank: map[string]string{}}
	o.cats[[2]int{t, v}] = c
	return c, nil
}

// candidates returns the catalog versions tenant t may have held at some
// moment between send and done: every version sent before done, except those
// a later PUT, sent after it was acknowledged, had replaced before send.
func (o *oracle) candidates(t int, send, done time.Duration) []int {
	at := o.putAt[t]
	var out []int
	for v := range at {
		if at[v][0] != math.MaxInt64 && at[v][0] > done {
			continue
		}
		superseded := false
		for w := range at {
			if w != v && at[w][0] > at[v][1] && at[w][1] < send {
				superseded = true
				break
			}
		}
		if !superseded {
			out = append(out, v)
		}
	}
	return out
}

// check classifies every record. Records of all phases are checked; stale
// top-k answers are checked last, against the exact answers before them.
func (o *oracle) check(recs []record) []verdict {
	for _, r := range recs {
		if r.req.kind == opPut && r.status == http.StatusOK {
			o.putAt[r.req.tenant][r.req.version] = [2]time.Duration{r.send, r.done}
		}
	}
	out := make([]verdict, len(recs))
	exact := map[string][]exactAnswer{}
	var stale []int
	for i := range recs {
		t0 := int64(time.Since(o.epoch))
		out[i] = o.checkOne(&recs[i], exact)
		if out[i].ladder == service.LadderStale && out[i].outcome == outOK {
			stale = append(stale, i)
		}
		out[i].verifyStart, out[i].verifyEnd = t0, int64(time.Since(o.epoch))
	}
	for _, i := range stale {
		if err := checkStale(&recs[i], exact); err != nil {
			out[i].outcome, out[i].reason = outFailed, err.Error()
		}
		out[i].verifyEnd = int64(time.Since(o.epoch))
	}
	return out
}

// exactAnswer is one verified exact top-k answer, the only thing a stale
// answer may repeat.
type exactAnswer struct {
	sent    time.Duration
	winners []string
	medians []float64
}

func staleKey(r *request) string {
	return fmt.Sprintf("%d %s %d", r.tenant, algoOf(r.topk), r.topk.K)
}

func (o *oracle) checkOne(r *record, exact map[string][]exactAnswer) verdict {
	v := verdict{resilient: r.req.kind == opTopK && r.req.topk.Resilient}
	switch {
	case r.expired:
		v.outcome = outExpired
		return v
	case r.err != nil:
		v.outcome, v.reason = outFailed, r.err.Error()
		return v
	case o.d.w.budget > 0 && (r.status == http.StatusTooManyRequests || r.status == http.StatusServiceUnavailable):
		v.outcome = outShed
		return v
	case r.status != http.StatusOK:
		v.outcome, v.reason = outFailed, fmt.Sprintf("status %d: %.200s", r.status, r.body)
		return v
	}
	var err error
	switch r.req.kind {
	case opPut:
		err = o.checkPut(r)
	case opAgg:
		v.elapsedNs, err = o.checkAgg(r)
	case opTopK:
		var resp service.TopKResponse
		if err = json.Unmarshal(r.body, &resp); err != nil {
			break
		}
		v.elapsedNs, v.degraded, v.ladder = resp.ElapsedNs, resp.Degraded != nil, service.LadderExact
		if resp.Ladder != nil {
			v.ladder = resp.Ladder.Level
		}
		if v.ladder == service.LadderStale {
			break
		}
		err = o.anyVersion(r, func(c *parsedCatalog) error {
			if v.ladder == service.LadderApprox {
				return o.checkApprox(c, r.req, &resp)
			}
			return o.checkExact(c, r.req, &resp)
		})
		if err == nil && v.ladder == service.LadderExact && !r.req.topk.Resilient && r.req.topk.Trim == 0 {
			k := staleKey(r.req)
			exact[k] = append(exact[k], exactAnswer{r.send, resp.Winners, resp.Medians})
		}
	}
	if err != nil {
		v.outcome, v.reason = outFailed, err.Error()
	}
	return v
}

// anyVersion accepts the answer if it is right for some catalog version the
// tenant held while the request was in flight.
func (o *oracle) anyVersion(r *record, check func(*parsedCatalog) error) error {
	cands := o.candidates(r.req.tenant, r.send, r.done)
	// Records arrive roughly in time order, so versions older than this
	// record's oldest candidate are rarely needed again: drop their parsed
	// form (a later record that needs one parses it again).
	for key := range o.cats {
		if len(cands) > 0 && key[0] == r.req.tenant && key[1] < cands[0] {
			delete(o.cats, key)
		}
	}
	var firstErr error
	for _, ver := range cands {
		c, err := o.catalog(r.req.tenant, ver)
		if err == nil {
			if err = check(c); err == nil {
				return nil
			}
		}
		if firstErr == nil {
			firstErr = err
		}
	}
	if firstErr == nil {
		firstErr = fmt.Errorf("no catalog version was current")
	}
	return firstErr
}

func (o *oracle) checkPut(r *record) error {
	var resp service.IngestResponse
	if err := json.Unmarshal(r.body, &resp); err != nil {
		return err
	}
	c, err := o.catalog(r.req.tenant, r.req.version)
	if err != nil {
		return err
	}
	if resp.Rankings != len(c.rankings) || resp.Elements != c.dom.Size() {
		return fmt.Errorf("PUT stored %d lists over %d elements, sent %d over %d",
			resp.Rankings, resp.Elements, len(c.rankings), c.dom.Size())
	}
	return nil
}

// medians2 is the full-scan reference: every element's doubled lower median
// over the lists not excluded.
func (o *oracle) medians2(c *parsedCatalog, exclude []int) ([]int64, error) {
	key := fmt.Sprint(exclude)
	if m, ok := c.meds[key]; ok {
		return m, nil
	}
	var keep []int
	for i := range c.rankings {
		if !slices.Contains(exclude, i) {
			keep = append(keep, i)
		}
	}
	m4, err := aggregate.MedianScores2(subset(c.rankings, keep), aggregate.LowerMedian)
	if err != nil {
		return nil, err
	}
	m := make([]int64, len(m4))
	for e, v := range m4 {
		m[e] = v / 2
	}
	c.meds[key] = m
	return m, nil
}

// checkExact verifies an exact (or degraded resilient) top-k answer twice:
// against the full-scan reference, and against the same engine run
// in-process, which must reproduce its winners and its access counts.
func (o *oracle) checkExact(c *parsedCatalog, r *request, resp *service.TopKResponse) error {
	req := r.topk
	var exclude []int
	if req.Trim > 0 {
		dropped, ok := c.trim[req.Trim]
		if !ok {
			var err error
			if dropped, _, err = trimLists(c.rankings, req.Trim, metrics.KProfWS); err != nil {
				return err
			}
			c.trim[req.Trim] = dropped
		}
		if resp.Trim == nil || !slices.Equal(resp.Trim.Dropped, dropped) {
			return fmt.Errorf("trim dropped %v, reference drops %v", resp.Trim, dropped)
		}
		exclude = append(exclude, dropped...)
	}
	if resp.Degraded != nil {
		if !req.Resilient {
			return fmt.Errorf("degraded answer to a non-resilient request")
		}
		exclude = append(exclude, resp.Degraded.Lost...)
	}
	med2, err := o.medians2(c, exclude)
	if err != nil {
		return err
	}
	if len(resp.Winners) != req.K || len(resp.Medians) != req.K {
		return fmt.Errorf("%d winners for k=%d", len(resp.Winners), req.K)
	}
	ids, err := elementIDs(c, resp.Winners)
	if err != nil {
		return err
	}
	ref := topOrder(med2, req.K)
	algo := algoOf(req)
	if algo == "nra" || algo == "ca" {
		// NRA and CA certify the winner set; a reported median is the upper
		// end of the certified interval.
		if !slices.Equal(sortedCopy(ids), sortedCopy(ref)) {
			return fmt.Errorf("%s winners %v, reference %v", algo, resp.Winners, names(c, ref))
		}
		for i, e := range ids {
			if 2*resp.Medians[i] < float64(med2[e]) {
				return fmt.Errorf("%s reports median %v for %s below the true %v", algo, resp.Medians[i], resp.Winners[i], float64(med2[e])/2)
			}
		}
	} else {
		for i, e := range ids {
			if e != ref[i] || 2*resp.Medians[i] != float64(med2[e]) {
				return fmt.Errorf("%s winner %d is %s (median %v), reference %s (median %v)",
					algo, i, resp.Winners[i], resp.Medians[i], c.dom.Name(ref[i]), float64(med2[ref[i]])/2)
			}
		}
	}
	return o.checkEngine(c, r, resp)
}

// checkEngine runs the request in-process and requires the same winners,
// medians, lost lists and FLN access counts: the engines are deterministic.
func (o *oracle) checkEngine(c *parsedCatalog, r *request, resp *service.TopKResponse) error {
	res, ok := c.engine[r.key]
	if !ok {
		var err error
		if res, _, err = runTopK(context.Background(), c.rankings, r.topk); err != nil {
			return err
		}
		c.engine[r.key] = res
	}
	ratio := costRatio(algoOf(r.topk))
	want := service.AccessSummary{Sequential: res.Stats.Total, Random: res.Stats.Random,
		BucketIOs: res.Stats.TotalBucketProbes, MaxDepth: res.Stats.MaxDepth,
		CostRatio: ratio, MiddlewareCost: res.Stats.MiddlewareCost(1, ratio)}
	if resp.Access != want {
		return fmt.Errorf("access %+v, in-process engine %+v", resp.Access, want)
	}
	if len(res.Winners) != len(resp.Winners) {
		return fmt.Errorf("in-process engine found %d winners, server %d", len(res.Winners), len(resp.Winners))
	}
	for i, e := range res.Winners {
		if c.dom.Name(e) != resp.Winners[i] || float64(res.Medians2[i])/2 != resp.Medians[i] {
			return fmt.Errorf("winner %d: server %s/%v, in-process %s/%v", i, resp.Winners[i], resp.Medians[i], c.dom.Name(e), float64(res.Medians2[i])/2)
		}
	}
	if (res.Degraded == nil) != (resp.Degraded == nil) || (res.Degraded != nil && !slices.Equal(res.Degraded.Lost, resp.Degraded.Lost)) {
		return fmt.Errorf("degraded %v, in-process %v", resp.Degraded, res.Degraded)
	}
	return nil
}

// checkApprox verifies the FLN (1+θ) guarantee against the reference: each
// reported median is exact, and no unreported element has a median below
// the worst winner's by more than the factor 1+θ.
func (o *oracle) checkApprox(c *parsedCatalog, r *request, resp *service.TopKResponse) error {
	med2, err := o.medians2(c, nil)
	if err != nil {
		return err
	}
	if len(resp.Winners) != r.topk.K {
		return fmt.Errorf("approx: %d winners for k=%d", len(resp.Winners), r.topk.K)
	}
	ids, err := elementIDs(c, resp.Winners)
	if err != nil {
		return err
	}
	in := map[int]bool{}
	worst := int64(0)
	for i, e := range ids {
		if 2*resp.Medians[i] != float64(med2[e]) {
			return fmt.Errorf("approx: median of %s is %v, reference %v", resp.Winners[i], resp.Medians[i], float64(med2[e])/2)
		}
		in[e] = true
		worst = max(worst, med2[e])
	}
	for e, m := range med2 {
		if !in[e] && float64(worst) > (1+resp.Ladder.Theta)*float64(m) {
			return fmt.Errorf("approx: winner median %v exceeds (1+%v) x %v of unreported %s",
				float64(worst)/2, resp.Ladder.Theta, float64(m)/2, c.dom.Name(e))
		}
	}
	return nil
}

// checkStale requires a stale answer to repeat an exact answer for the same
// tenant, engine and k that was sent before the stale one was answered.
func checkStale(r *record, exact map[string][]exactAnswer) error {
	var resp service.TopKResponse
	if err := json.Unmarshal(r.body, &resp); err != nil {
		return err
	}
	for _, a := range exact[staleKey(r.req)] {
		if a.sent < r.done && slices.Equal(a.winners, resp.Winners) && slices.Equal(a.medians, resp.Medians) {
			return nil
		}
	}
	return fmt.Errorf("stale answer %v matches no earlier exact answer", resp.Winners)
}

// checkAgg recomputes the median aggregate and its summed distance.
func (o *oracle) checkAgg(r *record) (int64, error) {
	var resp service.AggregateResponse
	if err := json.Unmarshal(r.body, &resp); err != nil {
		return 0, err
	}
	metric := r.req.agg.Metric
	kernel := kernels[metric]
	err := o.anyVersion(r, func(c *parsedCatalog) error {
		rank, ok := c.aggRank[metric]
		if !ok {
			median, err := aggregate.MedianTopK(c.rankings, c.dom.Size())
			if err != nil {
				return err
			}
			sum, err := aggregate.SumDistanceWith(o.ws, median, c.rankings, kernel)
			if err != nil {
				return err
			}
			rank = c.dom.Render(median)
			c.aggRank[metric], c.aggSum[metric] = rank, sum
		}
		if resp.Median.Ranking != rank {
			return fmt.Errorf("median aggregate differs from the reference")
		}
		if d := math.Abs(resp.Median.SumDistance - c.aggSum[metric]); d > 1e-9 {
			return fmt.Errorf("median sum_distance %v, reference %v", resp.Median.SumDistance, c.aggSum[metric])
		}
		return nil
	})
	return resp.ElapsedNs, err
}

var kernels = map[string]metrics.DistanceWS{
	"kprof": metrics.KProfWS, "fprof": metrics.FProfWS, "khaus": metrics.KHausWS, "fhaus": metrics.FHausWS,
}

// topOrder returns the k elements with the smallest (median, id).
func topOrder(med2 []int64, k int) []int {
	order := make([]int, len(med2))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		ea, eb := order[a], order[b]
		return med2[ea] < med2[eb] || (med2[ea] == med2[eb] && ea < eb)
	})
	return order[:k]
}

func elementIDs(c *parsedCatalog, winners []string) ([]int, error) {
	ids := make([]int, len(winners))
	for i, name := range winners {
		id, ok := c.dom.ID(name)
		if !ok {
			return nil, fmt.Errorf("unknown winner %q", name)
		}
		ids[i] = id
	}
	return ids, nil
}

func names(c *parsedCatalog, ids []int) []string {
	out := make([]string, len(ids))
	for i, e := range ids {
		out[i] = c.dom.Name(e)
	}
	return out
}

func sortedCopy(s []int) []int {
	s = slices.Clone(s)
	slices.Sort(s)
	return s
}
