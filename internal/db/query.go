package db

import (
	"context"
	"fmt"

	"repro/internal/aggregate"
	"repro/internal/faults"
	"repro/internal/ranking"
	"repro/internal/telemetry"
	"repro/internal/topk"
)

// Gated telemetry instruments of the query layer.
var (
	tQueries          = telemetry.GetCounter("db.queries")
	tFilteredQueries  = telemetry.GetCounter("db.filtered_queries")
	tResilientQueries = telemetry.GetCounter("db.resilient_queries")
	tIndexScans       = telemetry.GetCounter("db.index_scans")
)

// Query is a multi-criteria preference query: aggregate the index scans of
// all preferences and return the best K records, optionally skipping the
// first Offset records (pagination).
type Query struct {
	Preferences []Preference
	K           int
	// Offset skips the best Offset records before returning K winners.
	Offset int
	// Algo selects the aggregation engine (topk.Spec.Algo): "" or "medrank"
	// (sorted access only, certifies exact medians), "ta" (random-access
	// heavy), "nra" (sorted access only with interval certification — never
	// issues a random access), or "ca" (interval accumulation with random
	// accesses scheduled every ~CostRatio sorted rounds).
	Algo string
	// CostRatio is the random:sequential access cost ratio cR/cS. It drives
	// the "ca" engine's random-access schedule and the cost-weighted
	// optimality reporting for every engine. <= 0 selects the per-engine
	// default of topk.EffectiveCostRatio.
	CostRatio int
}

// spec is the engine run that answers the query's best k records, MEDRANK
// probing its index scans round-robin.
func (q Query) spec(k int) topk.Spec {
	return topk.Spec{Algo: q.Algo, K: k, Policy: topk.RoundRobin, CostRatio: topk.EffectiveCostRatio(q.Algo, q.CostRatio)}
}

// QueryResult is the answer to a top-k preference query.
type QueryResult struct {
	// Keys are the winning records' primary keys, best first.
	Keys []string
	// MedianPositions holds each winner's aggregated (lower-median)
	// position across the preference sorts.
	MedianPositions []float64
	// Access is the unified access accounting of the MEDRANK run: how much
	// of each index scan was actually read, sequential and random accesses
	// separated per the FLN middleware cost model.
	Access topk.AccessStats
	// FullScan is the cost the naive algorithm would have paid.
	FullScan topk.AccessStats
	// Certificate is the per-instance lower bound on the sequential probes
	// any correct algorithm must spend to certify these winners. On a
	// degraded run it is computed over the surviving index scans — the
	// instance that was actually solved.
	Certificate int
	// CostRatio is the random:sequential cost ratio the cost-weighted
	// figures below were computed at (Query.CostRatio resolved against the
	// per-engine defaults).
	CostRatio int
	// MiddlewareCost is the run's FLN middleware cost at (cs, cr) =
	// (1, CostRatio): sequential accesses plus CostRatio per random access.
	MiddlewareCost int
	// CostCertificate is the cost-aware per-instance lower bound at the same
	// weights (topk.CertificateLowerBoundCost).
	CostCertificate int
	// CostOptimalityRatio is MiddlewareCost / CostCertificate — the
	// instance-optimality ratio under the FLN cost model (0 when the bound
	// is 0, e.g. for k = 0).
	CostOptimalityRatio float64
	// Degraded is non-nil when index scans died mid-query (resilient path
	// only): the answer then aggregates the surviving scans and Degraded
	// carries the lost lists, wasted accesses, and per-winner quality bounds.
	Degraded *topk.Degraded
}

// TopK answers a preference query with the streaming MEDRANK engine,
// reading each index scan only as deeply as certification requires.
func (t *Table) TopK(q Query) (*QueryResult, error) {
	return t.TopKContext(context.Background(), q)
}

// TopKContext is TopK under a caller context: cancellation or deadline
// expiry aborts the aggregation mid-scan with ctx.Err().
func (t *Table) TopKContext(ctx context.Context, q Query) (*QueryResult, error) {
	ctx, sp := telemetry.Start(ctx, "db.topk")
	defer sp.End()
	tQueries.Inc()
	return t.topK(ctx, q, nil)
}

// TopKResilient answers a preference query over fallible index scans: wrap
// decorates each scan's source (typically with faults.Inject and
// faults.WithRetry on the accountant it is handed; nil runs the infallible
// pipeline through the fallible engine). The retry layer's failures and
// retries then count in QueryResult.Access. If scans die mid-query the
// answer degrades to the survivors and QueryResult.Degraded reports the
// loss; see topk.Run.
func (t *Table) TopKResilient(ctx context.Context, q Query, wrap faults.Wrapper) (*QueryResult, error) {
	ctx, sp := telemetry.Start(ctx, "db.topk_resilient")
	defer sp.End()
	tQueries.Inc()
	tResilientQueries.Inc()
	return t.topK(ctx, q, wrap)
}

// topK runs the query's engine over the index scans, each scan's source
// passed through wrap when it is non-nil.
func (t *Table) topK(ctx context.Context, q Query, wrap faults.Wrapper) (*QueryResult, error) {
	if q.Offset < 0 {
		return nil, fmt.Errorf("db: negative offset %d", q.Offset)
	}
	rankings, err := t.scanAll(q.Preferences)
	if err != nil {
		return nil, err
	}
	spec := q.spec(q.K + q.Offset)
	res, err := topk.RunRankings(ctx, spec, rankings, wrap)
	if err != nil {
		return nil, err
	}
	if res.Degraded != nil {
		// The instance actually solved is the surviving sub-instance; the
		// certificate bound must refer to it, not the lost lists.
		survivors := make([]*ranking.PartialRanking, 0, res.Degraded.Survivors)
		lost := make(map[int]bool, len(res.Degraded.Lost))
		for _, l := range res.Degraded.Lost {
			lost[l] = true
		}
		for i, r := range rankings {
			if !lost[i] {
				survivors = append(survivors, r)
			}
		}
		rankings = survivors
	}
	out := newQueryResult(spec, rankings, res)
	for i, w := range res.Winners {
		if i < q.Offset {
			continue
		}
		out.Keys = append(out.Keys, t.rowKeys[w])
		out.MedianPositions = append(out.MedianPositions, float64(res.Medians2[i])/2)
	}
	return out, nil
}

// newQueryResult assembles the access figures of a run of spec over the
// given index scans (the surviving ones on a degraded run: the instance that
// was actually solved).
func newQueryResult(spec topk.Spec, rankings []*ranking.PartialRanking, res *topk.Result) *QueryResult {
	out := &QueryResult{
		Access:          res.Stats,
		FullScan:        topk.FullScanCost(rankings),
		Certificate:     topk.CertificateLowerBound(rankings, res.Winners),
		Degraded:        res.Degraded,
		CostRatio:       spec.CostRatio,
		MiddlewareCost:  res.Stats.MiddlewareCost(1, spec.CostRatio),
		CostCertificate: topk.CertificateLowerBoundCost(rankings, res.Winners, 1, spec.CostRatio),
	}
	out.CostOptimalityRatio = res.Stats.CostOptimalityRatio(1, out.CostRatio, out.CostCertificate)
	return out
}

// Rank aggregates the preference sorts into a full ranking of every record
// (Theorem 11's construction: a refinement of the median bucket order).
func (t *Table) Rank(prefs []Preference) ([]string, error) {
	return t.RankContext(context.Background(), prefs)
}

// RankContext is Rank under a caller context, checked at the access
// boundaries between scanning and aggregation (the offline aggregation
// kernels themselves are non-blocking).
func (t *Table) RankContext(ctx context.Context, prefs []Preference) ([]string, error) {
	rankings, err := t.scanAll(prefs)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	full, err := aggregate.MedianFull(rankings)
	if err != nil {
		return nil, err
	}
	keys := make([]string, 0, t.NumRows())
	for _, id := range full.Order() {
		keys = append(keys, t.rowKeys[id])
	}
	return keys, nil
}

// RankPartial aggregates the preference sorts into the optimal partial
// ranking of Theorem 10 (the L1-closest bucket order to the median), useful
// when the application wants honest ties in the output.
func (t *Table) RankPartial(prefs []Preference) ([][]string, error) {
	return t.RankPartialContext(context.Background(), prefs)
}

// RankPartialContext is RankPartial under a caller context, checked at the
// access boundaries between scanning and aggregation.
func (t *Table) RankPartialContext(ctx context.Context, prefs []Preference) ([][]string, error) {
	rankings, err := t.scanAll(prefs)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	pr, err := aggregate.OptimalPartialAggregate(rankings)
	if err != nil {
		return nil, err
	}
	out := make([][]string, 0, pr.NumBuckets())
	for b := 0; b < pr.NumBuckets(); b++ {
		group := make([]string, 0, pr.BucketSize(b))
		for _, id := range pr.Bucket(b) {
			group = append(group, t.rowKeys[id])
		}
		out = append(out, group)
	}
	return out, nil
}

func (t *Table) scanAll(prefs []Preference) ([]*ranking.PartialRanking, error) {
	if len(prefs) == 0 {
		return nil, fmt.Errorf("db: query needs at least one preference")
	}
	rankings := make([]*ranking.PartialRanking, 0, len(prefs))
	for _, p := range prefs {
		pr, err := t.IndexScan(p)
		if err != nil {
			return nil, err
		}
		tIndexScans.Inc()
		rankings = append(rankings, pr)
	}
	return rankings, nil
}
