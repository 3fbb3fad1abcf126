package main

import (
	"context"

	"repro/internal/faults"
	"repro/internal/metrics"
	"repro/internal/ranking"
	"repro/internal/robust"
	"repro/internal/service"
	"repro/internal/telemetry"
	"repro/internal/topk"
)

// These helpers run a top-k request in-process through the same public layer
// functions the service's handler calls, so the oracle can compare answers
// and access counts and the traced replay can time each layer on its own.

// costRatio mirrors the service's effective cR/cS for a request without an
// explicit cost_ratio: ta and ca default to 10, medrank and nra run in the
// no-random-access regime.
func costRatio(algo string) int {
	if algo == "ta" || algo == "ca" {
		return 10
	}
	return 0
}

func algoOf(req service.TopKRequest) string {
	if req.Algo == "" {
		return "medrank"
	}
	return req.Algo
}

// trimLists drops the trim least reliable lists by kprof reliability weight,
// returning the dropped and kept original indices.
func trimLists(rankings []*ranking.PartialRanking, trim int, d metrics.DistanceWS) (dropped, kept []int, err error) {
	weights, err := robust.Weights(rankings, d)
	if err != nil {
		return nil, nil, err
	}
	return robust.TrimByWeight(weights, trim)
}

func subset(rankings []*ranking.PartialRanking, idx []int) []*ranking.PartialRanking {
	out := make([]*ranking.PartialRanking, len(idx))
	for i, j := range idx {
		out[i] = rankings[j]
	}
	return out
}

// runEngine runs the request's engine over rankings: the in-memory cursor
// path, or with resilient set the fallible source path over list sources
// wrapped in the request's deterministic fault plan and the default retry
// policy.
func runEngine(ctx context.Context, rankings []*ranking.PartialRanking, req service.TopKRequest) (*topk.Result, error) {
	algo := algoOf(req)
	ratio := costRatio(algo)
	if !req.Resilient {
		switch algo {
		case "ta":
			return topk.ThresholdTopKContext(ctx, rankings, req.K)
		case "nra":
			return topk.NRAContext(ctx, rankings, req.K)
		case "ca":
			return topk.CAContext(ctx, rankings, req.K, ratio)
		}
		return topk.MedRankContext(ctx, rankings, req.K, topk.GlobalMerge)
	}
	acc := telemetry.NewAccessAccountant(len(rankings))
	sources := make([]faults.Source, len(rankings))
	for i, pr := range rankings {
		src := topk.NewListSource(pr, acc, i)
		if c := req.Chaos; c != nil {
			src = faults.Inject(src, faults.Plan{Seed: c.Seed + int64(i), TransientRate: c.TransientRate, DeathRate: c.DeathRate, DeathAfter: c.DeathAfter})
		}
		sources[i] = faults.WithRetry(src, faults.DefaultRetryPolicy(), acc, i)
	}
	switch algo {
	case "ta":
		return topk.ThresholdTopKOver(ctx, sources, req.K, acc)
	case "nra":
		return topk.NRAOver(ctx, sources, req.K, acc)
	case "ca":
		return topk.CAOver(ctx, sources, req.K, ratio, acc)
	}
	return topk.MedRankOver(ctx, sources, req.K, topk.GlobalMerge, acc)
}

// runTopK is the handler's exact path end to end: trim, then the engine,
// with degraded-list indices mapped back to the original catalog.
func runTopK(ctx context.Context, rankings []*ranking.PartialRanking, req service.TopKRequest) (*topk.Result, []int, error) {
	var dropped, kept []int
	if req.Trim > 0 {
		var err error
		if dropped, kept, err = trimLists(rankings, req.Trim, metrics.KProfWS); err != nil {
			return nil, nil, err
		}
		rankings = subset(rankings, kept)
	}
	res, err := runEngine(ctx, rankings, req)
	if err != nil {
		return nil, nil, err
	}
	if res.Degraded != nil && kept != nil {
		for i, lost := range res.Degraded.Lost {
			res.Degraded.Lost[i] = kept[lost]
		}
	}
	return res, dropped, nil
}
