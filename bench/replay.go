package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"time"

	"repro/internal/aggregate"
	"repro/internal/cache"
	"repro/internal/guard"
	"repro/internal/metrics"
	"repro/internal/ranking"
	"repro/internal/robust"
	"repro/internal/service"
)

// The traced run replays the window's distinct requests in-process after the
// load has stopped, once through the service's HTTP handler and once layer by
// layer through the public functions the handler calls, one span per call.
// Probe requests follow, so that every layer is timed on every workload's
// catalogs even when the workload's own traffic never reaches it.

// maxReplay bounds how many of the window's distinct requests are replayed.
const maxReplay = 300

type replayer struct {
	tr    *tracer
	h     http.Handler
	cats  []*parsedCatalog // per tenant, the catalog the layer path sees
	ver   []int            // per tenant, its version
	cache *cache.Cache
	ws    *metrics.Workspace
	// pairs links each replayed request's handler span to its layer spans.
	pairs []replayPair
}

type replayPair struct {
	key     string
	handler int
	layers  int
}

// replayItem is one request to replay: its run-wide id (negative for a
// probe) and the request itself.
type replayItem struct {
	id  int
	req *request
}

// replay runs the traced replay and returns the handler/layer span pairs.
func replay(d *dataset, tr *tracer, window []record, firstID int) ([]replayPair, error) {
	prev := runtime.GOMAXPROCS(d.w.procs)
	defer runtime.GOMAXPROCS(prev)
	r := &replayer{tr: tr, cache: cache.New(0), ws: metrics.NewWorkspace(),
		cats: make([]*parsedCatalog, d.w.tenants), ver: make([]int, d.w.tenants)}
	r.h = service.New(serviceConfig(d.w)).Handler()

	// Seed and warm both paths exactly as the server was, untraced.
	for t := range r.cats {
		seed := d.putRequest(t, 0)
		if err := r.one(replayItem{0, &seed}, false); err != nil {
			return nil, err
		}
	}
	for i := range d.warm {
		if err := r.one(replayItem{0, &d.warm[i]}, false); err != nil {
			return nil, err
		}
	}

	items := append(distinct(window, firstID, d.w.tenants), probes(d, r.ver)...)
	for _, it := range items {
		if err := r.one(it, true); err != nil {
			return nil, err
		}
	}
	if err := r.kernelProbe(); err != nil {
		return nil, err
	}
	r.cacheProbe()
	return r.pairs, nil
}

// serviceConfig mirrors the rankserve flags the workload runs with.
func serviceConfig(w *workload) service.Config {
	return service.Config{Workers: w.workers, QueueDepth: w.queueDepth}
}

// distinct lists the window's requests in schedule order, keeping a read
// only the first time it meets a given catalog version, up to maxReplay.
func distinct(window []record, firstID, tenants int) []replayItem {
	ver := make([]int, tenants)
	seen := map[string]bool{}
	var out []replayItem
	for i := range window {
		if len(out) == maxReplay {
			break
		}
		req := window[i].req
		if req.kind == opPut {
			ver[req.tenant] = req.version
		} else {
			k := fmt.Sprintf("%d %s", ver[req.tenant], req.key)
			if seen[k] {
				continue
			}
			seen[k] = true
		}
		out = append(out, replayItem{firstID + i, req})
	}
	return out
}

// probes are the fixed per-tenant requests that reach every layer: each
// engine on the cursor and on the source path, a trimmed query, a full
// aggregation with Kemenization and a robust clause, and a PUT of the
// tenant's current catalog.
func probes(d *dataset, ver []int) []replayItem {
	var out []replayItem
	add := func(o op) {
		r, _ := d.request(o, nil)
		out = append(out, replayItem{-1 - len(out), &r})
	}
	for t := 0; t < d.w.tenants; t++ {
		for _, a := range algos {
			add(op{kind: opTopK, tenant: t, topk: service.TopKRequest{K: 10, Algo: a}})
			add(op{kind: opTopK, tenant: t, topk: service.TopKRequest{K: 10, Algo: a, Resilient: true}})
		}
		add(op{kind: opTopK, tenant: t, topk: service.TopKRequest{K: 10, Trim: 2}})
		kem := true
		add(op{kind: opAgg, tenant: t, agg: service.AggregateRequest{Metric: "kprof", Kemenize: &kem,
			Robust: &service.RobustClause{Mode: "trimmed-borda", Trim: 2}}})
	}
	for t := 0; t < d.w.tenants; t++ {
		r := d.putRequest(t, ver[t])
		out = append(out, replayItem{-1 - len(out), &r})
	}
	return out
}

// one replays a request through the handler, then through the layers.
func (r *replayer) one(it replayItem, traced bool) error {
	req := it.req
	hs := 0
	if traced {
		hs = r.tr.begin("service.handler."+req.kind.String(), 0, it.id)
	}
	rec := httptest.NewRecorder()
	r.h.ServeHTTP(rec, httptest.NewRequest(req.method, req.path, bytes.NewReader(req.body)))
	if traced {
		r.tr.end(hs)
	}
	if rec.Code != http.StatusOK {
		return fmt.Errorf("replaying %s %s: status %d: %.200s", req.method, req.path, rec.Code, rec.Body.String())
	}
	var ls int
	var err error
	switch req.kind {
	case opPut:
		ls, err = r.put(it, traced)
	case opTopK:
		ls, err = r.topK(it, traced)
	case opAgg:
		ls, err = r.agg(it, traced)
	}
	if err != nil {
		return fmt.Errorf("replaying %s %s through the layers: %w", req.method, req.path, err)
	}
	if traced {
		r.pairs = append(r.pairs, replayPair{key: req.key, handler: hs, layers: ls})
	}
	return nil
}

// phase wraps one layer call in a span when traced.
func (r *replayer) phase(traced bool, name string, parent, id int, f func() error) (int, error) {
	if !traced {
		return 0, f()
	}
	sp := r.tr.begin(name, parent, id)
	err := f()
	r.tr.end(sp)
	return sp, err
}

func (r *replayer) root(traced bool, name string, id int) int {
	if !traced {
		return 0
	}
	return r.tr.begin(name, 0, id)
}

func (r *replayer) close(traced bool, sp int) {
	if traced {
		r.tr.end(sp)
	}
}

func (r *replayer) put(it replayItem, traced bool) (int, error) {
	root := r.root(traced, "replay.put", it.id)
	defer r.close(traced, root)
	var c *parsedCatalog
	sp, err := r.phase(traced, "ranking.parse", root, it.id, func() error {
		rs, dom, _, err := ranking.ParseLinesWith(bytes.NewReader(it.req.body), ranking.ParseOptions{Limits: guard.DefaultLimits()})
		c = &parsedCatalog{rankings: rs, dom: dom}
		return err
	})
	if traced {
		r.tr.attr(sp, "bytes", int64(len(it.req.body)))
	}
	r.cats[it.req.tenant], r.ver[it.req.tenant] = c, it.req.version
	return root, err
}

func (r *replayer) topK(it replayItem, traced bool) (int, error) {
	root := r.root(traced, "replay.topk", it.id)
	defer r.close(traced, root)
	c := r.cats[it.req.tenant]
	var req service.TopKRequest
	if _, err := r.phase(traced, "decode.topk", root, it.id, func() error { return json.Unmarshal(it.req.body, &req) }); err != nil {
		return root, err
	}
	rankings := c.rankings
	if req.Trim > 0 {
		if _, err := r.phase(traced, "robust.trim", root, it.id, func() error {
			_, kept, err := trimLists(c.rankings, req.Trim, metrics.Cached(r.cache, metrics.CacheIDKProf, metrics.KProfWS))
			rankings = subset(c.rankings, kept)
			return err
		}); err != nil {
			return root, err
		}
	}
	path := "cursor"
	if req.Resilient {
		path = "source"
	}
	algo := algoOf(req)
	var resp service.TopKResponse
	sp, err := r.phase(traced, "topk."+algo+"."+path, root, it.id, func() error {
		res, err := runEngine(context.Background(), rankings, req)
		if err == nil {
			resp = service.TopKResponse{TopK: c.dom.Render(res.TopK), Degraded: res.Degraded}
			resp.Access = service.AccessSummary{Sequential: res.Stats.Total, Random: res.Stats.Random,
				CostRatio: costRatio(algo), MiddlewareCost: res.Stats.MiddlewareCost(1, costRatio(algo))}
			for i, e := range res.Winners {
				resp.Winners = append(resp.Winners, c.dom.Name(e))
				resp.Medians = append(resp.Medians, float64(res.Medians2[i])/2)
			}
		}
		return err
	})
	if err != nil {
		return root, err
	}
	if traced {
		r.tr.attr(sp, "sequential", int64(resp.Access.Sequential))
		r.tr.attr(sp, "random", int64(resp.Access.Random))
		r.tr.attr(sp, "middleware_cost", int64(resp.Access.MiddlewareCost))
	}
	_, err = r.phase(traced, "render.topk", root, it.id, func() error {
		_, err := json.MarshalIndent(resp, "", "  ")
		return err
	})
	return root, err
}

func (r *replayer) agg(it replayItem, traced bool) (int, error) {
	root := r.root(traced, "replay.agg", it.id)
	defer r.close(traced, root)
	c := r.cats[it.req.tenant]
	rs, n := c.rankings, c.dom.Size()
	var req service.AggregateRequest
	if _, err := r.phase(traced, "decode.agg", root, it.id, func() error { return json.Unmarshal(it.req.body, &req) }); err != nil {
		return root, err
	}
	metric := req.Metric
	if metric == "" {
		metric = "kprof"
	}
	d := metrics.Cached(r.cache, cacheIDs[metric], kernels[metric])
	var scores []float64
	var median, best, kem *ranking.PartialRanking
	var medianDist, bestDist, kemDist float64
	var bestIdx int
	var rres *robust.Result
	steps := []struct {
		name string
		skip bool
		f    func() error
	}{
		{"aggregate.median_scores", false, func() (err error) {
			scores, err = aggregate.MedianScores(rs, aggregate.LowerMedian)
			return err
		}},
		{"aggregate.median_topk", false, func() (err error) { median, err = aggregate.MedianTopK(rs, n); return err }},
		{"aggregate.score_median", false, func() (err error) {
			medianDist, err = aggregate.SumDistanceParallel(median, rs, d)
			return err
		}},
		{"aggregate.best_of_inputs", false, func() (err error) {
			bestIdx, best, bestDist, err = aggregate.BestOfInputsParallel(rs, d)
			return err
		}},
		{"aggregate.kemenize", req.Kemenize != nil && !*req.Kemenize, func() (err error) {
			if kem, err = aggregate.LocalKemenize(median, rs); err != nil {
				return err
			}
			kemDist, err = aggregate.SumDistanceParallel(kem, rs, d)
			return err
		}},
		{"robust.aggregate", req.Robust == nil, func() (err error) {
			rres, err = robust.Aggregate(rs, robust.Options{Mode: robust.Mode(req.Robust.Mode), Trim: req.Robust.Trim, Distance: d})
			return err
		}},
	}
	for _, s := range steps {
		if s.skip {
			continue
		}
		if _, err := r.phase(traced, s.name, root, it.id, s.f); err != nil {
			return root, err
		}
	}
	_, err := r.phase(traced, "render.agg", root, it.id, func() error {
		resp := service.AggregateResponse{Metric: metric, Medians: make(map[string]float64, n),
			Median:    service.RankedCandidate{Ranking: c.dom.Render(median), SumDistance: medianDist},
			BestInput: bestIdx, Best: service.RankedCandidate{Ranking: c.dom.Render(best), SumDistance: bestDist}}
		for e := 0; e < n; e++ {
			resp.Medians[c.dom.Name(e)] = scores[e]
		}
		if kem != nil {
			resp.Kemenized = &service.RankedCandidate{Ranking: c.dom.Render(kem), SumDistance: kemDist}
		}
		if rres != nil {
			resp.Robust = &service.RobustResult{Mode: req.Robust.Mode, Trim: req.Robust.Trim, Ranking: c.dom.Render(rres.Aggregate),
				SumDistance: rres.SumDistance, MaxDistance: rres.MaxDistance, Weights: rres.Weights, Trimmed: rres.Trimmed, Survivors: len(rres.Kept)}
		}
		_, err := json.MarshalIndent(resp, "", "  ")
		return err
	})
	return root, err
}

var cacheIDs = map[string]uint32{
	"kprof": metrics.CacheIDKProf, "fprof": metrics.CacheIDFProf, "khaus": metrics.CacheIDKHaus, "fhaus": metrics.CacheIDFHaus,
}

// kernelProbe times every metric kernel on every pair of tenant 0's lists,
// one span per call.
func (r *replayer) kernelProbe() error {
	rs := r.cats[0].rankings
	for _, m := range metricNames {
		for i := range rs {
			for j := i + 1; j < len(rs); j++ {
				if _, err := r.phase(true, "metrics."+m, 0, -1, func() error {
					_, err := kernels[m](r.ws, rs[i], rs[j])
					return err
				}); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// cacheProbe times cache.Cache.Get on warm keys, all pairs of tenant 0's
// lists, in one span: a single Get is too short to time on its own.
func (r *replayer) cacheProbe() {
	c := cache.New(0)
	rs := r.cats[0].rankings
	var keys []cache.Key
	for i := range rs {
		for j := i + 1; j < len(rs); j++ {
			k := cache.PairKey(metrics.CacheIDKProf, rs[i].Fingerprint(), rs[j].Fingerprint())
			c.Put(k, 1)
			keys = append(keys, k)
		}
	}
	gets := 0
	sp := r.tr.begin("cache.get", 0, -1)
	for start := time.Now(); time.Since(start) < 50*time.Millisecond; {
		for _, k := range keys {
			c.Get(k)
		}
		gets += len(keys)
	}
	r.tr.end(sp)
	r.tr.attr(sp, "gets", int64(gets))
}
