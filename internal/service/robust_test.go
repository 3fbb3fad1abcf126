package service

import (
	"context"
	"fmt"
	"net/http"
	"strings"
	"testing"

	"repro/internal/faults"
	"repro/internal/ranking"
	"repro/internal/robust"
	"repro/internal/telemetry"
	"repro/internal/topk"
)

// spamCorpus is deepCorpus's voters: voter 3 is the exact reversal of voter
// 0 and disagrees with everyone, so reliability weighting must rank it least
// reliable and trim=1 must drop exactly index 3.
const spamCorpus = deepCorpus

func TestAggregateRobustModes(t *testing.T) {
	_, ts := testServer(t, Config{})
	putCatalog(t, ts, "acme", "movies", spamCorpus, "")

	rankings, _, err := ranking.ParseLines(strings.NewReader(spamCorpus))
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []string{"trimmed-borda", "weighted-median", "minmax"} {
		body := fmt.Sprintf(`{"robust": {"mode": %q, "trim": 1}}`, mode)
		status, b := doReq(t, http.MethodPost, ts.URL+"/v1/tenants/acme/catalogs/movies/aggregate", body)
		if status != http.StatusOK {
			t.Fatalf("robust aggregate (%s) = %d: %s", mode, status, b)
		}
		resp := decode[AggregateResponse](t, b)
		if resp.Robust == nil {
			t.Fatalf("%s: no robust result in response", mode)
		}
		if resp.Robust.Mode != mode || resp.Robust.Trim != 1 {
			t.Errorf("%s: echoed mode/trim = %q/%d", mode, resp.Robust.Mode, resp.Robust.Trim)
		}
		if len(resp.Robust.Weights) != len(rankings) {
			t.Errorf("%s: %d weights for %d lists", mode, len(resp.Robust.Weights), len(rankings))
		}
		if fmt.Sprint(resp.Robust.Trimmed) != "[3]" {
			t.Errorf("%s: trimmed %v, want the reversal voter [3]", mode, resp.Robust.Trimmed)
		}
		if resp.Robust.Survivors != len(rankings)-1 {
			t.Errorf("%s: survivors = %d, want %d", mode, resp.Robust.Survivors, len(rankings)-1)
		}
		if resp.Robust.Ranking == "" {
			t.Errorf("%s: empty robust ranking", mode)
		}
		if resp.Robust.MaxDistance > resp.Robust.SumDistance {
			t.Errorf("%s: max distance %v exceeds sum %v", mode, resp.Robust.MaxDistance, resp.Robust.SumDistance)
		}
		// The robust answer must match the library run exactly.
		want, err := robust.Aggregate(rankings, robust.Options{Mode: robust.Mode(mode), Trim: 1})
		if err != nil {
			t.Fatal(err)
		}
		status, b = doReq(t, http.MethodPost, ts.URL+"/v1/tenants/acme/catalogs/movies/aggregate", body)
		if status != http.StatusOK {
			t.Fatalf("robust aggregate repeat = %d: %s", status, b)
		}
		again := decode[AggregateResponse](t, b)
		if again.Robust.Ranking != resp.Robust.Ranking {
			t.Errorf("%s: robust answer not deterministic over HTTP", mode)
		}
		for i, w := range want.Weights {
			if resp.Robust.Weights[i] != w {
				t.Errorf("%s: weight[%d] = %v over HTTP, library says %v", mode, i, resp.Robust.Weights[i], w)
			}
		}
	}
}

func TestAggregateRobustValidation(t *testing.T) {
	_, ts := testServer(t, Config{})
	putCatalog(t, ts, "acme", "movies", spamCorpus, "")
	for _, body := range []string{
		`{"robust": {"mode": "mystery"}}`,
		`{"robust": {"mode": "minmax", "trim": -1}}`,
		`{"robust": {"mode": "minmax", "trim": 5}}`, // would trim every list
	} {
		status, b := doReq(t, http.MethodPost, ts.URL+"/v1/tenants/acme/catalogs/movies/aggregate", body)
		if status != http.StatusBadRequest {
			t.Errorf("body %s = %d, want 400: %s", body, status, b)
		}
	}
}

func TestTopKTrim(t *testing.T) {
	svc, ts := testServer(t, Config{})
	putCatalog(t, ts, "acme", "movies", spamCorpus, "")

	status, b := doReq(t, http.MethodPost, ts.URL+"/v1/tenants/acme/catalogs/movies/topk",
		`{"k": 3, "trim": 1}`)
	if status != http.StatusOK {
		t.Fatalf("trimmed topk = %d: %s", status, b)
	}
	resp := decode[TopKResponse](t, b)
	if resp.Trim == nil {
		t.Fatal("no trim summary in response")
	}
	if fmt.Sprint(resp.Trim.Dropped) != "[3]" || resp.Trim.Survivors != 4 {
		t.Errorf("trim summary %+v, want dropped [3] of 5", resp.Trim)
	}
	if len(resp.Trim.Weights) != 5 {
		t.Errorf("%d weights, want 5 (original lists)", len(resp.Trim.Weights))
	}
	// The answer must equal a direct query over the kept lists.
	rankings, dom, err := ranking.ParseLines(strings.NewReader(spamCorpus))
	if err != nil {
		t.Fatal(err)
	}
	kept := append(append([]*ranking.PartialRanking{}, rankings[:3]...), rankings[4])
	want, err := topk.MedRankContext(context.Background(), kept, 3, topk.GlobalMerge)
	if err != nil {
		t.Fatal(err)
	}
	for i, e := range want.Winners {
		if resp.Winners[i] != dom.Name(e) {
			t.Errorf("winner[%d] = %q, direct run over kept lists says %q", i, resp.Winners[i], dom.Name(e))
		}
	}
	// Trimming probed the distance cache under this tenant's attribution.
	if svc.Cache().Stats().Misses == 0 {
		t.Error("reliability trim did not touch the shared distance cache")
	}

	// An untrimmed query carries no trim summary.
	status, b = doReq(t, http.MethodPost, ts.URL+"/v1/tenants/acme/catalogs/movies/topk", `{"k": 3}`)
	if status != http.StatusOK {
		t.Fatalf("plain topk = %d: %s", status, b)
	}
	if plain := decode[TopKResponse](t, b); plain.Trim != nil {
		t.Errorf("plain topk has trim summary %+v", plain.Trim)
	}

	// Out-of-range trims are rejected.
	for _, body := range []string{`{"k": 3, "trim": -1}`, `{"k": 3, "trim": 5}`} {
		status, b := doReq(t, http.MethodPost, ts.URL+"/v1/tenants/acme/catalogs/movies/topk", body)
		if status != http.StatusBadRequest {
			t.Errorf("body %s = %d, want 400: %s", body, status, b)
		}
	}
}

// TestTopKTrimResilientDegraded: trim composes with the resilient engine —
// the degraded annotation (survivor count, quality intervals) reflects the
// post-trim voter set, and lost-list indices come back in the ORIGINAL
// catalog's index space.
func TestTopKTrimResilientDegraded(t *testing.T) {
	_, ts := testServer(t, Config{})
	putCatalog(t, ts, "acme", "movies", spamCorpus, "")

	const chaosSeed, k, trim = 7, 6, 1
	body := fmt.Sprintf(`{"k": %d, "resilient": true, "trim": %d, "chaos": {"seed": %d, "death_rate": 0.1}}`,
		k, trim, chaosSeed)
	status, b := doReq(t, http.MethodPost, ts.URL+"/v1/tenants/acme/catalogs/movies/topk", body)
	if status != http.StatusOK {
		t.Fatalf("trimmed resilient topk = %d: %s", status, b)
	}
	resp := decode[TopKResponse](t, b)
	if resp.Degraded == nil {
		t.Fatal("chaos run did not degrade")
	}
	if resp.Trim == nil || fmt.Sprint(resp.Trim.Dropped) != "[3]" {
		t.Fatalf("trim summary %+v, want dropped [3]", resp.Trim)
	}

	// Reproduce the engine run directly over the kept lists with the same
	// per-source chaos seeds; the service answer must match it exactly.
	rankings, _, err := ranking.ParseLines(strings.NewReader(spamCorpus))
	if err != nil {
		t.Fatal(err)
	}
	keptIdx := []int{0, 1, 2, 4}
	kept := make([]*ranking.PartialRanking, len(keptIdx))
	for i, orig := range keptIdx {
		kept[i] = rankings[orig]
	}
	spec := topk.Spec{Algo: topk.AlgoMedRank, K: k, Policy: topk.GlobalMerge}
	want, err := topk.RunRankings(context.Background(), spec, kept, func(i int, src faults.Source, acc *telemetry.AccessAccountant) faults.Source {
		src = faults.Inject(src, faults.Plan{Seed: chaosSeed + int64(i), DeathRate: 0.1})
		return faults.WithRetry(src, faults.DefaultRetryPolicy(), acc, i)
	})
	if err != nil {
		t.Fatal(err)
	}
	if want.Degraded == nil {
		t.Fatal("direct run did not degrade; chaos plans diverged")
	}
	// Post-trim voter set: the direct run over the 4 kept lists and the
	// service agree on survivors and on every quality interval.
	if resp.Degraded.Survivors != want.Degraded.Survivors {
		t.Errorf("survivors = %d, direct run over kept lists says %d",
			resp.Degraded.Survivors, want.Degraded.Survivors)
	}
	if fmt.Sprint(resp.Degraded.MedianIntervals2) != fmt.Sprint(want.Degraded.MedianIntervals2) {
		t.Errorf("quality intervals %v, direct run says %v",
			resp.Degraded.MedianIntervals2, want.Degraded.MedianIntervals2)
	}
	// Original-index-space remap: service indices are keptIdx[direct indices].
	if len(resp.Degraded.Lost) != len(want.Degraded.Lost) {
		t.Fatalf("lost %v, direct run lost %v", resp.Degraded.Lost, want.Degraded.Lost)
	}
	for i, lost := range want.Degraded.Lost {
		if resp.Degraded.Lost[i] != keptIdx[lost] {
			t.Errorf("lost[%d] = %d, want original index %d", i, resp.Degraded.Lost[i], keptIdx[lost])
		}
		if resp.Degraded.Lost[i] == 3 {
			t.Errorf("lost list 3 reported, but list 3 was trimmed before the query")
		}
	}
}

// TestRobustMetricsExposed: the robust label families land on /metrics.
func TestRobustMetricsExposed(t *testing.T) {
	_, ts := testServer(t, Config{})
	putCatalog(t, ts, "acme", "movies", spamCorpus, "")
	status, b := doReq(t, http.MethodPost, ts.URL+"/v1/tenants/acme/catalogs/movies/aggregate",
		`{"robust": {"mode": "trimmed-borda", "trim": 2}}`)
	if status != http.StatusOK {
		t.Fatalf("robust aggregate = %d: %s", status, b)
	}
	status, b = doReq(t, http.MethodPost, ts.URL+"/v1/tenants/acme/catalogs/movies/topk",
		`{"k": 3, "trim": 1}`)
	if status != http.StatusOK {
		t.Fatalf("trimmed topk = %d: %s", status, b)
	}
	status, b = doReq(t, http.MethodGet, ts.URL+"/metrics", "")
	if status != http.StatusOK {
		t.Fatalf("metrics = %d", status)
	}
	page := string(b)
	for _, want := range []string{
		`rankserve_robust_requests_total{tenant="acme",mode="trimmed-borda"} 1`,
		`rankserve_robust_trimmed_voters_total{tenant="acme"} 3`, // 2 (aggregate) + 1 (topk)
	} {
		if !strings.Contains(page, want) {
			t.Errorf("metrics page missing %q", want)
		}
	}
}
