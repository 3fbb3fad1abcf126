package main

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"repro/internal/service"
	"repro/internal/telemetry"
)

// The smoke tests run every workload for about a second, at a low rate,
// against the service's handler in this process, so they need no build.

func smokeConfig(t *testing.T, trace bool) config {
	return config{seed: 1, window: time.Second, lead: 100 * time.Millisecond, setups: 1,
		trace: trace, traceOut: filepath.Join(t.TempDir(), "trace.json")}
}

// slow returns a copy of w offered at a rate low enough for a short test.
func slow(w *workload) *workload {
	c := *w
	c.rate = 30
	return &c
}

func inProcess(w *workload, _ *http.Client) (*target, error) {
	telemetry.Enable()
	ts := httptest.NewServer(service.New(serviceConfig(w)).Handler())
	return &target{base: ts.URL, pid: os.Getpid(), stop: func() error { ts.Close(); return nil }}, nil
}

func TestEveryWorkloadEmitsEveryMetric(t *testing.T) {
	spec, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.EndToEnd) == 0 || len(spec.PerLayer) == 0 {
		t.Fatal("BENCHMARK.json lists no metrics")
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			o, err := runWorkload(slow(w), smokeConfig(t, true), inProcess, io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			if res := o.result(); !res.Correct || res.Attempted == 0 {
				for i, v := range o.rd.verdicts {
					if v.outcome == outFailed {
						t.Errorf("%s %s: %s", o.rd.recs[i].req.method, o.rd.recs[i].req.path, v.reason)
						break
					}
				}
				t.Fatalf("%d of %d requests failed", res.Failed, res.Attempted)
			}
			for _, set := range []struct {
				specs []metricSpec
				got   metricSet
			}{{spec.EndToEnd, o.e2e}, {spec.PerLayer, o.layers}} {
				if len(set.got) != len(set.specs) {
					t.Errorf("emits %d metrics, BENCHMARK.json lists %d", len(set.got), len(set.specs))
				}
				for _, m := range set.specs {
					v, ok := set.got[m.Name]
					if !ok || v.Unit != m.Unit {
						t.Errorf("metric %s: got %+v (present %v), want unit %s", m.Name, v, ok, m.Unit)
					}
				}
			}
		})
	}
}

func TestSeedDeterminesInputs(t *testing.T) {
	for _, w := range workloads {
		fp := func(seed int64) ([]string, string) {
			d, err := newDataset(w, seed, 200*time.Millisecond, time.Second)
			if err != nil {
				t.Fatal(err)
			}
			return d.fingerprints()
		}
		c1, s1 := fp(1)
		c1b, s1b := fp(1)
		c2, s2 := fp(2)
		if !reflect.DeepEqual(c1, c1b) || s1 != s1b {
			t.Errorf("%s: seed 1 gave different inputs twice", w.name)
		}
		if s1 == s2 || c1[0] == c2[0] {
			t.Errorf("%s: seeds 1 and 2 gave the same inputs", w.name)
		}
	}
}

func TestAccessCountsRepeat(t *testing.T) {
	w, _ := workloadByName("topk-mixed")
	d, err := newDataset(w, 1, 0, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	o := newOracle(d, time.Now())
	for _, r := range d.window[:60] {
		c, err := o.catalog(r.tenant, 0)
		if err != nil {
			t.Fatal(err)
		}
		a, _, err1 := runTopK(context.Background(), c.rankings, r.topk)
		b, _, err2 := runTopK(context.Background(), c.rankings, r.topk)
		if err1 != nil || err2 != nil {
			t.Fatal(err1, err2)
		}
		if !reflect.DeepEqual(a.Stats, b.Stats) || !reflect.DeepEqual(a.Winners, b.Winners) {
			t.Fatalf("%s: two runs of one query differ: %+v vs %+v", r.body, a.Stats, b.Stats)
		}
	}
}

func TestOracleCatchesPlantedMedian(t *testing.T) {
	w, _ := workloadByName("topk-mixed")
	o, err := runWorkload(slow(w), smokeConfig(t, false), inProcess, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	recs := append([]record(nil), o.rd.recs...)
	planted := -1
	for i, v := range o.rd.verdicts {
		r := recs[i]
		if v.outcome != outOK || r.req.kind != opTopK || r.req.topk.Resilient || r.req.topk.Trim > 0 {
			continue
		}
		var resp service.TopKResponse
		if err := json.Unmarshal(r.body, &resp); err != nil {
			t.Fatal(err)
		}
		resp.Medians[0] += 0.5
		if recs[i].body, err = json.Marshal(resp); err != nil {
			t.Fatal(err)
		}
		planted = i
		break
	}
	if planted < 0 {
		t.Fatal("no plain top-k answer to plant a wrong median in")
	}
	verdicts := newOracle(o.d, time.Now()).check(recs)
	for i, v := range verdicts {
		if want := i == planted; (v.outcome == outFailed) != want {
			t.Fatalf("record %d (%s): outcome %v, reason %q; planted at %d", i, recs[i].req.body, v.outcome, v.reason, planted)
		}
	}
}
