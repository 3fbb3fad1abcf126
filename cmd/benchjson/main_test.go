package main

import (
	"bytes"
	"encoding/json"
	"runtime"
	"testing"
)

func TestRunEmitsAllBenchmarks(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real benchmarks")
	}
	var out bytes.Buffer
	// Tiny sizes: each testing.Benchmark call still runs for ~1s, so this
	// test is dominated by benchmark wall clock, not problem size.
	if err := run([]string{"-n", "40", "-m", "4", "-maxbucket", "3", "-dup", "2"}, &out); err != nil {
		t.Fatal(err)
	}
	var rep report
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, out.String())
	}
	if rep.N != 40 || rep.M != 4 {
		t.Errorf("header = %+v", rep)
	}
	if rep.GoVersion != runtime.Version() {
		t.Errorf("go_version = %q, want %q", rep.GoVersion, runtime.Version())
	}
	if rep.GOMAXPROCS < 1 {
		t.Errorf("gomaxprocs = %d", rep.GOMAXPROCS)
	}
	want := map[string]bool{
		"countpairs/alloc":               false,
		"countpairs/workspace":           false,
		"fhaus/refinement":               false,
		"fhaus/workspace":                false,
		"distancematrix_kprof/alloc":     false,
		"distancematrix_kprof/workspace": false,
		"sumdistance_kprof/alloc":        false,
		"sumdistance_kprof/workspace":    false,
		"compareall/workspace":           false,
		"medrank/source":                 false,
		"medrank/source_retry":           false,
		"medrank/source_degraded":        false,
		"ta/source":                      false,
		"nra/source":                     false,
		"nra/source_degraded":            false,
		"ca/source":                      false,

		"distancematrix_kprof/dup_uncached":      false,
		"distancematrix_kprof/dup_cached":        false,
		"bestofinputs_kprof/dup_serial":          false,
		"bestofinputs_kprof/dup_parallel":        false,
		"bestofinputs_kprof/dup_parallel_cached": false,

		"telemetry/medrank_disabled":  false,
		"telemetry/medrank_unsampled": false,
		"telemetry/medrank_sampled":   false,
	}
	for _, r := range rep.Benchmarks {
		if _, ok := want[r.Name]; !ok {
			t.Errorf("unexpected benchmark %q", r.Name)
		}
		want[r.Name] = true
		if r.Iterations < 1 || r.NsPerOp <= 0 {
			t.Errorf("%s: implausible result %+v", r.Name, r)
		}
	}
	for name, seen := range want {
		if !seen {
			t.Errorf("missing benchmark %q", name)
		}
	}
	if rep.Cache == nil {
		t.Fatal("missing cache section")
	}
	if rep.Cache.Hits <= 0 || rep.Cache.HitRate <= 0 || rep.Cache.HitRate > 1 {
		t.Errorf("implausible cache stats %+v", rep.Cache)
	}
	if rep.Cache.TelemetryHits != rep.Cache.Hits || rep.Cache.TelemetryMisses != rep.Cache.Misses {
		t.Errorf("telemetry mirrors diverged from cache counters: %+v", rep.Cache)
	}
	if rep.TelemetryOverhead == nil {
		t.Fatal("missing telemetry_overhead section")
	}
	to := rep.TelemetryOverhead
	if to.BaselineNsPerOp <= 0 || to.UnsampledNsPerOp <= 0 || to.SampledNsPerOp <= 0 {
		t.Errorf("implausible overhead measurements %+v", to)
	}
	// The overheads are noisy at this problem size; only pin the arithmetic
	// that derives them from the measured rows.
	if got := (to.UnsampledNsPerOp - to.BaselineNsPerOp) / to.BaselineNsPerOp; got != to.UnsampledOverhead {
		t.Errorf("unsampled_overhead %v inconsistent with its rows (want %v)", to.UnsampledOverhead, got)
	}
	if got := (to.SampledNsPerOp - to.BaselineNsPerOp) / to.BaselineNsPerOp; got != to.SampledOverhead {
		t.Errorf("sampled_overhead %v inconsistent with its rows (want %v)", to.SampledOverhead, got)
	}
}

func TestRunRejectsBadArgs(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-n", "0"}, &out); err == nil {
		t.Error("n=0 accepted")
	}
	if err := run([]string{"-bogus"}, &out); err == nil {
		t.Error("bad flag accepted")
	}
}
