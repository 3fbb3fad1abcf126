package main

import (
	"path/filepath"
	"strings"
	"testing"
)

func TestCompareJudgesValidRunsAndFailures(t *testing.T) {
	spec := &benchSpec{EndToEnd: []metricSpec{{Name: "p50_ms", Unit: "ms", Better: "lower", Bound: 0.25}}}
	runs := func(n int, p50 float64, valid bool, failed int) []runRecord {
		var rs []runRecord
		for i := 0; i < n; i++ {
			rs = append(rs, runRecord{Workload: "w", Seconds: 1, Valid: valid, result: result{
				Attempted: 100, Failed: failed, Metrics: metricSet{"p50_ms": {p50 + float64(i)/100, "ms"}}}})
		}
		return rs
	}
	parent := runs(10, 10, true, 0)
	for _, c := range []struct {
		name        string
		change      []runRecord
		regressions int
		verdict     string
	}{
		{"faster", runs(10, 5, true, 0), 0, " gain\n"},
		{"faster with failures", runs(10, 5, true, 1), 1, "no gain (more failures)"},
		{"slower", runs(10, 20, true, 0), 1, "regression"},
		{"slower, mostly invalid", append(runs(4, 20, true, 0), runs(6, 20, false, 0)...), 0, "unresolved (too few valid runs)"},
	} {
		var out strings.Builder
		if n := compare(&out, spec, parent, c.change); n != c.regressions || !strings.Contains(out.String(), c.verdict) {
			t.Errorf("%s: %d regressions, want %d and %q in:\n%s", c.name, n, c.regressions, c.verdict, out.String())
		}
	}

	dir := t.TempDir()
	a, b := filepath.Join(dir, "a.json"), filepath.Join(dir, "b.json")
	long := runs(10, 10, true, 0)
	for i := range long {
		long[i].Seconds = 2
	}
	if err := appendResults(a, "a", parent); err != nil {
		t.Fatal(err)
	}
	if err := appendResults(b, "b", long); err != nil {
		t.Fatal(err)
	}
	if _, err := runCompare([]string{a, b}, "../BENCHMARK.json", &strings.Builder{}); err == nil {
		t.Error("compare accepted runs of different window lengths")
	}
}
