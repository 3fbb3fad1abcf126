package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

const sample = `sushi thai | bbq | deli
bbq | sushi | thai deli
thai | deli | sushi bbq
`

func runCLI(t *testing.T, args []string, stdin string) string {
	t.Helper()
	var out bytes.Buffer
	if err := run(args, strings.NewReader(stdin), &out); err != nil {
		t.Fatalf("run(%v) failed: %v", args, err)
	}
	return out.String()
}

func TestDist(t *testing.T) {
	out := runCLI(t, []string{"dist"}, sample)
	for _, want := range []string{"Kprof", "Fprof", "KHaus", "FHaus", "K^(0.5)", "gamma"} {
		if !strings.Contains(out, want) {
			t.Errorf("dist output missing %q:\n%s", want, out)
		}
	}
}

func TestAggMethods(t *testing.T) {
	for _, method := range []string{"median", "dp", "borda", "mc4", "footrule-opt"} {
		out := runCLI(t, []string{"agg", "-method", method}, sample)
		if !strings.Contains(out, "sushi") || !strings.Contains(out, "objective") {
			t.Errorf("agg %s output wrong:\n%s", method, out)
		}
	}
}

func TestTopK(t *testing.T) {
	out := runCLI(t, []string{"topk", "-k", "2"}, sample)
	if !strings.Contains(out, "1. ") || !strings.Contains(out, "probes") {
		t.Errorf("topk output wrong:\n%s", out)
	}
}

func TestTopKStats(t *testing.T) {
	out := runCLI(t, []string{"topk", "-k", "2", "-stats"}, sample)
	var doc struct {
		Winners             []string `json:"winners"`
		Access              struct{ Total, Random int }
		FullScan            int     `json:"full_scan"`
		Certificate         int     `json:"certificate"`
		CostOptimalityRatio float64 `json:"cost_optimality_ratio"`
	}
	if err := json.Unmarshal([]byte(out), &doc); err != nil {
		t.Fatalf("topk -stats output is not JSON: %v\n%s", err, out)
	}
	if len(doc.Winners) != 2 || doc.Access.Total <= 0 || doc.Access.Random != 0 {
		t.Errorf("stats shape wrong: %+v", doc)
	}
	if doc.Certificate <= 0 || doc.CostOptimalityRatio < 1 {
		t.Errorf("certificate %d ratio %v", doc.Certificate, doc.CostOptimalityRatio)
	}
}

func TestAggTrace(t *testing.T) {
	out := runCLI(t, []string{"agg", "-method", "dp", "-trace"}, sample)
	if !strings.Contains(out, "# trace: aggregate.optimal_partial") {
		t.Errorf("agg -trace missing span timing line:\n%s", out)
	}
}

func TestGenRoundTrips(t *testing.T) {
	out := runCLI(t, []string{"gen", "-n", "8", "-m", "4", "-seed", "9"}, "")
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 {
		t.Fatalf("gen produced %d lines:\n%s", len(lines), out)
	}
	// Generated output must parse back through dist.
	_ = runCLI(t, []string{"dist"}, out)

	// Mallows-coarsened variant.
	out = runCLI(t, []string{"gen", "-n", "8", "-m", "3", "-theta", "1.5"}, "")
	if len(strings.Split(strings.TrimSpace(out), "\n")) != 3 {
		t.Fatalf("gen -theta produced:\n%s", out)
	}
}

func TestErrors(t *testing.T) {
	cases := [][]string{
		{},
		{"nope"},
		{"dist"},                      // with empty stdin: < 2 rankings
		{"agg", "-method", "unknown"}, // bad method
		{"topk", "-k", "99"},          // k > n
		{"topk", "-algo", "ta", "-cost-ratio", "9223372036854775807"}, // cost would overflow
	}
	stdins := []string{"", "", "", sample, sample, sample}
	for i, args := range cases {
		var out bytes.Buffer
		if err := run(args, strings.NewReader(stdins[i]), &out); err == nil {
			t.Errorf("run(%v) should fail", args)
		}
	}
}

func TestCompare(t *testing.T) {
	out := runCLI(t, []string{"compare"}, sample)
	for _, want := range []string{"method", "median-full", "borda", "mc4", "best-input", "sum Kprof"} {
		if !strings.Contains(out, want) {
			t.Errorf("compare output missing %q:\n%s", want, out)
		}
	}
}

func TestCorr(t *testing.T) {
	out := runCLI(t, []string{"corr"}, sample)
	for _, want := range []string{"tau-a", "tau-b", "rho", "gamma", "Kprof~", "Fprof~"} {
		if !strings.Contains(out, want) {
			t.Errorf("corr output missing %q:\n%s", want, out)
		}
	}
	// Undefined coefficients are reported, not fatal.
	degenerate := "a b c\na b c\n"
	out = runCLI(t, []string{"corr"}, degenerate)
	if !strings.Contains(out, "undefined") {
		t.Errorf("corr on single-bucket rankings should report undefined:\n%s", out)
	}
}

func TestEval(t *testing.T) {
	out := runCLI(t, []string{"eval"}, sample)
	for _, want := range []string{"candidate vs 2 inputs", "sum Kprof", "sum FHaus"} {
		if !strings.Contains(out, want) {
			t.Errorf("eval output missing %q:\n%s", want, out)
		}
	}
	var buf bytes.Buffer
	if err := run([]string{"eval"}, strings.NewReader("a b\n"), &buf); err == nil {
		t.Error("eval with a single line accepted")
	}
}
