package ranking_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/guard"
	"repro/internal/randrank"
	"repro/internal/ranking"
)

// catalogBody renders rankings in the text codec with element names e0, e1,
// ..., the form the service's catalog PUTs carry.
func catalogBody(tb testing.TB, rs []*ranking.PartialRanking) []byte {
	tb.Helper()
	names := make([]string, rs[0].N())
	for i := range names {
		names[i] = fmt.Sprintf("e%d", i)
	}
	var buf bytes.Buffer
	if err := ranking.WriteLines(&buf, ranking.MustDomainOf(names...), rs); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// churnBody is one catalog replacement of the ingest-churn workload: 16
// Mallows partial rankings of 300 elements in 10 buckets.
func churnBody(tb testing.TB) []byte {
	rs, _ := randrank.MallowsPartialEnsemble(rand.New(rand.NewSource(1)), 300, 16, 0.1, 10)
	return catalogBody(tb, rs)
}

// parseBody parses body as the service parses a PUT, under the default
// admission limits, and fails tb on any defect.
func parseBody(tb testing.TB, body []byte) {
	rs, _, report, err := ranking.ParseLinesWith(bytes.NewReader(body), ranking.ParseOptions{Limits: guard.DefaultLimits()})
	if err != nil || report.Len() != 0 || len(rs) == 0 {
		tb.Fatalf("parse: %d rankings, %v, %v", len(rs), report, err)
	}
}

// TestParseLinesAllocCeiling bounds the allocations of one catalog parse by a
// constant per line plus a fixed amount, so a cost per element or per bucket
// cannot come back. Each kept line costs seven: its string, one ID array, the
// bucket headers, and the ranking with its bucketOf, pos2 and validation
// table. The fixed part is the line reader, the domain's tables, the result
// slice and the parser's scratch, which grow to the longest line once. A
// 16-line ingest-churn body read 161.
func TestParseLinesAllocCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector adds allocations")
	}
	const perLine, fixed = 7, 49
	body := churnBody(t)
	lines := bytes.Count(body, []byte("\n"))
	got := testing.AllocsPerRun(50, func() { parseBody(t, body) })
	t.Logf("%d lines: %.0f allocs per parse", lines, got)
	if ceiling := float64(perLine*lines + fixed); got > ceiling {
		t.Errorf("%.0f allocs per %d-line parse, ceiling %.0f", got, lines, ceiling)
	}
}

// BenchmarkParseLinesWith parses one catalog body per iteration: an
// ingest-churn replacement (16×300, 10 buckets), and overload-deadline's
// CatalogEnsemble(2000, 32, 8, 1, 0.05), the largest catalog a workload
// stores.
func BenchmarkParseLinesWith(b *testing.B) {
	for _, c := range []struct {
		name string
		body []byte
	}{
		{"churn-16x300", churnBody(b)},
		{"catalog-32x2000", catalogBody(b, randrank.CatalogEnsemble(rand.New(rand.NewSource(1)), 2000, 32, 8, 1, 0.05).Rankings)},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.SetBytes(int64(len(c.body)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				parseBody(b, c.body)
			}
		})
	}
}
