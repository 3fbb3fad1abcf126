package ranking

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/guard"
)

// FuzzParseText checks that arbitrary input never panics the parser, that
// everything it accepts round-trips through the renderer, and that it gives
// the reference parser's answer, error and domain, on an empty domain and on
// one that already holds names.
func FuzzParseText(f *testing.F) {
	f.Add("a b | c")
	f.Add("x")
	f.Add("| |")
	f.Add("a a")
	f.Add("  spaced   out  |  bucket ")
	f.Add("üñïçødé | ✓")
	f.Add("a\u0085b | c\u00a0d")
	f.Add("x\xe2\x80| y")
	f.Fuzz(func(t *testing.T, line string) {
		for _, names := range [][]string{nil, {"a", "b", "x"}} {
			dom, ref := MustDomainOf(names...), MustDomainOf(names...)
			pr, err := ParseText(dom, line)
			want, wantErr := refParseText(ref, line)
			if got, exp := describeParse([]*PartialRanking{pr}, dom, nil, err), describeParse([]*PartialRanking{want}, ref, nil, wantErr); got != exp {
				t.Fatalf("domain %q: ParseText differs from the reference\ngot:\n%s\nwant:\n%s", names, got, exp)
			}
		}
		dom := NewDomain()
		pr, err := ParseText(dom, line)
		if err != nil {
			if dom.Size() != 0 {
				t.Fatalf("failed parse polluted the domain with %v", dom.Names())
			}
			return
		}
		rendered := dom.Render(pr)
		dom2 := NewDomain()
		back, err := ParseText(dom2, rendered)
		if err != nil {
			t.Fatalf("render %q of accepted input failed to parse: %v", rendered, err)
		}
		if back.N() != pr.N() || back.NumBuckets() != pr.NumBuckets() {
			t.Fatalf("round trip changed shape: %v -> %v", pr, back)
		}
	})
}

// describeParse renders a parse result for comparison: the error, or the
// domain's names in ID order, every ranking bucket by bucket, and the
// report's defects and dropped count.
func describeParse(rs []*PartialRanking, dom *Domain, report *guard.ErrorList, err error) string {
	if err != nil {
		return "error: " + err.Error()
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "names %q\n", dom.Names())
	for i, pr := range rs {
		fmt.Fprintf(&sb, "ranking %d: n=%d", i, pr.N())
		for bi := 0; bi < pr.NumBuckets(); bi++ {
			fmt.Fprintf(&sb, " %v", pr.Bucket(bi))
		}
		sb.WriteByte('\n')
	}
	if report != nil {
		for _, d := range report.Defects {
			fmt.Fprintf(&sb, "defect line %d col %d repaired %v: %q\n", d.Line, d.Col, d.Repaired, d.Msg)
		}
		fmt.Fprintf(&sb, "dropped %d\n", report.Dropped)
	}
	return sb.String()
}

// parseModes are the option sets the parsers are compared under: strict,
// lenient DropLine and lenient CompleteBottom, each with the given limits.
func parseModes(limits guard.Limits) []ParseOptions {
	return []ParseOptions{
		{Limits: limits},
		{Limits: limits, Lenient: true, Repair: guard.DropLine},
		{Limits: limits, Lenient: true, Repair: guard.CompleteBottom},
	}
}

// fuzzLimits are FuzzParseLinesWith's limits; tightLimits trip every
// admission limit on small corpora.
var (
	fuzzLimits  = guard.Limits{MaxLineBytes: 1 << 12, MaxRankings: 64, MaxDefects: 16}
	tightLimits = guard.Limits{MaxBuckets: 3, MaxElements: 5, MaxRankings: 4, MaxDefects: 3, MaxLineBytes: 64}
)

// checkMatchesReference fails t unless ParseLinesWith gives the reference
// parser's result on corpus under opts.
func checkMatchesReference(t *testing.T, corpus string, opts ParseOptions) {
	t.Helper()
	got := describeParse(ParseLinesWith(strings.NewReader(corpus), opts))
	want := describeParse(refParseLinesWith(strings.NewReader(corpus), opts))
	if got != want {
		t.Fatalf("%+v: ParseLinesWith differs from the reference on %q\ngot:\n%s\nwant:\n%s", opts, corpus, got, want)
	}
}

// FuzzParseLinesWith feeds arbitrary multi-line corpora through strict and
// lenient parsing. Under every mode, with the fuzzer's limits and with a set
// tight enough to trip each one, the result must equal the reference
// parser's: error, domain, rankings, defects and dropped count. It also
// checks the agreement contract: on a corpus strict mode accepts, every
// lenient policy returns the identical ensemble with an empty defect report;
// on any corpus, the lenient result re-parses strictly with zero defects
// (the repair fixed point).
func FuzzParseLinesWith(f *testing.F) {
	f.Add("a b | c\nc | a b\n")
	f.Add("a b\na | | b\nb a\n")
	f.Add("x\n# c\n\nx\n")
	f.Add("a a\nq r\nr | q s\n")
	f.Add("| \r\nü ✓\n✓ | ü\n")
	f.Add("a\u0085b | c\nc | b\u00a0a\n")
	f.Add("\xe2\x80| y\ny | \xe2\x80\n")
	f.Fuzz(func(t *testing.T, corpus string) {
		if len(corpus) > 1<<16 {
			return
		}
		limits := fuzzLimits
		for _, opts := range append(parseModes(limits), parseModes(tightLimits)...) {
			checkMatchesReference(t, corpus, opts)
		}
		strictRs, strictDom, strictReport, strictErr := ParseLinesWith(strings.NewReader(corpus), ParseOptions{Limits: limits})
		if strictErr == nil && strictReport.Len() != 0 {
			t.Fatalf("strict success with non-empty report: %v", strictReport)
		}
		for _, policy := range []guard.RepairPolicy{guard.DropLine, guard.CompleteBottom} {
			rs, dom, report, err := ParseLinesWith(strings.NewReader(corpus), ParseOptions{Limits: limits, Lenient: true, Repair: policy})
			if err != nil {
				t.Fatalf("%v: lenient parse failed fatally: %v", policy, err)
			}
			if strictErr == nil {
				// Strict-vs-lenient agreement on valid input.
				if report.Len() != 0 {
					t.Fatalf("%v: clean corpus produced defects: %v", policy, report)
				}
				if len(rs) != len(strictRs) || dom.Size() != strictDom.Size() {
					t.Fatalf("%v: modes disagree on clean corpus", policy)
				}
				for i := range rs {
					if !rs[i].Equal(strictRs[i]) {
						t.Fatalf("%v: ranking %d differs between modes", policy, i)
					}
				}
			}
			// Repair fixed point: what lenient mode kept is strictly valid.
			var buf bytes.Buffer
			if err := WriteLines(&buf, dom, rs); err != nil {
				t.Fatal(err)
			}
			back, _, report2, err := ParseLinesWith(bytes.NewReader(buf.Bytes()), ParseOptions{Limits: limits})
			if err != nil {
				t.Fatalf("%v: repaired ensemble failed strict re-parse: %v", policy, err)
			}
			if report2.Len() != 0 || len(back) != len(rs) {
				t.Fatalf("%v: repaired ensemble is not a fixed point", policy)
			}
		}
	})
}

// FuzzBucketsFromBytes decodes an arbitrary byte string into a bucket
// assignment and checks that every constructed ranking satisfies the core
// position invariants.
func FuzzBucketsFromBytes(f *testing.F) {
	f.Add([]byte{0, 0, 1, 2})
	f.Add([]byte{5})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		pr := FromBytes(data)
		n := pr.N()
		if n != len(data) {
			t.Fatalf("domain size %d != input length %d", n, len(data))
		}
		var sum2 int64
		for e := 0; e < n; e++ {
			sum2 += pr.Pos2(e)
		}
		if want := int64(n) * int64(n+1); sum2 != want {
			t.Fatalf("position-sum invariant violated: %d != %d", sum2, want)
		}
		if !pr.Reverse().Reverse().Equal(pr) {
			t.Fatal("reverse involution violated")
		}
		if !pr.RefineBy(pr).Equal(pr) {
			t.Fatal("self-refinement changed the ranking")
		}
	})
}

// FromBytes deterministically maps a byte string onto a bucket order over
// {0..len(data)-1}: byte values choose bucket labels, labels order buckets.
func FromBytes(data []byte) *PartialRanking {
	n := len(data)
	groups := map[byte][]int{}
	var labels []byte
	for i, b := range data {
		lbl := b % 7 // keep bucket count small so ties are common
		if _, ok := groups[lbl]; !ok {
			labels = append(labels, lbl)
		}
		groups[lbl] = append(groups[lbl], i)
	}
	sortBytes(labels)
	buckets := make([][]int, 0, len(labels))
	for _, l := range labels {
		buckets = append(buckets, groups[l])
	}
	return MustFromBuckets(n, buckets)
}

func sortBytes(b []byte) {
	for i := 1; i < len(b); i++ {
		for j := i; j > 0 && b[j] < b[j-1]; j-- {
			b[j], b[j-1] = b[j-1], b[j]
		}
	}
}

// TestParsersMatchReference runs the fuzzers' comparison over seeded random
// corpora built from names, separators, unicode spaces and broken UTF-8, and
// over lines longer than the line reader's buffer, with and without a final
// newline.
func TestParsersMatchReference(t *testing.T) {
	parts := []string{"a", "b", "c", "d", "e", "ü", " ", " ", "\t", "\v", "\f", "\r", "|", "|", "\n", "\n", "\r\n", "#", "\u0085", "\u00a0", "\u2028", "\xe2\x80", "\xc2"}
	rng := rand.New(rand.NewSource(1))
	modes := append(parseModes(fuzzLimits), parseModes(tightLimits)...)
	for i := 0; i < 1000; i++ {
		var sb strings.Builder
		for j := rng.Intn(40); j >= 0; j-- {
			sb.WriteString(parts[rng.Intn(len(parts))])
		}
		for _, opts := range modes {
			checkMatchesReference(t, sb.String(), opts)
		}
	}
	long := strings.Repeat("x ", 40<<10) + "| y"
	for _, corpus := range []string{long, long + "\n", "y | x\n" + long, long + "\n" + long} {
		for _, opts := range append(parseModes(guard.Limits{}), parseModes(guard.Limits{MaxLineBytes: 100 << 10})...) {
			checkMatchesReference(t, corpus, opts)
		}
	}
}
