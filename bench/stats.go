package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"sort"
	"strings"
)

// percentile returns the nearest-rank q-quantile of xs (0 for none).
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(i, 0)]
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile with the exclusive method
// of Python's statistics.quantiles(xs, n=4), the definition the benchmark's
// spread bounds are stated in.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return 0, 0
	case 1:
		return s[0], s[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		j = min(max(j, 1), n-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}

// benchSpec is the part of BENCHMARK.json the harness reads: the window
// length, and the metric units, directions and regression bounds.
type benchSpec struct {
	RunSeconds int          `json:"run_seconds"`
	EndToEnd   []metricSpec `json:"end_to_end"`
	PerLayer   []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadSpec(path string) (*benchSpec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// runRecord is one run in a results file.
type runRecord struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Seconds  int    `json:"seconds"` // measured window length
	Trace    bool   `json:"trace"`
	Valid    bool   `json:"valid"`
	result
}

// resultsFile holds named sets of runs; -out appends to one set.
type resultsFile struct {
	Sets map[string][]runRecord `json:"sets"`
}

func readResults(path string) (*resultsFile, error) {
	f := &resultsFile{Sets: map[string][]runRecord{}}
	b, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return f, nil
	}
	if err != nil {
		return nil, err
	}
	if err := json.Unmarshal(b, f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return f, nil
}

func appendResults(path, set string, runs []runRecord) error {
	f, err := readResults(path)
	if err != nil {
		return err
	}
	f.Sets[set] = append(f.Sets[set], runs...)
	b, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// summarize prints each workload's metric medians and quartiles over runs.
func summarize(out io.Writer, runs []runRecord) {
	byW := map[string][]runRecord{}
	var order []string
	for _, r := range runs {
		if byW[r.Workload] == nil {
			order = append(order, r.Workload)
		}
		byW[r.Workload] = append(byW[r.Workload], r)
	}
	for _, w := range order {
		rs := byW[w]
		fmt.Fprintf(out, "%s: %d runs\n", w, len(rs))
		for _, name := range metricNamesOf(rs) {
			xs, unit := values(rs, name)
			q1, q3 := quartiles(xs)
			m := median(xs)
			fmt.Fprintf(out, "  %-36s median %-12.6g q1 %-12.6g q3 %-12.6g spread %5.1f%% %s\n", name, m, q1, q3, 100*spread(q1, q3, m), unit)
		}
	}
}

func spread(q1, q3, m float64) float64 {
	if m == 0 {
		return 0
	}
	return math.Abs(q3-q1) / math.Abs(m)
}

func metricNamesOf(rs []runRecord) []string {
	seen := map[string]bool{}
	var out []string
	for _, r := range rs {
		for name := range r.Metrics {
			if !seen[name] {
				seen[name] = true
				out = append(out, name)
			}
		}
	}
	sort.Strings(out)
	return out
}

func values(rs []runRecord, name string) ([]float64, string) {
	var xs []float64
	unit := ""
	for _, r := range rs {
		if v, ok := r.Metrics[name]; ok {
			xs = append(xs, v.Value)
			unit = v.Unit
		}
	}
	return xs, unit
}

// compare judges set b (the change) against set a (the parent), metric by
// metric and workload by workload, by the rules in README.md, over the runs
// whose generator kept its schedule: a gain needs at least ten pairs, b
// winning nine tenths of them, and a median gap wider than a's quartile
// spread; a regression is a median worse by more than the metric's bound; a
// spread wider than the bound, or fewer than minValid valid runs on a side,
// leaves the metric unresolved. A workload on which b fails a larger share of
// its requests than a counts as one regression, and none of its metrics may
// show a gain: the latency and CPU metrics count only successful requests,
// so a change whose slowest requests fail would otherwise read as faster.
// It returns the number of regressions.
func compare(out io.Writer, spec *benchSpec, a, b []runRecord) int {
	specs := map[string]metricSpec{}
	for _, m := range append(append([]metricSpec(nil), spec.EndToEnd...), spec.PerLayer...) {
		specs[m.Name] = m
	}
	group := func(rs []runRecord) map[string][]runRecord {
		g := map[string][]runRecord{}
		for _, r := range rs {
			g[r.Workload] = append(g[r.Workload], r)
		}
		return g
	}
	ga, gb := group(a), group(b)
	var workloads []string
	for w := range ga {
		if gb[w] != nil {
			workloads = append(workloads, w)
		}
	}
	sort.Strings(workloads)
	regressions := 0
	for _, w := range workloads {
		va, vb := valid(ga[w]), valid(gb[w])
		fa, na := failures(ga[w])
		fb, nb := failures(gb[w])
		fmt.Fprintf(out, "%s: parent %d runs (%d invalid), %d of %d requests failed; change %d runs (%d invalid), %d of %d requests failed\n",
			w, len(ga[w]), len(ga[w])-len(va), fa, na, len(gb[w]), len(gb[w])-len(vb), fb, nb)
		moreFailures := fb*na > fa*nb
		if moreFailures {
			regressions++
			fmt.Fprintf(out, "  regression: the change fails a larger share of requests; no gain counts on %s\n", w)
		}
		for _, name := range metricNamesOf(ga[w]) {
			sp, ok := specs[name]
			if !ok {
				continue
			}
			if _, unit := values(gb[w], name); unit == "" {
				continue // not measured on the change side (say, untraced)
			}
			xa, unit := values(va, name)
			xb, _ := values(vb, name)
			verdict := judge(sp, xa, xb)
			switch {
			case len(xa) < minValid || len(xb) < minValid:
				verdict = "unresolved (too few valid runs)"
			case verdict == "gain" && moreFailures:
				verdict = "no gain (more failures)"
			case verdict == "regression":
				regressions++
			}
			ma, mb := median(xa), median(xb)
			fmt.Fprintf(out, "  %-36s %-12.6g -> %-12.6g %-6s %s\n", name, ma, mb, unit, verdict)
		}
	}
	return regressions
}

// valid returns the runs whose generator kept its schedule.
func valid(rs []runRecord) []runRecord {
	var out []runRecord
	for _, r := range rs {
		if r.Valid {
			out = append(out, r)
		}
	}
	return out
}

// failures sums the failed and attempted requests of the runs, valid or not.
func failures(rs []runRecord) (failed, attempted int) {
	for _, r := range rs {
		failed += r.Failed
		attempted += r.Attempted
	}
	return failed, attempted
}

// minValid is the fewest valid runs per side a metric is judged on, the size
// of each set in the checked-in baseline; minPairs is the fewest
// parent/change pairs a gain may rest on.
const (
	minValid = 5
	minPairs = 10
)

func judge(sp metricSpec, a, b []float64) string {
	lower := sp.Better == "lower"
	better := func(x, y float64) bool { // x better than y
		if lower {
			return x < y
		}
		return x > y
	}
	ma, mb := median(a), median(b)
	qa1, qa3 := quartiles(a)
	qb1, qb3 := quartiles(b)
	wins, pairs := 0, min(len(a), len(b))
	for i := 0; i < pairs; i++ {
		if better(b[i], a[i]) {
			wins++
		}
	}
	worse := mb - ma
	if !lower {
		worse = ma - mb
	}
	allBetter := true
	for _, x := range b {
		for _, y := range a {
			allBetter = allBetter && better(x, y)
		}
	}
	switch {
	case sp.Bound > 0 && worse > sp.Bound*math.Abs(ma):
		return "regression"
	case pairs >= minPairs && 10*wins >= 9*pairs && math.Abs(mb-ma) > math.Abs(qa3-qa1):
		return "gain"
	case sp.Bound > 0 && (spread(qa1, qa3, ma) > sp.Bound || spread(qb1, qb3, mb) > sp.Bound) && !allBetter:
		return "unresolved"
	default:
		return "no change"
	}
}

// runCompare implements `bench compare A.json [B.json]`: two files of one
// set each, or one file of exactly two sets (compared in name order).
func runCompare(args []string, specPath string, out io.Writer) (int, error) {
	spec, err := loadSpec(specPath)
	if err != nil {
		return 0, err
	}
	var sets [][]runRecord
	var names []string
	for _, p := range args {
		f, err := readResults(p)
		if err != nil {
			return 0, err
		}
		var keys []string
		for k := range f.Sets {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			sets = append(sets, f.Sets[k])
			names = append(names, p+":"+k)
		}
	}
	if len(sets) != 2 {
		return 0, fmt.Errorf("compare needs exactly two sets of runs, found %d (%s)", len(sets), strings.Join(names, ", "))
	}
	var lengths []int
	for _, s := range sets {
		for _, r := range s {
			if !slices.Contains(lengths, r.Seconds) {
				lengths = append(lengths, r.Seconds)
			}
		}
	}
	if len(lengths) != 1 {
		return 0, fmt.Errorf("the runs measured windows of different lengths (%v seconds); compare needs runs of one length", lengths)
	}
	fmt.Fprintf(out, "parent %s, change %s\n", names[0], names[1])
	return compare(out, spec, sets[0], sets[1]), nil
}
