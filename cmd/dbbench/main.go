// Command dbbench sweeps the database-catalog workload of the paper across
// catalog sizes, voter counts, attribute cardinalities, and k, and reports
// the sequential-access cost of the streaming median top-k engine under
// three cost models: element-granular probes, bucket-granular I/Os (one
// index-scan I/O returns a whole run of tied rows), and the full scan every
// other aggregation method needs. It is the practitioner's version of
// experiment E7: run it on the parameter ranges that match your schema.
//
// With -stats the human-readable table is replaced by a JSON document that
// additionally runs the TA, NRA, and CA baselines on every configuration and
// reports sequential/random access counts, the sequential-only and
// cost-weighted certificate lower bounds, middleware costs at (cs=1,
// cr=-cost-ratio), and per-engine cost-weighted optimality ratios (Theorems
// 30-32), plus a snapshot of the telemetry registry. -trace appends the span
// event log; -debug ADDR serves net/http/pprof and expvar for the duration of
// the run.
//
// -chaos replaces the sweep with the fault-injection experiment E15: MEDRANK
// over fallible sources at increasing list-death rates, reporting how far the
// degraded answers drift from the fault-free ones. -timeout puts a wall-clock
// deadline on every engine run; a run that exceeds it aborts the sweep with
// context.DeadlineExceeded.
//
// -catalog FILE replaces the synthetic sweep with a real CSV catalog: column
// types are sniffed from the data, the table is loaded through the hardened
// admission path (add -lenient to drop defective rows with a "# defect:"
// report on stderr instead of aborting), and the top-k query runs over
// ascending index scans of every numeric column for each -k value.
//
// Usage:
//
//	dbbench [-n 1000,10000] [-m 4,6] [-values 3,5,25] [-k 1,10] [-zipf 1.0]
//	        [-theta 1.5] [-trials 3] [-seed 1] [-timeout 0] [-stats] [-trace]
//	        [-chaos] [-debug addr]
//	dbbench -catalog file.csv [-keycol name] [-lenient] [-k 1,10]
package main

import (
	"bytes"
	"context"
	"encoding/csv"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/db"
	"repro/internal/experiments"
	"repro/internal/guard"
	"repro/internal/randrank"
	"repro/internal/ranking"
	"repro/internal/service/debugserve"
	"repro/internal/telemetry"
	"repro/internal/topk"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "dbbench:", err)
		os.Exit(1)
	}
}

// engineStats is one engine's access profile on one configuration, averaged
// over trials.
type engineStats struct {
	Sequential int `json:"sequential"`
	Random     int `json:"random"`
	BucketIOs  int `json:"bucket_ios"`
	MaxDepth   int `json:"max_depth"`
	// MiddlewareCost is the FLN cost cs·sequential + cr·random at
	// (cs=1, cr=cost_ratio), and CostOptimalityRatio divides it by the
	// cost-weighted certificate computed at the same weights.
	MiddlewareCost      int     `json:"middleware_cost"`
	CostOptimalityRatio float64 `json:"cost_optimality_ratio"`
}

// configStats is the JSON record emitted per configuration under -stats.
type configStats struct {
	N           int         `json:"n"`
	M           int         `json:"m"`
	Values      int         `json:"values"`
	K           int         `json:"k"`
	MedRank     engineStats `json:"medrank"`
	TA          engineStats `json:"ta"`
	NRA         engineStats `json:"nra"`
	CA          engineStats `json:"ca"`
	FullScan    int         `json:"full_scan"`
	Certificate int         `json:"certificate"`
	// CostRatio is the cR/cS weight of the sweep and CostCertificate the
	// cost-weighted per-instance lower bound at (cs=1, cr=CostRatio),
	// averaged over trials like Certificate.
	CostRatio       int   `json:"cost_ratio"`
	CostCertificate int   `json:"cost_certificate"`
	ElapsedNs       int64 `json:"elapsed_ns"`
}

// statsDoc is the top-level -stats JSON document.
type statsDoc struct {
	Trials    int                `json:"trials"`
	Seed      int64              `json:"seed"`
	Configs   []configStats      `json:"configs"`
	Telemetry telemetry.Snapshot `json:"telemetry"`
	Trace     []telemetry.Event  `json:"trace,omitempty"`
}

func writeJSON(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("dbbench", flag.ContinueOnError)
	ns := fs.String("n", "1000,10000", "comma-separated catalog sizes")
	ms := fs.String("m", "4,6", "comma-separated attribute counts")
	values := fs.String("values", "3,5,25", "comma-separated distinct-value counts per attribute")
	ks := fs.String("k", "1,10", "comma-separated k values")
	zipf := fs.Float64("zipf", 1.0, "Zipf skew of attribute values")
	theta := fs.Float64("theta", 1.5, "Mallows concentration of attributes around the hidden order")
	trials := fs.Int("trials", 3, "trials per configuration (averaged)")
	seed := fs.Int64("seed", 1, "random seed")
	stats := fs.Bool("stats", false, "emit access statistics as JSON (MEDRANK, TA, NRA, and CA on every configuration, cost-weighted optimality ratios, telemetry snapshot)")
	costRatio := fs.Int("cost-ratio", 10, "cR/cS weight pricing random accesses in the -stats cost columns and scheduling CA")
	trace := fs.Bool("trace", false, "record telemetry spans and append the trace event log to the JSON (implies -stats)")
	chaos := fs.Bool("chaos", false, "run the fault-injection experiment (E15) instead of the access-cost sweep")
	catalog := fs.String("catalog", "", "query a real CSV catalog instead of sweeping synthetic ones")
	keycol := fs.String("keycol", "", "primary-key column of -catalog (default: first header column)")
	lenient := fs.Bool("lenient", false, "with -catalog, drop defective rows (reported as '# defect:' lines on stderr) instead of aborting")
	timeout := fs.Duration("timeout", 0, "per-engine-run deadline; 0 means none")
	debug := fs.String("debug", "", "serve net/http/pprof and expvar on this address for the duration of the run")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *chaos {
		table, err := experiments.Run("E15", *seed)
		if err != nil {
			return err
		}
		return table.Render(stdout)
	}
	if *catalog != "" {
		ksV, err := parseInts(*ks)
		if err != nil {
			return err
		}
		return runCatalog(*catalog, *keycol, *lenient, ksV, stdout)
	}

	nsV, err := parseInts(*ns)
	if err != nil {
		return err
	}
	msV, err := parseInts(*ms)
	if err != nil {
		return err
	}
	valuesV, err := parseInts(*values)
	if err != nil {
		return err
	}
	ksV, err := parseInts(*ks)
	if err != nil {
		return err
	}
	if *trials < 1 {
		return fmt.Errorf("trials must be positive, got %d", *trials)
	}
	if *costRatio < 0 {
		return fmt.Errorf("cost-ratio must be non-negative, got %d", *costRatio)
	}
	if *trace {
		*stats = true
	}
	if *stats {
		telemetry.Enable()
		telemetry.Default.Reset()
		telemetry.ResetTrace()
	}
	if *debug != "" {
		srv, err := debugserve.Start(*debug)
		if err != nil {
			return fmt.Errorf("debug server: %w", err)
		}
		defer func() {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			if err := srv.Shutdown(ctx); err != nil {
				fmt.Fprintf(os.Stderr, "dbbench: debug server shutdown: %v\n", err)
			}
		}()
		telemetry.PublishExpvar()
		fmt.Fprintf(os.Stderr, "dbbench: debug server on http://%s/debug/pprof/ and /debug/vars\n", srv.Addr())
	}

	rng := rand.New(rand.NewSource(*seed))
	doc := statsDoc{Trials: *trials, Seed: *seed}
	if !*stats {
		fmt.Fprintf(stdout, "%-7s %-3s %-7s %-4s %12s %12s %12s %10s\n",
			"n", "m", "values", "k", "elem probes", "bucket I/Os", "full scan", "time")
	}
	for _, n := range nsV {
		for _, m := range msV {
			for _, nv := range valuesV {
				for _, k := range ksV {
					if k > n {
						continue
					}
					cs, err := sweepConfig(rng, n, m, nv, k, *zipf, *theta, *trials, *stats, *costRatio, *timeout)
					if err != nil {
						return err
					}
					if *stats {
						doc.Configs = append(doc.Configs, cs)
					} else {
						fmt.Fprintf(stdout, "%-7d %-3d %-7d %-4d %12d %12d %12d %10s\n",
							n, m, nv, k,
							cs.MedRank.Sequential, cs.MedRank.BucketIOs, cs.FullScan,
							time.Duration(cs.ElapsedNs).Round(time.Microsecond))
					}
				}
			}
		}
	}
	if *stats {
		doc.Telemetry = telemetry.Default.Snapshot()
		if *trace {
			doc.Trace = telemetry.TraceEvents()
		}
		return writeJSON(stdout, doc)
	}
	return nil
}

// sweepConfig runs one (n, m, values, k) configuration for the given number
// of trials and averages the access profile of MEDRANK and, when withAll is
// set, of the TA, NRA, and CA baselines over the same ensembles. All engines
// are priced under one cost model (cs=1, cr=costRatio) against one
// cost-weighted certificate on MEDRANK's winners, which every engine shares.
// A non-zero timeout is applied per engine run; hitting it aborts the sweep.
func sweepConfig(rng *rand.Rand, n, m, nv, k int, zipf, theta float64, trials int, withAll bool, costRatio int, timeout time.Duration) (configStats, error) {
	cs := configStats{N: n, M: m, Values: nv, K: k, CostRatio: costRatio}
	engines := []struct {
		es   *engineStats
		spec topk.Spec
	}{
		{&cs.MedRank, topk.Spec{Algo: topk.AlgoMedRank, K: k, Policy: topk.GlobalMergeBuckets}},
		{&cs.TA, topk.Spec{Algo: topk.AlgoTA, K: k}},
		{&cs.NRA, topk.Spec{Algo: topk.AlgoNRA, K: k}},
		{&cs.CA, topk.Spec{Algo: topk.AlgoCA, K: k, CostRatio: costRatio}},
	}
	if !withAll {
		engines = engines[:1]
	}
	run := func(rankings []*ranking.PartialRanking, spec topk.Spec) (*topk.Result, error) {
		ctx := context.Background()
		if timeout > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, timeout)
			defer cancel()
		}
		return topk.RunRankings(ctx, spec, rankings, nil)
	}
	var elapsed time.Duration
	costRatios := make([]float64, len(engines))
	for trial := 0; trial < trials; trial++ {
		ens := randrank.CatalogEnsemble(rng, n, m, nv, zipf, theta)
		var costCert int
		for i, eng := range engines {
			start := time.Now()
			res, err := run(ens.Rankings, eng.spec)
			if i == 0 {
				elapsed += time.Since(start)
			}
			if err != nil {
				return cs, err
			}
			if i == 0 {
				cs.Certificate += topk.CertificateLowerBound(ens.Rankings, res.Winners)
				costCert = topk.CertificateLowerBoundCost(ens.Rankings, res.Winners, 1, costRatio)
				cs.CostCertificate += costCert
				cs.FullScan += topk.FullScanCost(ens.Rankings).Total
			}
			st, es := res.Stats, eng.es
			es.Sequential += st.Total
			es.Random += st.Random
			es.BucketIOs += st.TotalBucketProbes
			es.MaxDepth = max(es.MaxDepth, st.MaxDepth)
			es.MiddlewareCost += st.MiddlewareCost(1, costRatio)
			costRatios[i] += st.CostOptimalityRatio(1, costRatio, costCert)
		}
	}
	for i, eng := range engines {
		es := eng.es
		es.Sequential /= trials
		es.Random /= trials
		es.BucketIOs /= trials
		es.MiddlewareCost /= trials
		es.CostOptimalityRatio = costRatios[i] / float64(trials)
	}
	cs.FullScan /= trials
	cs.Certificate /= trials
	cs.CostCertificate /= trials
	cs.ElapsedNs = int64(elapsed) / int64(trials)
	return cs, nil
}

// runCatalog loads a real CSV catalog through the hardened admission path and
// answers the multi-criteria top-k query over ascending index scans of every
// numeric column, once per requested k.
func runCatalog(path, keyCol string, lenient bool, ks []int, stdout io.Writer) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	header, types, err := sniffCatalogTypes(data)
	if err != nil {
		return err
	}
	if keyCol == "" {
		keyCol = header[0]
	}
	colTypes := make(map[string]db.ColumnType, len(header))
	for _, h := range header {
		if h != keyCol {
			colTypes[h] = types[h]
		}
	}
	tbl, report, err := db.LoadCSVWith(path, bytes.NewReader(data), keyCol, colTypes, db.LoadOptions{
		Limits:  guard.DefaultLimits(),
		Lenient: lenient,
	})
	if err != nil {
		return err
	}
	for _, d := range report.Defects {
		fmt.Fprintf(os.Stderr, "# defect: %s\n", d)
	}
	if report.Dropped > 0 {
		fmt.Fprintf(os.Stderr, "# defect: and %d more defects not shown\n", report.Dropped)
	}

	var prefs []db.Preference
	for _, h := range header {
		if h != keyCol && types[h] != db.StringCol {
			prefs = append(prefs, db.Preference{Column: h, Direction: db.Ascending})
		}
	}
	if len(prefs) == 0 {
		return fmt.Errorf("catalog %s has no numeric columns to rank on", path)
	}
	cols := make([]string, len(prefs))
	for i, p := range prefs {
		cols[i] = p.Column
	}
	fmt.Fprintf(stdout, "catalog %s: %d rows, ranking on %s (ascending)\n",
		path, tbl.NumRows(), strings.Join(cols, ", "))
	for _, k := range ks {
		if k > tbl.NumRows() {
			continue
		}
		res, err := tbl.TopK(db.Query{Preferences: prefs, K: k})
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "k=%d\n", k)
		for i, key := range res.Keys {
			fmt.Fprintf(stdout, "  %d. %s (median position %g)\n", i+1, key, res.MedianPositions[i])
		}
		fmt.Fprintf(stdout, "  # probes: %d of %d (optimality ratio %.2f)\n",
			res.Access.Total, res.FullScan.Total, res.CostOptimalityRatio)
	}
	return nil
}

// sniffCatalogTypes infers a column type for every header column by majority
// vote over the data rows: a column most of whose non-empty cells parse as
// integers is IntCol, else as floats FloatCol, else StringCol. Majority — not
// unanimity — so that one corrupted cell in a numeric column becomes a row
// defect at load time instead of silently demoting the whole column to
// strings. Rows the CSV reader cannot parse are skipped here; the hardened
// loader reports or rejects them afterwards.
func sniffCatalogTypes(data []byte) ([]string, map[string]db.ColumnType, error) {
	cr := csv.NewReader(bytes.NewReader(data))
	cr.TrimLeadingSpace = true
	cr.FieldsPerRecord = -1
	header, err := cr.Read()
	if err != nil {
		return nil, nil, fmt.Errorf("reading CSV header of catalog: %w", err)
	}
	nonempty := make([]int, len(header))
	ints := make([]int, len(header))
	floats := make([]int, len(header))
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			continue
		}
		for i := 0; i < len(rec) && i < len(header); i++ {
			cell := strings.TrimSpace(rec[i])
			if cell == "" {
				continue
			}
			nonempty[i]++
			if _, err := strconv.ParseInt(cell, 10, 64); err == nil {
				ints[i]++
			}
			if _, err := strconv.ParseFloat(cell, 64); err == nil {
				floats[i]++
			}
		}
	}
	types := make(map[string]db.ColumnType, len(header))
	for i, h := range header {
		switch {
		case nonempty[i] > 0 && ints[i]*2 > nonempty[i]:
			types[h] = db.IntCol
		case nonempty[i] > 0 && floats[i]*2 > nonempty[i]:
			types[h] = db.FloatCol
		default:
			types[h] = db.StringCol
		}
	}
	return header, types, nil
}

func parseInts(csv string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(csv, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		v, err := strconv.Atoi(part)
		if err != nil || v < 1 {
			return nil, fmt.Errorf("bad integer list entry %q", part)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty integer list %q", csv)
	}
	return out, nil
}
