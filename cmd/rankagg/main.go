// Command rankagg compares and aggregates rankings with ties from the
// command line, using the text codec of the rankties library: one ranking
// per line, buckets best-first separated by "|", elements separated by
// whitespace. Lines starting with "#" are comments.
//
// Usage:
//
//	rankagg dist  [-file F]            distances between the first two rankings
//	rankagg agg   [-file F] [-method M] aggregate all rankings (median | dp | borda | mc4 | footrule-opt)
//	              [-robust M] [-trim K]  robust aggregation (trimmed-borda | weighted-median | minmax),
//	                                     dropping the K least-reliable rankings; weights go to stderr
//	rankagg topk  [-file F] -k K [-timeout D]  streaming median top-k with access stats
//	rankagg gen   -n N -m M [...]       generate a random ensemble
//
// Rankings are read from the file given by -file, or stdin by default.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"time"

	"repro/internal/aggregate"
	"repro/internal/core"
	"repro/internal/guard"
	"repro/internal/metrics"
	"repro/internal/randrank"
	"repro/internal/ranking"
	"repro/internal/robust"
	"repro/internal/telemetry"
	"repro/internal/topk"
)

func main() {
	if err := run(os.Args[1:], os.Stdin, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "rankagg:", err)
		os.Exit(1)
	}
}

func run(args []string, stdin io.Reader, stdout io.Writer) error {
	if len(args) == 0 {
		return fmt.Errorf("usage: rankagg <dist|agg|topk|gen|compare|corr|eval> [flags]")
	}
	switch args[0] {
	case "dist":
		return cmdDist(args[1:], stdin, stdout)
	case "agg":
		return cmdAgg(args[1:], stdin, stdout)
	case "topk":
		return cmdTopK(args[1:], stdin, stdout)
	case "gen":
		return cmdGen(args[1:], stdout)
	case "compare":
		return cmdCompare(args[1:], stdin, stdout)
	case "corr":
		return cmdCorr(args[1:], stdin, stdout)
	case "eval":
		return cmdEval(args[1:], stdin, stdout)
	default:
		return fmt.Errorf("unknown subcommand %q", args[0])
	}
}

// inputFlags are the shared flags of every ranking-reading subcommand: the
// input file plus the admission mode. Strict (the default) aborts on the
// first malformed line; -lenient repairs or drops defective lines under
// guard.DefaultLimits and reports each one as a "# defect:" line on stderr.
type inputFlags struct {
	file    *string
	lenient *bool
	repair  *string
}

func addInputFlags(fs *flag.FlagSet) *inputFlags {
	return &inputFlags{
		file:    fs.String("file", "", "rankings file (default stdin)"),
		lenient: fs.Bool("lenient", false, "repair or drop malformed lines instead of aborting; defects become '# defect:' lines on stderr"),
		repair:  fs.String("repair", "drop", "lenient repair policy for lines covering a subset of the domain: drop | complete"),
	}
}

func (in *inputFlags) read(stdin io.Reader) ([]*ranking.PartialRanking, *ranking.Domain, error) {
	policy, err := guard.ParseRepairPolicy(*in.repair)
	if err != nil {
		return nil, nil, err
	}
	r := stdin
	if *in.file != "" {
		f, err := os.Open(*in.file)
		if err != nil {
			return nil, nil, err
		}
		defer f.Close()
		r = f
	}
	rs, dom, report, err := ranking.ParseLinesWith(r, ranking.ParseOptions{
		Limits:  guard.DefaultLimits(),
		Lenient: *in.lenient,
		Repair:  policy,
	})
	if err != nil {
		return nil, nil, err
	}
	for _, d := range report.Defects {
		fmt.Fprintf(os.Stderr, "# defect: %s\n", d)
	}
	if report.Dropped > 0 {
		fmt.Fprintf(os.Stderr, "# defect: and %d more defects not shown\n", report.Dropped)
	}
	return rs, dom, nil
}

func cmdDist(args []string, stdin io.Reader, stdout io.Writer) error {
	fs := flag.NewFlagSet("dist", flag.ContinueOnError)
	in := addInputFlags(fs)
	penalty := fs.Float64("p", 0.5, "penalty parameter for K^(p)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	rs, _, err := in.read(stdin)
	if err != nil {
		return err
	}
	if len(rs) < 2 {
		return fmt.Errorf("dist needs at least two rankings, got %d", len(rs))
	}
	a, b := rs[0], rs[1]
	kp, err := metrics.KProf(a, b)
	if err != nil {
		return err
	}
	fp, _ := metrics.FProf(a, b)
	kh, _ := metrics.KHaus(a, b)
	fh, _ := metrics.FHaus(a, b)
	kpen, _ := metrics.KWithPenalty(a, b, *penalty)
	fmt.Fprintf(stdout, "Kprof  = %g\n", kp)
	fmt.Fprintf(stdout, "Fprof  = %g\n", fp)
	fmt.Fprintf(stdout, "KHaus  = %d\n", kh)
	fmt.Fprintf(stdout, "FHaus  = %d\n", fh)
	fmt.Fprintf(stdout, "K^(%g) = %g\n", *penalty, kpen)
	if g, err := metrics.GoodmanKruskalGamma(a, b); err == nil {
		fmt.Fprintf(stdout, "gamma  = %g\n", g)
	} else {
		fmt.Fprintf(stdout, "gamma  = undefined\n")
	}
	return nil
}

func cmdAgg(args []string, stdin io.Reader, stdout io.Writer) error {
	fs := flag.NewFlagSet("agg", flag.ContinueOnError)
	in := addInputFlags(fs)
	method := fs.String("method", "median", "median | dp | borda | mc4 | footrule-opt")
	robustMode := fs.String("robust", "", "hostile-voter-robust mode (overrides -method): trimmed-borda | weighted-median | minmax")
	trim := fs.Int("trim", 0, "drop this many least-reliable rankings before aggregating (requires -robust)")
	trace := fs.Bool("trace", false, "record telemetry spans and append per-phase timings as comment lines")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *trim != 0 && *robustMode == "" {
		return fmt.Errorf("-trim requires -robust")
	}
	if *trace {
		was := telemetry.Enabled()
		telemetry.Enable()
		telemetry.ResetTrace()
		if !was {
			defer telemetry.Disable()
		}
	}
	rs, dom, err := in.read(stdin)
	if err != nil {
		return err
	}
	if len(rs) == 0 {
		return fmt.Errorf("no rankings to aggregate")
	}
	var out *ranking.PartialRanking
	if *robustMode != "" {
		mode, merr := robust.ParseMode(*robustMode)
		if merr != nil {
			return merr
		}
		res, rerr := robust.Aggregate(rs, robust.Options{Mode: mode, Trim: *trim})
		if rerr != nil {
			return rerr
		}
		// Reliability forensics ride on stderr like parse defects, keeping
		// stdout a clean ranking-plus-comments stream.
		dropped := make(map[int]bool, len(res.Trimmed))
		for _, i := range res.Trimmed {
			dropped[i] = true
		}
		for i, w := range res.Weights {
			status := "kept"
			if dropped[i] {
				status = "trimmed"
			}
			fmt.Fprintf(os.Stderr, "# robust: voter %d weight %.6f (%s)\n", i, w, status)
		}
		fmt.Fprintf(os.Stderr, "# robust: mode=%s trim=%d survivors=%d max=%g sum=%g\n",
			mode, *trim, len(res.Kept), res.MaxDistance, res.SumDistance)
		out = res.Aggregate
	} else {
		switch *method {
		case "median":
			out, err = aggregate.MedianFull(rs)
		case "dp":
			out, err = aggregate.OptimalPartialAggregate(rs)
		case "borda":
			out, err = aggregate.Borda(rs)
		case "mc4":
			out, err = aggregate.MarkovChain(rs, aggregate.MC4, aggregate.MarkovChainOptions{})
		case "footrule-opt":
			out, _, err = aggregate.FootruleOptimalFull(rs)
		default:
			return fmt.Errorf("unknown method %q", *method)
		}
		if err != nil {
			return err
		}
	}
	obj, err := aggregate.SumL1Ranking(out, rs)
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, dom.Render(out))
	fmt.Fprintf(stdout, "# sum Fprof objective = %g\n", obj)
	if *trace {
		for _, ev := range telemetry.TraceEvents() {
			fmt.Fprintf(stdout, "# trace: %-28s %s\n", ev.Name, time.Duration(ev.DurationNs))
		}
	}
	return nil
}

func cmdTopK(args []string, stdin io.Reader, stdout io.Writer) error {
	fs := flag.NewFlagSet("topk", flag.ContinueOnError)
	in := addInputFlags(fs)
	k := fs.Int("k", 1, "number of winners")
	algo := fs.String("algo", "medrank", "engine: medrank, ta, nra, or ca")
	costRatio := fs.Int("cost-ratio", 0, "cR/cS weight for CA scheduling and cost reporting; 0 means the engine default (10 for ta/ca, 0 for medrank/nra)")
	stats := fs.Bool("stats", false, "emit the run's access accounting as JSON instead of text")
	timeout := fs.Duration("timeout", 0, "abort the run after this long; 0 means no deadline")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *costRatio < 0 || *costRatio > topk.MaxCostRatio {
		return fmt.Errorf("-cost-ratio %d out of range [0,%d]", *costRatio, topk.MaxCostRatio)
	}
	if err := topk.CheckAlgo(*algo); err != nil {
		return fmt.Errorf("-algo: %v", err)
	}
	spec := topk.Spec{Algo: *algo, K: *k, Policy: topk.RoundRobin, CostRatio: topk.EffectiveCostRatio(*algo, *costRatio)}
	ratio := spec.CostRatio
	rs, dom, err := in.read(stdin)
	if err != nil {
		return err
	}
	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	res, err := topk.RunRankings(ctx, spec, rs, nil)
	if err != nil {
		return err
	}
	full := topk.FullScanCost(rs)
	if *stats {
		costCert := topk.CertificateLowerBoundCost(rs, res.Winners, 1, ratio)
		winners := make([]string, len(res.Winners))
		for i, w := range res.Winners {
			winners[i] = dom.Name(w)
		}
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(struct {
			Algo                string           `json:"algo"`
			Winners             []string         `json:"winners"`
			Access              topk.AccessStats `json:"access"`
			FullScan            int              `json:"full_scan"`
			Certificate         int              `json:"certificate"`
			CostRatio           int              `json:"cost_ratio"`
			MiddlewareCost      int              `json:"middleware_cost"`
			CostCertificate     int              `json:"cost_certificate"`
			CostOptimalityRatio float64          `json:"cost_optimality_ratio"`
		}{*algo, winners, res.Stats, full.Total, topk.CertificateLowerBound(rs, res.Winners),
			ratio, res.Stats.MiddlewareCost(1, ratio), costCert,
			res.Stats.CostOptimalityRatio(1, ratio, costCert)})
	}
	for i, w := range res.Winners {
		fmt.Fprintf(stdout, "%d. %s (median position %g)\n", i+1, dom.Name(w), float64(res.Medians2[i])/2)
	}
	fmt.Fprintf(stdout, "# probes: %d of %d (%.1f%% of a full scan)\n",
		res.Stats.Total, full.Total, 100*float64(res.Stats.Total)/float64(full.Total))
	return nil
}

func cmdGen(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("gen", flag.ContinueOnError)
	n := fs.Int("n", 10, "domain size")
	m := fs.Int("m", 3, "number of rankings")
	maxBucket := fs.Int("maxbucket", 3, "maximum bucket size")
	theta := fs.Float64("theta", -1, "Mallows dispersion; <0 for independent uniform rankings")
	seed := fs.Int64("seed", 1, "random seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(*seed))
	names := make([]string, *n)
	for i := range names {
		names[i] = fmt.Sprintf("e%d", i)
	}
	dom, err := ranking.DomainOf(names...)
	if err != nil {
		return err
	}
	var rs []*ranking.PartialRanking
	if *theta >= 0 {
		buckets := (*n + *maxBucket - 1) / *maxBucket
		ens, _ := randrank.MallowsPartialEnsemble(rng, *n, *m, *theta, buckets)
		rs = ens
	} else {
		for i := 0; i < *m; i++ {
			rs = append(rs, randrank.Partial(rng, *n, *maxBucket))
		}
	}
	return ranking.WriteLines(stdout, dom, rs)
}

func cmdCompare(args []string, stdin io.Reader, stdout io.Writer) error {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	in := addInputFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	rs, _, err := in.read(stdin)
	if err != nil {
		return err
	}
	results, err := core.CompareAll(rs)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%-16s %10s %10s %10s %10s\n", "method", "sum Kprof", "sum Fprof", "sum KHaus", "sum FHaus")
	for _, r := range results {
		fmt.Fprintf(stdout, "%-16s %10.1f %10.1f %10d %10d\n",
			r.Method, r.Objectives.SumKProf, r.Objectives.SumFProf,
			r.Objectives.SumKHaus, r.Objectives.SumFHaus)
	}
	return nil
}

func cmdCorr(args []string, stdin io.Reader, stdout io.Writer) error {
	fs := flag.NewFlagSet("corr", flag.ContinueOnError)
	in := addInputFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	rs, _, err := in.read(stdin)
	if err != nil {
		return err
	}
	if len(rs) < 2 {
		return fmt.Errorf("corr needs at least two rankings, got %d", len(rs))
	}
	a, b := rs[0], rs[1]
	print := func(name string, v float64, err error) {
		if err != nil {
			fmt.Fprintf(stdout, "%-7s = undefined\n", name)
			return
		}
		fmt.Fprintf(stdout, "%-7s = %.4f\n", name, v)
	}
	ta, err1 := metrics.KendallTauA(a, b)
	print("tau-a", ta, err1)
	tb, err2 := metrics.KendallTauB(a, b)
	print("tau-b", tb, err2)
	rho, err3 := metrics.SpearmanRho(a, b)
	print("rho", rho, err3)
	g, err4 := metrics.GoodmanKruskalGamma(a, b)
	print("gamma", g, err4)
	nk, err5 := metrics.NormalizedKProf(a, b)
	print("Kprof~", nk, err5)
	nf, err6 := metrics.NormalizedFProf(a, b)
	print("Fprof~", nf, err6)
	w, err7 := metrics.KendallW(rs)
	print("W(all)", w, err7)
	return nil
}

// cmdEval treats the first ranking as a candidate aggregation and scores it
// against the remaining rankings under all four metrics.
func cmdEval(args []string, stdin io.Reader, stdout io.Writer) error {
	fs := flag.NewFlagSet("eval", flag.ContinueOnError)
	in := addInputFlags(fs) // first line of the input is the candidate
	if err := fs.Parse(args); err != nil {
		return err
	}
	rs, _, err := in.read(stdin)
	if err != nil {
		return err
	}
	if len(rs) < 2 {
		return fmt.Errorf("eval needs a candidate plus at least one input, got %d lines", len(rs))
	}
	obj, err := core.Evaluate(rs[0], rs[1:])
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "candidate vs %d inputs:\n", len(rs)-1)
	fmt.Fprintf(stdout, "  sum Kprof = %g\n", obj.SumKProf)
	fmt.Fprintf(stdout, "  sum Fprof = %g\n", obj.SumFProf)
	fmt.Fprintf(stdout, "  sum KHaus = %d\n", obj.SumKHaus)
	fmt.Fprintf(stdout, "  sum FHaus = %d\n", obj.SumFHaus)
	return nil
}
