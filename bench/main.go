// Command bench is the repository's benchmark: it builds rankserve from the
// checkout, starts it, drives one open-loop workload against it over HTTP at
// a fixed offered rate, checks every answer, and prints every metric by name
// and unit, ending with one JSON line. See README.md.
//
// Usage (from the checkout root):
//
//	bash bench/run.sh [--workload W|all] [--seed N] [--seconds S] [--trace 0|1]
//	                  (S defaults to run_seconds in BENCHMARK.json)
//	                  [--repeat N] [--out results.json] [--set NAME]
//	bash bench/run.sh compare A.json [B.json]
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/telemetry"
)

func main() {
	code, err := run(os.Args[1:], os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		if code == 0 {
			code = 1
		}
	}
	os.Exit(code)
}

// config is one invocation's settings.
type config struct {
	seed     int64
	window   time.Duration
	lead     time.Duration // unmeasured open-loop lead-in before the window
	setups   int           // server set-ups per run; setup_s is their median
	trace    bool
	traceOut string
}

func run(args []string, out io.Writer) (int, error) {
	// The generator is one process on one thread, so that it takes no more
	// than one core from the server; senders are goroutines on that thread.
	runtime.GOMAXPROCS(1)
	root, err := findRoot()
	if err != nil {
		return 2, err
	}
	if len(args) > 0 && args[0] == "compare" {
		n, err := runCompare(args[1:], filepath.Join(root, "BENCHMARK.json"), out)
		if err == nil && n > 0 {
			return 3, nil
		}
		return 0, err
	}
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	wname := fs.String("workload", "all", "workload name, or all")
	seed := fs.Int64("seed", 1, "seed for catalogs and schedules")
	seconds := fs.Int("seconds", 0, "measured window length in seconds (default: run_seconds in BENCHMARK.json)")
	trace := fs.Int("trace", 0, "1 = traced run: replay the window layer by layer and print per-layer metrics")
	repeat := fs.Int("repeat", 1, "runs per workload, with seeds seed, seed+1, ...")
	outPath := fs.String("out", "", "append the runs to this results file")
	set := fs.String("set", "runs", "name of the set -out appends to")
	if err := fs.Parse(args); err != nil {
		return 2, err
	}
	if *seconds == 0 {
		spec, err := loadSpec(filepath.Join(root, "BENCHMARK.json"))
		if err != nil {
			return 2, err
		}
		*seconds = spec.RunSeconds
	}
	if *seconds < 1 || *repeat < 1 || (*trace != 0 && *trace != 1) || fs.NArg() > 0 {
		return 2, fmt.Errorf("bad arguments (see -h)")
	}
	ws := workloads
	if *wname != "all" {
		w, err := workloadByName(*wname)
		if err != nil {
			return 2, err
		}
		ws = []*workload{w}
	}
	cfg := config{window: time.Duration(*seconds) * time.Second, lead: 2 * time.Second,
		setups: 9, trace: *trace == 1, traceOut: filepath.Join(root, ".bench_build", "trace.json")}

	bin := filepath.Join(root, ".bench_build", "bin", "rankserve")
	if err := buildServer(root, bin); err != nil {
		return 1, err
	}
	start := func(w *workload, c *http.Client) (*target, error) { return startServer(bin, w, c) }

	var runs []runRecord
	allCorrect := true
	for i := 0; i < *repeat; i++ {
		for _, w := range ws {
			cfg.seed = *seed + int64(i)
			o, err := runWorkload(w, cfg, start, out)
			if err != nil {
				return 1, fmt.Errorf("%s: %w", w.name, err)
			}
			res := o.result()
			allCorrect = allCorrect && res.Correct
			runs = append(runs, runRecord{Workload: w.name, Seed: cfg.seed, Seconds: *seconds, Trace: cfg.trace, Valid: o.valid, result: res})
			line, err := json.Marshal(res)
			if err != nil {
				return 1, err
			}
			fmt.Fprintln(out, string(line))
		}
	}
	if *repeat > 1 {
		summarize(os.Stderr, runs)
	}
	if *outPath != "" {
		if err := appendResults(*outPath, *set, runs); err != nil {
			return 1, err
		}
	}
	if !allCorrect {
		return 4, errors.New("some answers were wrong or requests failed; see the report above")
	}
	return 0, nil
}

// findRoot locates the checkout root: the working directory or its parent,
// whichever holds the rankserve sources next to BENCHMARK.json.
func findRoot() (string, error) {
	wd, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for _, dir := range []string{wd, filepath.Dir(wd)} {
		if _, err := os.Stat(filepath.Join(dir, "cmd", "rankserve", "main.go")); err == nil {
			return dir, nil
		}
	}
	return "", fmt.Errorf("no checkout with cmd/rankserve at %s or its parent", wd)
}

// starter starts the server under test for a workload.
type starter func(w *workload, c *http.Client) (*target, error)

// runOutput is one finished run.
type runOutput struct {
	rd     *runData
	d      *dataset
	e2e    metricSet // the end-to-end metrics, always measured
	layers metricSet // the per-layer metrics, traced runs only
	valid  bool      // the generator kept its schedule
}

// result is the run's JSON line: the end-to-end metrics, or with tracing
// the per-layer ones.
func (o *runOutput) result() result {
	res := result{Correct: true, Attempted: len(o.rd.recs), Metrics: o.e2e}
	if o.layers != nil {
		res.Metrics = o.layers
	}
	for _, v := range o.rd.verdicts {
		if v.outcome == outFailed {
			res.Failed++
			res.Correct = false
		}
	}
	return res
}

// runWorkload performs one run: set-ups, lead-in, measured window, answer
// checks, and with tracing the replay. It prints the human report to out.
func runWorkload(w *workload, cfg config, start starter, out io.Writer) (*runOutput, error) {
	epoch := time.Now()
	d, err := newDataset(w, cfg.seed, cfg.lead, cfg.window)
	if err != nil {
		return nil, err
	}
	cats, sched := d.fingerprints()
	fmt.Fprintf(out, "workload %s seed %d: schedule %s, catalogs %v\n", w.name, cfg.seed, sched, cats)

	client := newClient()
	defer client.CloseIdleConnections()
	var tr *tracer
	if cfg.trace {
		tr = newTracer(epoch)
	}
	gen := &generator{client: client, epoch: epoch, tr: tr}
	rd := &runData{w: w}

	// Set up several times and keep the last server: setup_s is the median,
	// which a single slow process start cannot move. A set-up ends when every
	// catalog is stored; the warm set then runs once, on the kept server.
	seeds := make([]request, len(d.versions))
	for t := range seeds {
		seeds[t] = d.putRequest(t, 0)
	}
	var tgt *target
	for i := 0; i < cfg.setups; i++ {
		if tgt != nil {
			if err := tgt.stop(); err != nil {
				return nil, err
			}
			client.CloseIdleConnections()
		}
		t0 := time.Now()
		if tgt, err = start(w, client); err != nil {
			return nil, err
		}
		gen.base = tgt.base
		if _, err = sendAll(gen, seeds, "seeding"); err != nil {
			tgt.stop() //nolint:errcheck // already failing
			return nil, err
		}
		rd.setups = append(rd.setups, time.Since(t0))
	}
	warm, err := sendAll(gen, d.warm, "warming")
	if err != nil {
		tgt.stop() //nolint:errcheck // already failing
		return nil, err
	}
	stopped := false
	defer func() {
		if !stopped {
			tgt.stop() //nolint:errcheck // error path
		}
	}()

	lead := gen.openLoop(d.lead, phaseLead, w.budget, len(warm))
	if rd.before, err = readCounters(client, tgt); err != nil {
		return nil, err
	}
	window := gen.openLoop(d.window, phaseWindow, w.budget, len(warm)+len(lead))
	if rd.after, err = readCounters(client, tgt); err != nil {
		return nil, err
	}
	if rd.hwmKB, err = peakRSSKB(tgt.pid); err != nil {
		return nil, err
	}
	stopped = true
	if err := tgt.stop(); err != nil {
		return nil, err
	}

	rd.recs = append(append(warm, lead...), window...)
	first := len(warm) + len(lead)
	var last time.Duration
	for i := range window {
		rd.window = append(rd.window, first+i)
		last = max(last, window[i].done)
	}
	if len(window) > 0 {
		rd.elapsed = last - (window[0].due - window[0].req.due)
	}
	rd.traceNs = gen.traceNs.Load()
	rd.verdicts = newOracle(d, epoch).check(rd.recs)

	o := &runOutput{rd: rd, d: d, e2e: rd.endToEnd(), valid: true}
	wl := rd.windowLayers()
	if l := wl["client.sched_lag_p99_ms"].Value; l > 2 {
		o.valid = false
		fmt.Fprintf(out, "  WARNING: generator ran late (sched lag p99 %.2f ms > 2 ms); this run is invalid\n", l)
	}
	if cfg.trace {
		for i, v := range rd.verdicts {
			tr.add(span{Name: "client.verify", Req: i, Start: v.verifyStart, End: v.verifyEnd})
		}
		// The server runs with gated telemetry on; so does its replay.
		telemetry.Enable()
		pairs, err := replay(d, tr, window, first)
		if err != nil {
			return nil, err
		}
		o.layers = wl
		for k, v := range replayLayers(tr, pairs, rd) {
			o.layers[k] = v
		}
		if ef := o.layers["layers.explained_frac"].Value; (w.name == "topk-mixed" || w.name == "agg-cached") && (ef < 0.75 || ef > 1.25) {
			fmt.Fprintf(out, "  WARNING: replayed layers explain %.2f of the server's elapsed time (outside [0.75, 1.25])\n", ef)
		}
		if err := tr.write(cfg.traceOut); err != nil {
			return nil, err
		}
		fmt.Fprintf(out, "  trace: %d spans written to %s\n", len(tr.spans), cfg.traceOut)
	}
	printRun(out, rd, o.result().Metrics)
	return o, nil
}

// sendAll sends the requests closed-loop and requires a 200 for each; the
// oracle checks the answers later.
func sendAll(gen *generator, reqs []request, what string) ([]record, error) {
	recs := gen.closedLoop(reqs, phaseWarm)
	for _, r := range recs {
		if r.err != nil || r.status != http.StatusOK {
			return nil, fmt.Errorf("%s %s: status %d, %v: %.200s", what, r.req.path, r.status, r.err, r.body)
		}
	}
	return recs, nil
}
