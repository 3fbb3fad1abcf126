package main

import (
	"fmt"
	"io"
	"sort"
	"time"

	"repro/internal/service"
)

// metricValue is one reported number with its unit.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object the harness prints as its last line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricSet map[string]metricValue

func (m metricSet) set(name string, v float64, unit string) { m[name] = metricValue{v, unit} }

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// runData is everything measured in one run, for the metric computations.
type runData struct {
	w        *workload
	recs     []record // warm set, lead-in, window, in that order
	verdicts []verdict
	window   []int // indices of window records
	setups   []time.Duration
	before   serverCounters
	after    serverCounters
	hwmKB    int64
	elapsed  time.Duration // window start to its last answer
	traceNs  int64         // time senders spent recording spans
}

func (rd *runData) windowOK() []int {
	var out []int
	for _, i := range rd.window {
		if rd.verdicts[i].outcome == outOK {
			out = append(out, i)
		}
	}
	return out
}

func (rd *runData) latenciesMs(idx []int, keep func(i int) bool) []float64 {
	var out []float64
	for _, i := range idx {
		if keep == nil || keep(i) {
			out = append(out, ms(rd.recs[i].latency()))
		}
	}
	return out
}

// endToEnd computes the metrics a user of the service sees, all from the
// measured window with tracing off: latency of successful requests from
// their due time, goodput within the workload's latency limit, server CPU
// per successful request, peak server memory, and set-up time. No tail
// percentile is gated: on a 2-vCPU VM, p90 spread up to 27% and p99 up to
// 42% (quartile distance over median) across ten seeds, more than the
// largest regression bound a metric may carry; both are kept as ungated
// per-layer metrics.
func (rd *runData) endToEnd() metricSet {
	m := metricSet{}
	ok := rd.windowOK()
	lat := rd.latenciesMs(ok, nil)
	m.set("p50_ms", percentile(lat, 0.50), "ms")
	good := 0
	for _, i := range ok {
		if rd.recs[i].latency() <= rd.w.limit {
			good++
		}
	}
	m.set("goodput_rps", float64(good)/rd.elapsed.Seconds(), "1/s")
	cpuMs := float64(rd.after.ticks-rd.before.ticks) * 1000 / clockTicksPerSec
	m.set("cpu_ms_per_req", cpuMs/float64(max(len(ok), 1)), "ms")
	m.set("rss_peak_mb", float64(rd.hwmKB)/1024, "MB")
	setups := make([]float64, len(rd.setups))
	for i, d := range rd.setups {
		setups[i] = d.Seconds()
	}
	m.set("setup_s", median(setups), "s")
	return m
}

// windowLayers computes the per-layer metrics observable from the traced
// run's window: what the server reported in its answers and counters, and
// how the generator kept its schedule.
func (rd *runData) windowLayers() metricSet {
	m := metricSet{}
	ok := rd.windowOK()
	var elapsed, outside []float64
	ladder := map[string]int{}
	topks, resilient, degraded := 0, 0, 0
	for _, i := range ok {
		v, r := rd.verdicts[i], &rd.recs[i]
		if r.req.kind == opPut {
			continue
		}
		elapsed = append(elapsed, float64(v.elapsedNs)/1e6)
		outside = append(outside, ms(r.done-r.send)-float64(v.elapsedNs)/1e6)
		if r.req.kind == opTopK {
			topks++
			ladder[v.ladder]++
		}
		if v.resilient {
			resilient++
			if v.degraded {
				degraded++
			}
		}
	}
	m.set("service.elapsed_p50_ms", percentile(elapsed, 0.5), "ms")
	m.set("service.elapsed_p99_ms", percentile(elapsed, 0.99), "ms")
	m.set("service.outside_engine_p99_ms", percentile(outside, 0.99), "ms")
	for _, l := range []string{"exact", "approx", "stale"} {
		m.set("ladder."+l+"_frac", frac(ladder[l], topks), "1")
	}
	m.set("resilient.degraded_frac", frac(degraded, resilient), "1")
	shed, expired := 0, 0
	var lag, wait []float64
	for _, i := range rd.window {
		switch rd.verdicts[i].outcome {
		case outShed:
			shed++
		case outExpired:
			expired++
		}
		r := &rd.recs[i]
		lag = append(lag, ms(r.lag))
		wait = append(wait, ms(r.send-r.due))
	}
	m.set("admission.shed_frac", frac(shed, len(rd.window)), "1")
	m.set("client.expired_frac", frac(expired, len(rd.window)), "1")
	lat := rd.latenciesMs(ok, nil)
	m.set("client.latency_p90_ms", percentile(lat, 0.90), "ms")
	m.set("client.latency_p99_ms", percentile(lat, 0.99), "ms")
	m.set("client.sched_lag_p99_ms", percentile(lag, 0.99), "ms")
	m.set("client.conn_wait_p99_ms", percentile(wait, 0.99), "ms")
	hits, misses := rd.after.hits-rd.before.hits, rd.after.misses-rd.before.misses
	m.set("cache.hit_rate", frac(int(hits), int(hits+misses)), "1")
	aggs := 0
	for _, i := range ok {
		if rd.recs[i].req.kind == opAgg {
			aggs++
		}
	}
	m.set("cache.misses_per_agg", frac(int(misses), aggs), "count")
	n := float64(max(len(ok), 1))
	m.set("server.alloc_kb_per_req", float64(rd.after.totalAlloc-rd.before.totalAlloc)/1024/n, "KiB")
	m.set("server.gc_per_kreq", float64(rd.after.numGC-rd.before.numGC)*1000/n, "count")
	overhead := 0.0
	if p50 := percentile(lat, 0.5); p50 > 0 {
		overhead = float64(rd.traceNs) / 1e6 / float64(max(len(rd.window), 1)) / p50
	}
	m.set("trace.overhead_frac", overhead, "1")
	return m
}

func frac(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// replayLayers computes the per-layer metrics of the traced replay: each
// layer's mean self time and allocations per call, the engines' FLN access
// counts per query, and how much of the server's own elapsed time the
// replayed layers account for.
func replayLayers(tr *tracer, pairs []replayPair, rd *runData) metricSet {
	m := metricSet{}
	ls := tr.layers()
	get := func(name string) layerStat {
		if s := ls[name]; s != nil {
			return *s
		}
		return layerStat{}
	}
	for _, a := range algos {
		cur, src := get("topk."+a+".cursor"), get("topk."+a+".source")
		m.set("topk."+a+".cursor_ms", cur.meanNs()/1e6, "ms")
		m.set("topk."+a+".source_ms", src.meanNs()/1e6, "ms")
		m.set("topk."+a+".allocs_per_query", cur.mean(cur.selfAllocs), "count")
		m.set("topk."+a+".sequential_per_query", cur.mean(cur.attrs["sequential"]), "count")
		if costRatio(a) > 0 {
			// MEDRANK and NRA make no random accesses; their cost is the
			// sequential count.
			m.set("topk."+a+".random_per_query", cur.mean(cur.attrs["random"]), "count")
			m.set("topk."+a+".middleware_cost_per_query", cur.mean(cur.attrs["middleware_cost"]), "count")
		}
	}
	for _, k := range metricNames {
		m.set("metrics."+k+"_us_per_pair", get("metrics."+k).meanNs()/1e3, "us")
	}
	cg := get("cache.get")
	m.set("cache.get_ns", float64(cg.selfNs)/float64(max(cg.attrs["gets"], 1)), "ns")
	for _, p := range []string{"median_scores", "median_topk", "score_median", "best_of_inputs", "kemenize"} {
		m.set("aggregate."+p+"_ms", get("aggregate."+p).meanNs()/1e6, "ms")
	}
	m.set("robust.trim_ms", get("robust.trim").meanNs()/1e6, "ms")
	m.set("robust.aggregate_ms", get("robust.aggregate").meanNs()/1e6, "ms")
	parse := get("ranking.parse")
	m.set("ranking.parse_ms", parse.meanNs()/1e6, "ms")
	m.set("ingest.bytes_per_write", parse.mean(parse.attrs["bytes"]), "bytes")
	for _, k := range []string{"topk", "agg"} {
		m.set("decode."+k+"_us", get("decode."+k).meanNs()/1e3, "us")
		m.set("render."+k+"_us", get("render."+k).meanNs()/1e3, "us")
	}
	for _, k := range []string{"topk", "agg", "put"} {
		m.set("service.handler_ms."+k, get("service.handler."+k).meanNs()/1e6, "ms")
	}

	// The rim is what the handler does beyond the layers: routing, body
	// limits, admission, instrumentation and response writing.
	childNs := map[int]int64{}
	decodeNs := map[int]int64{}
	for _, s := range tr.spans {
		if s.Parent != 0 {
			childNs[s.Parent] += s.dur()
			if s.Name == "decode.topk" || s.Name == "decode.agg" {
				decodeNs[s.Parent] += s.dur()
			}
		}
	}
	var rim []float64
	for _, p := range pairs {
		rim = append(rim, float64(tr.spans[p.handler-1].dur()-childNs[p.layers])/1e6)
	}
	m.set("service.rim_ms", mean(rim), "ms")

	// Reconciliation: the replayed engine-side layers of each distinct query
	// over the median elapsed_ns the server reported for that query. Only
	// exact answers count: the replay computes exact answers, and a stale or
	// approximate rung does a different amount of work.
	serverNs := map[string][]float64{}
	for _, i := range rd.windowOK() {
		if l := rd.verdicts[i].ladder; rd.recs[i].req.kind != opPut && (l == "" || l == service.LadderExact) {
			serverNs[rd.recs[i].req.key] = append(serverNs[rd.recs[i].req.key], float64(rd.verdicts[i].elapsedNs))
		}
	}
	var ratios []float64
	for _, p := range pairs {
		if xs := serverNs[p.key]; len(xs) > 0 {
			ratios = append(ratios, float64(childNs[p.layers]-decodeNs[p.layers])/median(xs))
		}
	}
	m.set("layers.explained_frac", median(ratios), "1")
	return m
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// printRun writes the human-readable report of one run.
func printRun(out io.Writer, rd *runData, metrics metricSet) {
	fmt.Fprintf(out, "workload %s: %d window requests at %.0f/s offered, server GOMAXPROCS=%d\n",
		rd.w.name, len(rd.window), rd.w.rate, rd.w.procs)
	counts := map[outcome]int{}
	for _, i := range rd.window {
		counts[rd.verdicts[i].outcome]++
	}
	fmt.Fprintf(out, "  outcomes: ok %d, shed %d, expired %d, failed %d\n",
		counts[outOK], counts[outShed], counts[outExpired], counts[outFailed])
	busy := float64(rd.after.ticks-rd.before.ticks) / clockTicksPerSec / rd.elapsed.Seconds()
	fmt.Fprintf(out, "  server CPU busy: %.2f cores over %.2fs; set-ups %v\n", busy, rd.elapsed.Seconds(), rd.setups)
	ok := rd.windowOK()
	for _, k := range []opKind{opTopK, opAgg, opPut} {
		lat := rd.latenciesMs(ok, func(i int) bool { return rd.recs[i].req.kind == k })
		if len(lat) > 0 {
			name := map[opKind]string{opTopK: "topk", opAgg: "agg", opPut: "write"}[k]
			fmt.Fprintf(out, "  %-5s n=%-5d p50 %.3f ms  p99 %.3f ms\n", name, len(lat), percentile(lat, 0.5), percentile(lat, 0.99))
		}
	}
	names := make([]string, 0, len(metrics))
	for n := range metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		v := metrics[n]
		fmt.Fprintf(out, "  %-36s %14.6f %s\n", n, v.Value, v.Unit)
	}
	for i, v := range rd.verdicts {
		if v.outcome == outFailed {
			fmt.Fprintf(out, "  first failure: %s %s: %s\n", rd.recs[i].req.method, rd.recs[i].req.path, v.reason)
			break
		}
	}
}
