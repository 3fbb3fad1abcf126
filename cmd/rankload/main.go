// Command rankload drives a live rankserve with heavy concurrent traffic and
// writes a latency/throughput artifact (BENCH_PR6.json): env-stamped,
// diffable, one record per endpoint.
//
// The workload is synthetic but shaped like real traffic: each tenant's
// catalog is a Mallows-sampled ensemble (concentrated around a hidden
// center, the way real voter populations agree), and every client goroutine
// draws requests from a weighted mix of top-k queries (MEDRANK and TA),
// resilient top-k with deterministic chaos injection (so degraded-mode
// answers appear at a measurable rate), full aggregations, ranking submits,
// and stats scrapes. Latencies are recorded per endpoint and reported as
// exact p50/p95/p99 over every observation; the final report also scrapes
// the server's /stats for the shared distance cache's hit rate.
//
// With -scrape, rankload additionally polls the server's GET /metrics
// Prometheus exposition during the run (exercising concurrent scrapes) and
// takes one final scrape after the load drains: the
// rankserve_request_latency_ns histogram series are merged across tenant
// labels per endpoint, lint-checked with the repo's own exposition linter,
// and reduced to server-side p50/p95/p99 in a server_metrics section — so
// the artifact carries both the client's view and the server's view of the
// same run.
//
// rankload is closed-loop: each client waits for its answer before sending
// the next request. The repository benchmark (bench/) offers open-loop load.
//
// Usage:
//
//	rankload -addr host:port [-tenants 2] [-clients 32] [-requests 1000]
//	         [-n 40] [-m 12] [-theta 1.0] [-k 5] [-seed 1]
//	         [-mix topk=6,resilient=1,agg=2,submit=1,stats=1]
//	         [-timeout 30s] [-scrape] [-out BENCH_PR6.json]
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/envstamp"
	"repro/internal/randrank"
	"repro/internal/ranking"
	"repro/internal/telemetry"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "rankload:", err)
		os.Exit(1)
	}
}

// opNames is the fixed endpoint mix vocabulary.
var opNames = []string{"topk", "resilient", "agg", "submit", "stats"}

// mixWeights maps op name -> weight. Ops absent from the flag get weight 0.
type mixWeights map[string]int

// parseMix parses "topk=6,agg=2,..." into weights.
func parseMix(s string) (mixWeights, error) {
	w := mixWeights{}
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, val, ok := strings.Cut(part, "=")
		if !ok {
			return nil, fmt.Errorf("bad mix entry %q (want name=weight)", part)
		}
		v, err := strconv.Atoi(val)
		if err != nil || v < 0 {
			return nil, fmt.Errorf("bad mix weight %q", part)
		}
		known := false
		for _, op := range opNames {
			if name == op {
				known = true
				break
			}
		}
		if !known {
			return nil, fmt.Errorf("unknown mix op %q (want one of %s)", name, strings.Join(opNames, ", "))
		}
		w[name] = v
	}
	total := 0
	for _, v := range w {
		total += v
	}
	if total == 0 {
		return nil, fmt.Errorf("mix %q has zero total weight", s)
	}
	return w, nil
}

// pick draws one op from the weights with rng.
func (w mixWeights) pick(rng *rand.Rand) string {
	total := 0
	for _, op := range opNames {
		total += w[op]
	}
	r := rng.Intn(total)
	for _, op := range opNames {
		r -= w[op]
		if r < 0 {
			return op
		}
	}
	return opNames[0] // unreachable
}

// quantileNs returns the exact q-quantile (nearest-rank) of sorted ns.
func quantileNs(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(q*float64(len(sorted))+0.5) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// endpointReport is one endpoint's latency summary in the artifact.
type endpointReport struct {
	Count   int     `json:"count"`
	Errors  int     `json:"errors"`
	MeanNs  float64 `json:"mean_ns"`
	P50Ns   int64   `json:"p50_ns"`
	P95Ns   int64   `json:"p95_ns"`
	P99Ns   int64   `json:"p99_ns"`
	MaxNs   int64   `json:"max_ns"`
	PerSec  float64 `json:"per_sec"`
	Dropped int     `json:"dropped"`
}

// summarize folds raw latencies into an endpointReport.
func summarize(lat []int64, errors, dropped int, elapsed time.Duration) endpointReport {
	r := endpointReport{Count: len(lat), Errors: errors, Dropped: dropped}
	if len(lat) == 0 {
		return r
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	var sum int64
	for _, v := range lat {
		sum += v
	}
	r.MeanNs = float64(sum) / float64(len(lat))
	r.P50Ns = quantileNs(lat, 0.50)
	r.P95Ns = quantileNs(lat, 0.95)
	r.P99Ns = quantileNs(lat, 0.99)
	r.MaxNs = lat[len(lat)-1]
	if elapsed > 0 {
		r.PerSec = float64(len(lat)) / elapsed.Seconds()
	}
	return r
}

// report is the BENCH_PR6.json document.
type report struct {
	envstamp.Stamp
	Addr     string  `json:"addr"`
	Tenants  int     `json:"tenants"`
	Clients  int     `json:"clients"`
	Requests int     `json:"requests"`
	N        int     `json:"n"`
	M        int     `json:"m"`
	Theta    float64 `json:"theta"`
	Seed     int64   `json:"seed"`
	Mix      string  `json:"mix"`

	ElapsedNs        int64                     `json:"elapsed_ns"`
	ThroughputPerSec float64                   `json:"throughput_per_sec"`
	Endpoints        map[string]endpointReport `json:"endpoints"`
	Dropped          int                       `json:"dropped"`
	DegradedQueries  int64                     `json:"degraded_queries"`
	DegradedFraction float64                   `json:"degraded_fraction"`
	Cache            *cacheSummary             `json:"cache,omitempty"`
	ServerMetrics    *serverMetrics            `json:"server_metrics,omitempty"`
}

// serverEndpointMetrics is one endpoint's latency as the *server* measured
// it, reconstructed from the rankserve_request_latency_ns histogram with the
// tenant label summed away. Quantiles are bucket upper bounds (base-2 edges),
// so they are coarser than the client-side exact quantiles but immune to
// client-side queueing.
type serverEndpointMetrics struct {
	Count  float64 `json:"count"`
	MeanNs float64 `json:"mean_ns"`
	P50Ns  float64 `json:"p50_ns"`
	P95Ns  float64 `json:"p95_ns"`
	P99Ns  float64 `json:"p99_ns"`
}

// serverMetrics is the report's server_metrics section: the final /metrics
// scrape reduced to per-endpoint latency summaries, plus how many mid-run
// scrapes succeeded and whether the exposition linted clean.
type serverMetrics struct {
	Scrapes       int                              `json:"scrapes"`
	LintProblems  []string                         `json:"lint_problems,omitempty"`
	RequestsTotal float64                          `json:"requests_total"`
	Endpoints     map[string]serverEndpointMetrics `json:"endpoints"`
}

// cacheSummary is the slice of the server's /stats this artifact keeps.
type cacheSummary struct {
	Hits    int64   `json:"hits"`
	Misses  int64   `json:"misses"`
	HitRate float64 `json:"hit_rate"`
}

// clientStats is one worker's private tally, merged after the run.
type clientStats struct {
	latencies map[string][]int64
	errors    map[string]int
	dropped   map[string]int
	degraded  int64
}

func newClientStats() *clientStats {
	return &clientStats{
		latencies: make(map[string][]int64),
		errors:    make(map[string]int),
		dropped:   make(map[string]int),
	}
}

// loadConfig is the run's fixed parameter set.
type loadConfig struct {
	addr     string
	tenants  int
	clients  int
	requests int
	n, m     int
	k        int
	theta    float64
	seed     int64
	mix      mixWeights
	mixStr   string
	timeout  time.Duration
	scrape   bool
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("rankload", flag.ContinueOnError)
	addr := fs.String("addr", "", "rankserve address (host:port), required")
	tenants := fs.Int("tenants", 2, "number of tenants to load")
	clients := fs.Int("clients", 32, "concurrent client goroutines")
	requests := fs.Int("requests", 1000, "total requests across all clients")
	n := fs.Int("n", 40, "domain size of each catalog")
	m := fs.Int("m", 12, "ranking lists per catalog")
	k := fs.Int("k", 5, "maximum k of top-k queries")
	theta := fs.Float64("theta", 1.0, "Mallows concentration of the sampled ensembles")
	seed := fs.Int64("seed", 1, "random seed")
	mixFlag := fs.String("mix", "topk=6,resilient=1,agg=2,submit=1,stats=1", "weighted request mix")
	timeout := fs.Duration("timeout", 30*time.Second, "per-request timeout")
	scrape := fs.Bool("scrape", false, "poll GET /metrics during the run and embed server-side latency quantiles")
	out := fs.String("out", "", "write the JSON report here (default stdout)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *addr == "" {
		return fmt.Errorf("-addr is required")
	}
	mix, err := parseMix(*mixFlag)
	if err != nil {
		return err
	}
	if *clients < 1 || *requests < 1 || *tenants < 1 || *n < 2 || *m < 1 || *k < 1 {
		return fmt.Errorf("all of -clients, -requests, -tenants, -m, -k must be >= 1 and -n >= 2")
	}
	cfg := loadConfig{
		addr: *addr, tenants: *tenants, clients: *clients, requests: *requests,
		n: *n, m: *m, k: *k, theta: *theta, seed: *seed,
		mix: mix, mixStr: *mixFlag, timeout: *timeout, scrape: *scrape,
	}

	rep, err := drive(cfg)
	if err != nil {
		return err
	}
	w := stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}

// domainNames builds the element vocabulary e000..e(n-1).
func domainNames(n int) []string {
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("e%03d", i)
	}
	return names
}

// renderLines renders an ensemble in the text codec for submission.
func renderLines(dom *ranking.Domain, rankings []*ranking.PartialRanking) (string, error) {
	var buf bytes.Buffer
	if err := ranking.WriteLines(&buf, dom, rankings); err != nil {
		return "", err
	}
	return buf.String(), nil
}

// seedTenants puts one Mallows catalog per tenant (t0..tN-1, catalog "main").
func seedTenants(client *http.Client, base string, cfg loadConfig) error {
	dom, err := ranking.DomainOf(domainNames(cfg.n)...)
	if err != nil {
		return err
	}
	seedRng := rand.New(rand.NewSource(cfg.seed))
	for ti := 0; ti < cfg.tenants; ti++ {
		ens, _ := randrank.MallowsEnsemble(seedRng, cfg.n, cfg.m, cfg.theta)
		body, err := renderLines(dom, ens)
		if err != nil {
			return err
		}
		url := fmt.Sprintf("%s/v1/tenants/t%d/catalogs/main", base, ti)
		req, err := http.NewRequest(http.MethodPut, url, strings.NewReader(body))
		if err != nil {
			return err
		}
		resp, err := client.Do(req)
		if err != nil {
			return fmt.Errorf("seeding tenant t%d: %w", ti, err)
		}
		respBody, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("seeding tenant t%d: %s: %s", ti, resp.Status, respBody)
		}
	}
	return nil
}

// drive seeds the catalogs and runs the load phase.
func drive(cfg loadConfig) (*report, error) {
	client := &http.Client{Timeout: cfg.timeout}
	base := "http://" + cfg.addr
	dom, err := ranking.DomainOf(domainNames(cfg.n)...)
	if err != nil {
		return nil, err
	}
	if err := seedTenants(client, base, cfg); err != nil {
		return nil, err
	}

	// Load phase: clients pull tickets from a shared counter until the
	// request budget is spent. The metrics poller runs alongside them so the
	// exposition path is scraped concurrently with the traffic it measures.
	var poller *metricsPoller
	if cfg.scrape {
		poller = startMetricsPoller(client, base, 500*time.Millisecond)
	}
	var ticket atomic.Int64
	var wg sync.WaitGroup
	stats := make([]*clientStats, cfg.clients)
	start := time.Now()
	for ci := 0; ci < cfg.clients; ci++ {
		stats[ci] = newClientStats()
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			w := &worker{
				cfg:    cfg,
				client: client,
				base:   base,
				dom:    dom,
				rng:    rand.New(rand.NewSource(cfg.seed + 7919*int64(ci+1))),
				stats:  stats[ci],
			}
			for {
				t := ticket.Add(1)
				if t > int64(cfg.requests) {
					return
				}
				w.doOne()
			}
		}(ci)
	}
	wg.Wait()
	elapsed := time.Since(start)

	// Merge per-client tallies.
	merged := newClientStats()
	for _, cs := range stats {
		for op, lat := range cs.latencies {
			merged.latencies[op] = append(merged.latencies[op], lat...)
		}
		for op, v := range cs.errors {
			merged.errors[op] += v
		}
		for op, v := range cs.dropped {
			merged.dropped[op] += v
		}
		merged.degraded += cs.degraded
	}

	rep := &report{
		Stamp:    envstamp.New(),
		Addr:     cfg.addr,
		Tenants:  cfg.tenants,
		Clients:  cfg.clients,
		Requests: cfg.requests,
		N:        cfg.n,
		M:        cfg.m,
		Theta:    cfg.theta,
		Seed:     cfg.seed,
		Mix:      cfg.mixStr,

		ElapsedNs: elapsed.Nanoseconds(),
		Endpoints: make(map[string]endpointReport, len(opNames)),
	}
	total, totalDropped := 0, 0
	var resilientCount int
	for _, op := range opNames {
		er := summarize(merged.latencies[op], merged.errors[op], merged.dropped[op], elapsed)
		if er.Count == 0 && er.Dropped == 0 {
			continue
		}
		rep.Endpoints[op] = er
		total += er.Count
		totalDropped += er.Dropped
		if op == "resilient" {
			resilientCount = er.Count
		}
	}
	rep.Dropped = totalDropped
	rep.DegradedQueries = merged.degraded
	if resilientCount > 0 {
		rep.DegradedFraction = float64(merged.degraded) / float64(resilientCount)
	}
	if elapsed > 0 {
		rep.ThroughputPerSec = float64(total) / elapsed.Seconds()
	}
	rep.Cache = scrapeCache(client, base)
	if poller != nil {
		scrapes := poller.stop()
		rep.ServerMetrics = scrapeServerMetrics(client, base, scrapes)
	}
	return rep, nil
}

// metricsPoller scrapes GET /metrics on a fixed cadence in the background.
// Its job during the run is concurrency, not data: the summary comes from
// one final scrape after the load drains.
type metricsPoller struct {
	done    chan struct{}
	stopped sync.WaitGroup
	scrapes atomic.Int64
}

func startMetricsPoller(client *http.Client, base string, every time.Duration) *metricsPoller {
	p := &metricsPoller{done: make(chan struct{})}
	p.stopped.Add(1)
	go func() {
		defer p.stopped.Done()
		tick := time.NewTicker(every)
		defer tick.Stop()
		for {
			select {
			case <-p.done:
				return
			case <-tick.C:
				resp, err := client.Get(base + "/metrics")
				if err != nil {
					continue
				}
				_, _ = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					p.scrapes.Add(1)
				}
			}
		}
	}()
	return p
}

// stop halts the poller and returns how many mid-run scrapes succeeded.
func (p *metricsPoller) stop() int {
	close(p.done)
	p.stopped.Wait()
	return int(p.scrapes.Load())
}

// scrapeServerMetrics takes the final /metrics scrape and reduces it to the
// report's server_metrics section: lint problems (the repo's own checker, so
// a broken exposition shows up in the artifact), the total request count,
// and per-endpoint latency quantiles with the tenant label summed away.
// Summing is sound because cumulative histogram buckets with identical edges
// add pointwise.
func scrapeServerMetrics(client *http.Client, base string, scrapes int) *serverMetrics {
	resp, err := client.Get(base + "/metrics")
	if err != nil {
		return nil
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		return nil
	}

	sm := &serverMetrics{Scrapes: scrapes, Endpoints: make(map[string]serverEndpointMetrics)}
	for _, pr := range telemetry.LintExposition(bytes.NewReader(body)) {
		sm.LintProblems = append(sm.LintProblems, pr.String())
	}
	exp, _ := telemetry.ParseExposition(bytes.NewReader(body))

	const latency = "rankserve_request_latency_ns"
	buckets := make(map[string]map[float64]float64) // endpoint -> le -> count
	sums := make(map[string]float64)
	counts := make(map[string]float64)
	for _, s := range exp.Samples {
		if s.Name == "rankserve_requests_total" {
			sm.RequestsTotal += s.Value
			continue
		}
		ep := s.Labels["endpoint"]
		switch s.Name {
		case latency + "_bucket":
			le, perr := strconv.ParseFloat(s.Labels["le"], 64)
			if perr != nil {
				continue
			}
			if buckets[ep] == nil {
				buckets[ep] = make(map[float64]float64)
			}
			buckets[ep][le] += s.Value
		case latency + "_sum":
			sums[ep] += s.Value
		case latency + "_count":
			counts[ep] += s.Value
		}
	}
	for ep, b := range buckets {
		em := serverEndpointMetrics{
			Count: counts[ep],
			P50Ns: telemetry.QuantileFromBuckets(b, 0.50),
			P95Ns: telemetry.QuantileFromBuckets(b, 0.95),
			P99Ns: telemetry.QuantileFromBuckets(b, 0.99),
		}
		if em.Count > 0 {
			em.MeanNs = sums[ep] / em.Count
		}
		sm.Endpoints[ep] = em
	}
	return sm
}

// worker is one client goroutine's state.
type worker struct {
	cfg    loadConfig
	client *http.Client
	base   string
	dom    *ranking.Domain
	rng    *rand.Rand
	stats  *clientStats
}

// topkResult is the slice of the server's top-k answer the client inspects.
type topkResult struct {
	Degraded json.RawMessage `json:"degraded"`
}

// doOne issues one request drawn from the mix.
func (w *worker) doOne() {
	op := w.cfg.mix.pick(w.rng)
	tenant := fmt.Sprintf("t%d", w.rng.Intn(w.cfg.tenants))
	catURL := fmt.Sprintf("%s/v1/tenants/%s/catalogs/main", w.base, tenant)

	var req *http.Request
	var err error
	switch op {
	case "topk":
		algo := "medrank"
		if w.rng.Intn(2) == 1 {
			algo = "ta"
		}
		body := fmt.Sprintf(`{"k": %d, "algo": %q}`, 1+w.rng.Intn(w.cfg.k), algo)
		req, err = http.NewRequest(http.MethodPost, catURL+"/topk", strings.NewReader(body))
	case "resilient":
		// A small per-access death rate staggers list deaths, so a
		// measurable fraction of answers is degraded while enough lists
		// survive to answer (uniform death-after kills whole ensembles).
		body := fmt.Sprintf(`{"k": %d, "resilient": true, "chaos": {"seed": %d, "death_rate": 0.05}}`,
			1+w.rng.Intn(w.cfg.k), w.rng.Int63())
		req, err = http.NewRequest(http.MethodPost, catURL+"/topk", strings.NewReader(body))
	case "agg":
		metric := []string{"kprof", "fprof", "khaus", "fhaus"}[w.rng.Intn(4)]
		body := fmt.Sprintf(`{"metric": %q}`, metric)
		req, err = http.NewRequest(http.MethodPost, catURL+"/aggregate", strings.NewReader(body))
	case "submit":
		ens, _ := randrank.MallowsEnsemble(w.rng, w.cfg.n, 2, w.cfg.theta)
		lines, rerr := renderLines(w.dom, ens)
		if rerr != nil {
			w.stats.dropped[op]++
			return
		}
		req, err = http.NewRequest(http.MethodPost, catURL+"/rankings", strings.NewReader(lines))
	case "stats":
		req, err = http.NewRequest(http.MethodGet, w.base+"/stats", nil)
	}
	if err != nil {
		w.stats.dropped[op]++
		return
	}

	start := time.Now()
	resp, err := w.client.Do(req)
	if err != nil {
		w.stats.dropped[op]++
		return
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	w.stats.latencies[op] = append(w.stats.latencies[op], time.Since(start).Nanoseconds())
	if resp.StatusCode != http.StatusOK {
		w.stats.errors[op]++
		return
	}
	if op == "resilient" {
		var tr topkResult
		if json.Unmarshal(body, &tr) == nil && len(tr.Degraded) > 0 && string(tr.Degraded) != "null" {
			w.stats.degraded++
		}
	}
}

// scrapeCache pulls the shared cache's totals from the server's /stats.
func scrapeCache(client *http.Client, base string) *cacheSummary {
	resp, err := client.Get(base + "/stats")
	if err != nil {
		return nil
	}
	defer resp.Body.Close()
	var doc struct {
		Cache struct {
			Hits    int64   `json:"hits"`
			Misses  int64   `json:"misses"`
			HitRate float64 `json:"hit_rate"`
		} `json:"cache"`
	}
	if json.NewDecoder(resp.Body).Decode(&doc) != nil {
		return nil
	}
	return &cacheSummary{Hits: doc.Cache.Hits, Misses: doc.Cache.Misses, HitRate: doc.Cache.HitRate}
}
