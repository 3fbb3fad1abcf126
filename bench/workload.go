package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"sort"
	"strings"
	"time"

	"repro/internal/randrank"
	"repro/internal/ranking"
	"repro/internal/service"
)

// A workload is one open-loop traffic mix against one rankserve process.
// Offered rates are absolute and frozen here, never calibrated at run time:
// a faster server must see the same load as a slower one, so that a gain
// shows as lower latency and CPU rather than as more offered work. The rates
// were chosen at the commit that introduced the benchmark so that the server
// is roughly half busy on the first three workloads and offered about twice
// its capacity on overload-deadline (see README.md).
type workload struct {
	name  string
	procs int // server GOMAXPROCS
	// workers and queueDepth are rankserve's -workers and -queue-depth;
	// 0 keeps the server's default.
	workers, queueDepth int
	rate                float64 // offered requests per second
	limit               time.Duration
	budget              time.Duration // X-Deadline-Ms budget from the due time; 0 = none
	tenants             int
	// catalog draws one tenant's initial catalog; churn (when set) draws the
	// distinct replacement catalogs that PUT requests send.
	catalog func(rng *rand.Rand) []*ranking.PartialRanking
	churn   func(rng *rand.Rand) []*ranking.PartialRanking
	// draw picks one request's operation; a PUT draw carries no body yet.
	draw func(rng *rand.Rand) op
}

var algos = []string{"medrank", "ta", "nra", "ca"}

// chaosDeathRate is the per-access list death probability of resilient
// top-k requests: high enough that degraded answers occur, low enough that a
// query never loses every list (which would be an error, not an answer).
const chaosDeathRate = 0.0005

var workloads = []*workload{
	{
		name: "topk-mixed", procs: 1, rate: 90, limit: 25 * time.Millisecond, tenants: 4,
		catalog: func(rng *rand.Rand) []*ranking.PartialRanking {
			return randrank.CatalogEnsemble(rng, 1000, 16, 6, 1, 0.05).Rankings
		},
		draw: func(rng *rand.Rand) op {
			o := op{kind: opTopK, tenant: rng.Intn(4)}
			o.topk.K = 1 + rng.Intn(10)
			switch u := rng.Intn(100); {
			case u < 30:
				o.topk.Algo = "medrank"
			case u < 55:
				o.topk.Algo = "ta"
			case u < 75:
				o.topk.Algo = "nra"
			case u < 85:
				o.topk.Algo = "ca"
			case u < 95:
				o.topk.Algo = algos[rng.Intn(4)]
				o.topk.Resilient = true
				o.topk.Chaos = &service.ChaosPlan{Seed: int64(rng.Intn(4)), DeathRate: chaosDeathRate}
			default:
				o.topk.Algo = algos[rng.Intn(4)]
				o.topk.Trim = 2
			}
			return o
		},
	},
	{
		name: "agg-cached", procs: 2, rate: 120, limit: 50 * time.Millisecond, tenants: 4,
		catalog: func(rng *rand.Rand) []*ranking.PartialRanking {
			rs, _ := randrank.MallowsPartialEnsemble(rng, 300, 24, 0.1, 10)
			return rs
		},
		draw: func(rng *rand.Rand) op {
			o := op{kind: opAgg, tenant: rng.Intn(4)}
			o.agg.Metric = metricNames[rng.Intn(4)]
			kem := rng.Intn(2) == 0
			o.agg.Kemenize = &kem
			if rng.Intn(4) == 0 {
				o.agg.Robust = &service.RobustClause{Mode: robustModes[rng.Intn(2)], Trim: 2}
			}
			return o
		},
	},
	{
		name: "ingest-churn", procs: 1, rate: 130, limit: 100 * time.Millisecond, tenants: 4,
		catalog: churnCatalog,
		churn:   churnCatalog,
		draw: func(rng *rand.Rand) op {
			t := rng.Intn(4)
			switch u := rng.Intn(100); {
			case u < 35:
				return op{kind: opPut, tenant: t}
			case u < 70:
				o := op{kind: opAgg, tenant: t}
				o.agg.Metric = metricNames[rng.Intn(4)]
				kem := false
				o.agg.Kemenize = &kem
				return o
			default:
				o := op{kind: opTopK, tenant: t}
				o.topk.Algo = algos[rng.Intn(4)]
				o.topk.K = 1 + rng.Intn(10)
				return o
			}
		},
	},
	{
		name: "overload-deadline", procs: 1, workers: 1, queueDepth: 1,
		rate: 130, limit: 150 * time.Millisecond, budget: 150 * time.Millisecond, tenants: 1,
		catalog: func(rng *rand.Rand) []*ranking.PartialRanking {
			return randrank.CatalogEnsemble(rng, 2000, 32, 8, 1, 0.05).Rankings
		},
		draw: func(rng *rand.Rand) op {
			o := op{kind: opTopK}
			o.topk.Algo = "medrank"
			if rng.Intn(100) < 70 {
				o.topk.Algo = "ta"
			}
			o.topk.K = 1 + rng.Intn(10)
			return o
		},
	},
}

func churnCatalog(rng *rand.Rand) []*ranking.PartialRanking {
	rs, _ := randrank.MallowsPartialEnsemble(rng, 300, 16, 0.1, 10)
	return rs
}

var (
	metricNames = []string{"kprof", "fprof", "khaus", "fhaus"}
	robustModes = []string{"trimmed-borda", "weighted-median"}
)

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s, or all)", name, strings.Join(names, ", "))
}

type opKind int

const (
	opTopK opKind = iota
	opAgg
	opPut
)

func (k opKind) String() string { return [...]string{"topk", "agg", "put"}[k] }

// op is one drawn operation, before it is placed on the schedule.
type op struct {
	kind   opKind
	tenant int
	topk   service.TopKRequest
	agg    service.AggregateRequest
}

// request is one scheduled HTTP request. Every field is a pure function of
// the seed and the window length.
type request struct {
	op
	due     time.Duration // offset from the start of its phase
	method  string
	path    string
	body    []byte
	version int    // PUT: the catalog version it installs
	key     string // identical reads share a key (body and path)
}

// dataset is everything a run sends: the seed catalogs, the warm-up and
// window schedules, and every catalog version a PUT installs.
type dataset struct {
	w *workload
	// versions holds, per tenant, the text of every catalog it holds during
	// the run: the seed catalog first, then each PUT body in schedule order.
	versions [][][]byte
	warm     []request // setup warm set: distinct reads, sent closed-loop
	lead     []request // open-loop lead-in before the window, not measured
	window   []request
}

// Seeded random streams, one per use, so that changing one input (say the
// window length) leaves the others unchanged.
const (
	streamCatalog = iota + 1
	streamLead
	streamWindow
	streamChurn
)

func stream(seed int64, s int) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + int64(s)))
}

// newDataset generates a run's inputs from the seed. window is the measured
// length and lead the unmeasured open-loop lead-in before it.
func newDataset(w *workload, seed int64, lead, window time.Duration) (*dataset, error) {
	d := &dataset{w: w, versions: make([][][]byte, w.tenants)}
	crng := stream(seed, streamCatalog)
	for t := 0; t < w.tenants; t++ {
		text, err := catalogText(w.catalog(crng))
		if err != nil {
			return nil, err
		}
		d.versions[t] = [][]byte{text}
	}
	churn := stream(seed, streamChurn)
	var err error
	if d.lead, err = d.schedule(stream(seed, streamLead), lead, churn); err != nil {
		return nil, err
	}
	if d.window, err = d.schedule(stream(seed, streamWindow), window, churn); err != nil {
		return nil, err
	}
	d.warm = warmSet(append(append([]request(nil), d.lead...), d.window...))
	return d, nil
}

// schedule places round(rate·length) arrivals uniformly at random in
// [0, length) and sorts them: a Poisson process conditioned on its count.
// Fixing the count keeps the offered work identical across seeds, so the
// spread between runs reflects the server, not the arrival count.
func (d *dataset) schedule(rng *rand.Rand, length time.Duration, churn *rand.Rand) ([]request, error) {
	n := int(d.w.rate*length.Seconds() + 0.5)
	dues := make([]time.Duration, n)
	for i := range dues {
		dues[i] = time.Duration(rng.Int63n(int64(length)))
	}
	sort.Slice(dues, func(a, b int) bool { return dues[a] < dues[b] })
	out := make([]request, n)
	for i := range out {
		r, err := d.request(d.w.draw(rng), churn)
		if err != nil {
			return nil, err
		}
		r.due = dues[i]
		out[i] = r
	}
	return out, nil
}

func (d *dataset) request(o op, churn *rand.Rand) (request, error) {
	base := fmt.Sprintf("/v1/tenants/t%d/catalogs/main", o.tenant)
	r := request{op: o}
	var err error
	switch o.kind {
	case opTopK:
		r.method, r.path = http.MethodPost, base+"/topk"
		r.body, err = json.Marshal(o.topk)
	case opAgg:
		r.method, r.path = http.MethodPost, base+"/aggregate"
		r.body, err = json.Marshal(o.agg)
	case opPut:
		r.method, r.path = http.MethodPut, base
		text, terr := catalogText(d.w.churn(churn))
		if terr != nil {
			return r, terr
		}
		r.body = text
		r.version = len(d.versions[o.tenant])
		d.versions[o.tenant] = append(d.versions[o.tenant], text)
	}
	r.key = r.path + " " + string(r.body)
	if o.kind == opPut {
		r.key = fmt.Sprintf("%s v%d", r.path, r.version)
	}
	return r, err
}

// putRequest replaces tenant t's catalog with the given version.
func (d *dataset) putRequest(t, version int) request {
	return request{op: op{kind: opPut, tenant: t}, method: http.MethodPut,
		path: fmt.Sprintf("/v1/tenants/t%d/catalogs/main", t), body: d.versions[t][version], version: version}
}

// warmSet lists the distinct reads of the schedules, with k raised to 10 and
// chaos seeds dropped: one pass fills the distance cache, the stale-answer
// store and the engines' code paths before anything is measured.
func warmSet(sched []request) []request {
	seen := map[string]bool{}
	var out []request
	for _, r := range sched {
		if r.kind == opPut {
			continue
		}
		if r.kind == opTopK {
			r.topk.K = 10
			if r.topk.Chaos != nil {
				c := *r.topk.Chaos
				c.Seed = 0
				r.topk.Chaos = &c
			}
			r.body, _ = json.Marshal(r.topk)
			r.key = r.path + " " + string(r.body)
		}
		if !seen[r.key] {
			seen[r.key] = true
			out = append(out, r)
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a].key < out[b].key })
	return out
}

// catalogText renders rankings in the text codec with element names e0, e1, ...
func catalogText(rs []*ranking.PartialRanking) ([]byte, error) {
	names := make([]string, rs[0].N())
	for i := range names {
		names[i] = fmt.Sprintf("e%d", i)
	}
	dom, err := ranking.DomainOf(names...)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := ranking.WriteLines(&buf, dom, rs); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// fingerprints returns the SHA-256 of every tenant's seed catalog and of the
// window schedule (due times, methods, paths, bodies), so that two runs can
// show they sent the same inputs.
func (d *dataset) fingerprints() (catalogs []string, schedule string) {
	for _, vs := range d.versions {
		sum := sha256.Sum256(vs[0])
		catalogs = append(catalogs, hex.EncodeToString(sum[:8]))
	}
	h := sha256.New()
	for _, r := range d.window {
		fmt.Fprintf(h, "%d %s %s %d\n", r.due, r.method, r.path, len(r.body))
		h.Write(r.body)
	}
	return catalogs, hex.EncodeToString(h.Sum(nil)[:8])
}
