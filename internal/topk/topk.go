// Package topk implements the database-friendly top-k aggregation engines of
// Section 6 of the paper and the middleware model of Fagin, Lotem, and Naor:
// MEDRANK (the algorithm of Fagin, Kumar, and Sivakumar, SIGMOD 2003,
// generalized to partial rankings), TA, NRA and CA, all answering the
// lower-median top-k over sorted and random access to the input lists.
//
// Each input partial ranking is a faults.Source: sequential access yields
// elements in non-decreasing position order (a database index scan: one probe
// reveals the next element and its bucket position), random access looks one
// element's position up by identity. Every engine is written once against
// that interface and dispatched by Run; in-memory rankings enter through
// RunRankings. The engines read as few entries as they can while still
// certifying the answer — "as few elements of each partial ranking as are
// necessary to determine the winner(s)". Every access is counted, so
// experiments can compare the access cost against a full scan and against a
// per-instance certificate lower bound.
package topk

import (
	"sort"

	"repro/internal/faults"
	"repro/internal/ranking"
	"repro/internal/telemetry"
)

// Gated telemetry instruments of the top-k engines. Access accounting itself
// is always on (it is the experimental result); these counters only feed the
// process-wide registry snapshot.
var (
	tMedRankRuns   = telemetry.GetCounter("topk.medrank.runs")
	tMedRankProbes = telemetry.GetCounter("topk.medrank.probes")
	tTARuns        = telemetry.GetCounter("topk.ta.runs")
	tTAProbes      = telemetry.GetCounter("topk.ta.probes")
	tTARandom      = telemetry.GetCounter("topk.ta.random")
	tNRARuns       = telemetry.GetCounter("topk.nra.runs")
	tNRAProbes     = telemetry.GetCounter("topk.nra.probes")
	tCARuns        = telemetry.GetCounter("topk.ca.runs")
	tCAProbes      = telemetry.GetCounter("topk.ca.probes")
	tCARandom      = telemetry.GetCounter("topk.ca.random")
	tListDeaths    = telemetry.GetCounter("topk.list_deaths") // lists that died mid-query
)

// Entry is one probed item of a list: an element and its (doubled) bucket
// position in that list. It is the access layer's wire type, aliased so the
// engines here and the sources of internal/faults share one value type.
type Entry = faults.Entry

// AccessStats records the access cost of a run under the middleware cost
// model of Fagin, Lotem, and Naor: sequential accesses (sorted scans),
// bucket-granular I/Os, and random accesses (element lookups by identity).
// It is the snapshot form of the run's telemetry.AccessAccountant, the one
// accounting type every engine — MEDRANK, the TA-style baseline, and the
// database query layer — reports through.
type AccessStats struct {
	// PerList is the number of entries probed from each input list.
	PerList []int
	// Total is the sum of PerList.
	Total int
	// MaxDepth is the deepest probe into any single list.
	MaxDepth int
	// BucketProbes counts bucket-granular I/Os per list; it equals PerList
	// under element-granular policies (each element costs one probe) and is
	// smaller under the *Buckets policies, where one probe returns a whole
	// run of tied entries.
	BucketProbes []int
	// TotalBucketProbes is the sum of BucketProbes.
	TotalBucketProbes int
	// Random is the number of random accesses. MEDRANK makes none; the
	// TA-style baseline pays one per list per newly discovered element.
	Random int
	// RandomPerList is the number of random accesses per list.
	RandomPerList []int
	// Failed counts access attempts that returned an error (always 0 over
	// bare list sources; chaos runs report injected failures here).
	Failed int
	// Retried counts access attempts a retry policy re-issued after a
	// transient failure.
	Retried int
}

// MiddlewareCost returns the FLN middleware cost cs*Total + cr*Random.
func (st AccessStats) MiddlewareCost(cs, cr int) int {
	return cs*st.Total + cr*st.Random
}

// CostOptimalityRatio divides the run's middleware cost at weights (cs, cr)
// by a cost-aware per-instance lower bound — CertificateLowerBoundCost at
// the SAME weights, or the ratio compares incommensurable currencies. A
// ratio near 1 witnesses instance optimality under that cost model
// (Theorems 30-32 of the paper; FLN Theorems 8.5/9.1 for the weighted
// variants). Returns 0 when the bound is not positive (undefined, e.g.
// k = 0).
func (st AccessStats) CostOptimalityRatio(cs, cr, lowerBound int) float64 {
	if lowerBound <= 0 {
		return 0
	}
	return float64(st.MiddlewareCost(cs, cr)) / float64(lowerBound)
}

// statsFromReport converts an accountant snapshot into AccessStats.
func statsFromReport(r telemetry.AccessReport) AccessStats {
	st := AccessStats{
		PerList:           make([]int, len(r.PerList)),
		BucketProbes:      make([]int, len(r.BucketPerList)),
		RandomPerList:     make([]int, len(r.RandomPerList)),
		Total:             int(r.Sequential),
		MaxDepth:          int(r.MaxDepth),
		TotalBucketProbes: int(r.BucketIOs),
		Random:            int(r.Random),
		Failed:            int(r.Failed),
		Retried:           int(r.Retried),
	}
	for i, v := range r.PerList {
		st.PerList[i] = int(v)
	}
	for i, v := range r.BucketPerList {
		st.BucketProbes[i] = int(v)
	}
	for i, v := range r.RandomPerList {
		st.RandomPerList[i] = int(v)
	}
	return st
}

// Policy selects the probe-scheduling strategy.
type Policy int

const (
	// GlobalMerge always probes the list with the smallest frontier
	// position, consuming entries in globally non-decreasing position
	// order. It certifies medians with the fewest probes.
	GlobalMerge Policy = iota
	// RoundRobin probes every list once per round, the schedule described
	// in Section 6 of the paper ("access each of the partial rankings, one
	// element at a time"). It reads at most one round more than necessary
	// per list and matches the database setting of one cheap cursor per
	// index.
	RoundRobin
	// GlobalMergeBuckets is GlobalMerge at bucket granularity: one probe
	// consumes an entire bucket (an index scan over a few-valued attribute
	// returns the whole run of tied rows in one I/O). Element counts still
	// accumulate in AccessStats.PerList; AccessStats.BucketProbes counts
	// the I/Os.
	GlobalMergeBuckets
	// RoundRobinBuckets is RoundRobin at bucket granularity.
	RoundRobinBuckets
)

// Result is the outcome of a top-k run.
type Result struct {
	// TopK is the aggregated top-k list over the full domain, identical to
	// aggregate.MedianTopK's offline answer (lower medians, ties broken by
	// element ID).
	TopK *ranking.PartialRanking
	// Winners lists the k winning elements best-first.
	Winners []int
	// Medians2 holds the doubled lower-median position of each winner.
	Medians2 []int64
	// Stats is the access accounting.
	Stats AccessStats
	// Degraded is non-nil when one or more input lists died mid-query and
	// the answer is the exact aggregation of the surviving lists only. It
	// carries which lists were lost, the accesses wasted on them, and a
	// conservative per-winner quality certificate. Nil on fault-free runs.
	Degraded *Degraded
	// Approx is the FLN (1+θ) early-stop certificate of a TA run (with
	// θ = 0 it certifies an exact answer: ratio 1, no early stop). Nil on
	// the other engines.
	Approx *ApproxCertificate
	// Intervals2 is non-nil on NRA/CA runs: per winner, the certified doubled
	// median interval [best, worst] at stop time. The winner SET is exact even
	// when intervals are open — interval domination certifies set membership
	// without pinning each median; Medians2 then holds the certified upper
	// bounds. The hi endpoint is MaxInt64-1 (the bottom-of-order sentinel)
	// for under-observed winners of degraded runs.
	Intervals2 [][2]int64
	// BufferPeak is the peak number of simultaneously held candidate position
	// buffers on NRA/CA runs — the engine's working-set bound, which interval
	// clearing keeps below n. Zero on other engines.
	BufferPeak int
}

// Degraded annotates a Result whose input lists partially died mid-query: the
// answer is the exact lower-median top-k over the surviving lists only, which
// is schedule-independent and hence deterministic for a fixed fault plan.
type Degraded struct {
	// Lost holds the original indices of the lists that died, ascending.
	Lost []int `json:"lost"`
	// Survivors is the number of lists the answer aggregates.
	Survivors int `json:"survivors"`
	// WastedSequential counts sequential accesses charged to lists that later
	// died — work the degraded answer could not use.
	WastedSequential int `json:"wasted_sequential"`
	// WastedRandom counts random accesses charged to lists that later died.
	WastedRandom int `json:"wasted_random"`
	// Retried is the total number of access attempts re-issued by retry
	// policies during the run.
	Retried int `json:"retried"`
	// MedianIntervals2 holds, per winner, a conservative interval [lo, hi]
	// (doubled positions) that provably contains the winner's fault-free
	// median — the median it would have had if no list had died. With
	// j = (m+1)/2 the original median index and u the number of dead lists
	// where the winner was never observed: the j-th smallest of the m true
	// positions is at least the (j-u)-th smallest of the m-u positions we can
	// lower-bound (observed values are exact, unobserved survivors sit at or
	// beyond their frontier), and at most the j-th smallest of the observed
	// values alone (hi is MaxInt64 when fewer than j were observed).
	MedianIntervals2 [][2]int64 `json:"median_intervals2"`
}

// FullScanCost returns the access cost of the naive approach that reads
// every list completely: n entries per list.
func FullScanCost(rankings []*ranking.PartialRanking) AccessStats {
	st := AccessStats{PerList: make([]int, len(rankings))}
	for i, r := range rankings {
		st.PerList[i] = r.N()
		st.Total += r.N()
		if r.N() > st.MaxDepth {
			st.MaxDepth = r.N()
		}
	}
	return st
}

// CertificateLowerBound returns a conservative lower bound on the total
// number of sequential probes ANY correct deterministic algorithm must
// spend on this instance: for each winner w, the algorithm has to observe w
// in at least ceil(m/2) lists to pin its median, and observing w in list i
// costs at least the number of entries that precede w there (sequential
// access cannot skip). The cheapest choice is the ceil(m/2) lists where w is
// shallowest; the bound takes the most expensive winner. The
// instance-optimality ratio reported by experiment E7 is MEDRANK probes
// divided by this bound.
func CertificateLowerBound(rankings []*ranking.PartialRanking, winners []int) int {
	return CertificateLowerBoundCost(rankings, winners, 1, 0)
}

// CertificateLowerBoundCost generalizes CertificateLowerBound to the FLN
// middleware cost model: learning a winner's position in list i costs at
// least min(cs·depth_i, cr) — a sequential scan down to its bucket or a
// single random access, whichever is cheaper on that list. cr <= 0 selects
// the NRA regime (random access unavailable), degenerating to the
// sequential-only bound; CertificateLowerBound is exactly this at
// (cs, cr) = (1, 0). A winner outside a list's domain contributes nothing
// there: no access of either kind can observe it, so it is skipped instead
// of indexed (the unconditional BucketOf it replaced panicked on such
// inputs).
func CertificateLowerBoundCost(rankings []*ranking.PartialRanking, winners []int, cs, cr int) int {
	m := len(rankings)
	needed := (m + 1) / 2
	best := 0
	costs := make([]int, 0, m)
	for _, w := range winners {
		costs = costs[:0]
		for _, r := range rankings {
			if w < 0 || w >= r.N() {
				continue // absent from this list: unobservable at any price
			}
			// Entries strictly before w's bucket, plus the probe that
			// reveals w itself. A bucket's doubled position is
			// 2·before + size + 1, so before is read off it in O(1).
			b := r.BucketOf(w)
			depth := int(r.BucketPos2(b)-int64(r.BucketSize(b))-1)/2 + 1
			c := cs * depth
			if cr > 0 && cr < c {
				c = cr
			}
			costs = append(costs, c)
		}
		sort.Ints(costs)
		total := 0
		for i := 0; i < needed && i < len(costs); i++ {
			total += costs[i]
		}
		if total > best {
			best = total
		}
	}
	return best
}
