package telemetry

import "sync/atomic"

// AccessAccountant is the unified access accounting of the middleware cost
// model of Fagin, Lotem, and Naor ("Optimal Aggregation Algorithms for
// Middleware"): every engine that reads ranked lists — MEDRANK, TA-style
// baselines, filtered database queries — charges its sequential probes,
// bucket-granular I/Os, and random accesses to one accountant and reports
// them through one AccessReport. Counting is always on (the access cost of a
// run is an experimental result of the paper, not optional telemetry);
// counters are atomic so concurrent engines can share an accountant.
type AccessAccountant struct {
	seq     []atomic.Int64
	bucket  []atomic.Int64
	random  []atomic.Int64
	failed  []atomic.Int64
	retried []atomic.Int64
}

// NewAccessAccountant returns an accountant for the given number of lists.
func NewAccessAccountant(lists int) *AccessAccountant {
	return &AccessAccountant{
		seq:     make([]atomic.Int64, lists),
		bucket:  make([]atomic.Int64, lists),
		random:  make([]atomic.Int64, lists),
		failed:  make([]atomic.Int64, lists),
		retried: make([]atomic.Int64, lists),
	}
}

// Lists returns the number of lists the accountant tracks.
func (a *AccessAccountant) Lists() int { return len(a.seq) }

// Sequential charges one sequential access (the next entry of a sorted scan)
// to the given list.
func (a *AccessAccountant) Sequential(list int) { a.seq[list].Add(1) }

// BucketIO charges one bucket-granular I/O to the given list: an index scan
// over a few-valued attribute returns the whole run of tied rows in one I/O.
func (a *AccessAccountant) BucketIO(list int) { a.bucket[list].Add(1) }

// Random charges one random access (looking an element up by identity in a
// list, rather than scanning to it) to the given list.
func (a *AccessAccountant) Random(list int) { a.random[list].Add(1) }

// Failure charges one failed access attempt (an access that returned an
// error instead of an entry) to the given list. Fault injectors and retry
// wrappers report through this, so a chaos run's failures appear in the same
// report as its probes.
func (a *AccessAccountant) Failure(list int) { a.failed[list].Add(1) }

// Retry charges one retried access attempt to the given list: a transient
// failure that a retry policy absorbed rather than surfaced.
func (a *AccessAccountant) Retry(list int) { a.retried[list].Add(1) }

// SequentialIn returns the sequential accesses charged to one list.
func (a *AccessAccountant) SequentialIn(list int) int64 { return a.seq[list].Load() }

// AccessReport is the point-in-time JSON form of an accountant: the two
// access-mode totals of the FLN cost model plus per-list depth detail.
type AccessReport struct {
	// PerList is the number of sequential accesses charged to each list.
	PerList []int64 `json:"sequential_per_list"`
	// Sequential is the total number of sequential accesses.
	Sequential int64 `json:"sequential"`
	// MaxDepth is the deepest sequential scan into any single list.
	MaxDepth int64 `json:"max_depth"`
	// BucketPerList is the number of bucket-granular I/Os per list.
	BucketPerList []int64 `json:"bucket_ios_per_list"`
	// BucketIOs is the total number of bucket-granular I/Os.
	BucketIOs int64 `json:"bucket_ios"`
	// RandomPerList is the number of random accesses per list.
	RandomPerList []int64 `json:"random_per_list"`
	// Random is the total number of random accesses.
	Random int64 `json:"random"`
	// FailedPerList is the number of failed access attempts per list.
	FailedPerList []int64 `json:"failed_per_list,omitempty"`
	// Failed is the total number of failed access attempts.
	Failed int64 `json:"failed"`
	// RetriedPerList is the number of retried access attempts per list.
	RetriedPerList []int64 `json:"retried_per_list,omitempty"`
	// Retried is the total number of retried access attempts.
	Retried int64 `json:"retried"`
}

// Report snapshots the accountant.
func (a *AccessAccountant) Report() AccessReport {
	r := AccessReport{
		PerList:        make([]int64, len(a.seq)),
		BucketPerList:  make([]int64, len(a.bucket)),
		RandomPerList:  make([]int64, len(a.random)),
		FailedPerList:  make([]int64, len(a.failed)),
		RetriedPerList: make([]int64, len(a.retried)),
	}
	for i := range a.seq {
		v := a.seq[i].Load()
		r.PerList[i] = v
		r.Sequential += v
		if v > r.MaxDepth {
			r.MaxDepth = v
		}
		b := a.bucket[i].Load()
		r.BucketPerList[i] = b
		r.BucketIOs += b
		ra := a.random[i].Load()
		r.RandomPerList[i] = ra
		r.Random += ra
		f := a.failed[i].Load()
		r.FailedPerList[i] = f
		r.Failed += f
		rt := a.retried[i].Load()
		r.RetriedPerList[i] = rt
		r.Retried += rt
	}
	return r
}

// MiddlewareCost returns the FLN middleware cost cs*sequential + cr*random.
func (r AccessReport) MiddlewareCost(cs, cr int64) int64 {
	return cs*r.Sequential + cr*r.Random
}

// CostOptimalityRatio divides the report's middleware cost at weights
// (cs, cr) by a cost-aware per-instance lower bound computed at the same
// weights; a ratio near 1 witnesses instance optimality under that cost
// model (Theorems 30-32 of the paper). Returns 0 when the bound is not
// positive (undefined, e.g. k = 0).
func (r AccessReport) CostOptimalityRatio(cs, cr, lowerBound int64) float64 {
	if lowerBound <= 0 {
		return 0
	}
	return float64(r.MiddlewareCost(cs, cr)) / float64(lowerBound)
}
