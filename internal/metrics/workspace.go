package metrics

import (
	"slices"
	"sync"

	"repro/internal/permutation"
	"repro/internal/ranking"
	"repro/internal/telemetry"
)

// Gated telemetry instruments of the workspace layer. Increments are atomic
// adds behind a single enabled-flag load, so the kernels stay at 0 allocs/op
// (and near-zero overhead) with telemetry disabled.
var (
	tPoolGets   = telemetry.GetCounter("metrics.workspace.pool.gets")
	tPoolPuts   = telemetry.GetCounter("metrics.workspace.pool.puts")
	tPoolMisses = telemetry.GetCounter("metrics.workspace.pool.misses")
	tCountPairs = telemetry.GetCounter("metrics.kernel.countpairs")
	tFHaus      = telemetry.GetCounter("metrics.kernel.fhaus")
)

// Workspace holds the reusable scratch state of the metric kernels: a
// Fenwick tree for discordance counting, one state row per b-bucket, and the
// list of b-buckets the current a-bucket touches (see walkCells). A warm
// Workspace lets CountPairs, the Kendall family, and the footrule
// family run with zero heap allocations, which is what ensemble workloads
// (DistanceMatrix, SumDistance, aggregation objective evaluation, MEDRANK
// scoring) need: O(1) allocations per distance instead of O(n).
//
// A Workspace is not safe for concurrent use; give each goroutine its own,
// either via NewWorkspace or the package pool (GetWorkspace/PutWorkspace).
// The zero value is ready to use. Workspaces hold no references to the
// rankings they process, so pooling never extends ranking lifetimes.
type Workspace struct {
	ft      permutation.Fenwick // walked elements per b-bucket
	cols    []column            // per-b-bucket state of the cell walk
	touched []int32             // b-buckets touched by the current a-bucket
}

// column is the cell walk's state for one b-bucket j. The b-ranking of each
// witness pair lays out bucket j's cells in a-bucket order: witness 1 from
// the front of the bucket, witness 2 from its back.
type column struct {
	lo   int32 // elements before witness 1's next cell of j
	hi   int32 // elements up to the end of witness 2's next cell of j
	cell int32 // elements of j in the current a-bucket
}

// NewWorkspace returns an empty workspace. Scratch buffers grow on first use
// and are retained across calls.
func NewWorkspace() *Workspace { return &Workspace{} }

var workspacePool = sync.Pool{New: func() any {
	tPoolMisses.Inc()
	return NewWorkspace()
}}

// GetWorkspace takes a workspace from the package pool. Pair it with
// PutWorkspace; the package-level metric functions use this pool internally,
// so casual callers never see it, while batch engines check a workspace out
// once per goroutine.
func GetWorkspace() *Workspace {
	tPoolGets.Inc()
	return workspacePool.Get().(*Workspace)
}

// PutWorkspace returns a workspace to the package pool. The workspace must
// not be used after it is put back.
func PutWorkspace(ws *Workspace) {
	tPoolPuts.Inc()
	workspacePool.Put(ws)
}

// PoolSnapshot is a point-in-time view of the workspace pool's telemetry
// counters. A get that is not matched by a miss reused a pooled workspace's
// scratch state; Gets - Misses is therefore the number of reuses.
type PoolSnapshot struct {
	// Gets counts GetWorkspace calls (direct and via the package-level
	// metric functions).
	Gets int64
	// Puts counts PutWorkspace calls.
	Puts int64
	// Misses counts pool misses: gets that had to allocate a fresh
	// workspace because none was pooled.
	Misses int64
}

// PoolStats snapshots the workspace pool counters. Counting is gated on
// telemetry.Enabled(); with telemetry disabled the snapshot is frozen at
// whatever was last recorded.
func PoolStats() PoolSnapshot {
	return PoolSnapshot{
		Gets:   tPoolGets.Value(),
		Puts:   tPoolPuts.Value(),
		Misses: tPoolMisses.Value(),
	}
}

// columns returns the cell walk's per-b-bucket state for b, before any
// cell is charged, and the pairs tied in b.
func (ws *Workspace) columns(b *ranking.PartialRanking) ([]column, int64) {
	nb := b.NumBuckets()
	if cap(ws.cols) < nb {
		ws.cols = make([]column, nb)
	}
	cols := ws.cols[:nb]
	var start int32
	var tied int64
	for j := range cols {
		size := int32(b.BucketSize(j))
		cols[j] = column{lo: start, hi: start + size}
		start += size
		tied += int64(size) * int64(size-1) / 2
	}
	return cols, tied
}

// cellSums is what one walk over the bucket cells of a pair yields.
type cellSums struct {
	discordant   int64
	tiedA, tiedB int64 // pairs tied in a, in b
	tiedInBoth   int64
	f1, f2       int64 // footrules of the two Theorem 5 witness pairs
}

// walkCells visits the non-empty cells (i, j) of the a-bucket × b-bucket
// table, a-buckets best-first and, within one, b-buckets ascending (see
// charge). A singleton a-bucket is its own cell; a larger one counts its
// elements' b-buckets in the column rows and sorts only the distinct ones.
// The walk is O(n + C log t) for C ≤ min(n, Ba·Bb) non-empty cells.
func (ws *Workspace) walkCells(a, b *ranking.PartialRanking) cellSums {
	bof := b.BucketIndices()
	ws.ft.Reset(b.NumBuckets())
	var s cellSums
	cols, tiedB := ws.columns(b)
	s.tiedB = tiedB
	touched := ws.touched
	var walked int64 // elements of earlier a-buckets: the start of bucket i
	for i := 0; i < a.NumBuckets(); i++ {
		bucket := a.Bucket(i)
		size := int64(len(bucket))
		if len(bucket) == 1 {
			j := bof[bucket[0]]
			s.charge(&ws.ft, &cols[j], j, walked, size, 0, 1)
			walked++
			continue
		}
		touched = touched[:0]
		for _, e := range bucket {
			j := bof[e]
			if cols[j].cell == 0 {
				touched = append(touched, int32(j))
			}
			cols[j].cell++
		}
		slices.Sort(touched)
		var row int64 // elements of bucket i in b-buckets before j
		for _, j := range touched {
			col := &cols[j]
			c := int64(col.cell)
			col.cell = 0
			s.charge(&ws.ft, col, int(j), walked, size, row, c)
			row += c
		}
		s.tiedA += size * (size - 1) / 2
		walked += size
	}
	ws.touched = touched
	return s
}

// charge adds the cell (i, j) of c elements, where a-bucket i of the given
// size starts after walked elements and has row elements in b-buckets
// before j:
//   - discordant pairs: c times the walked elements in b-buckets after j.
//     Earlier cells of bucket i lie in b-buckets before j, so each cell
//     joins the Fenwick tree as soon as it is charged;
//   - pairs tied in both: C(c, 2);
//   - each Theorem 5 witness footrule: c·|offset|, because the cell's
//     elements form one block, in id order, in both rankings of the pair.
//     Witness 1 orders a by (a-bucket, b-bucket reversed, id) and b by
//     (b-bucket, a-bucket, id); witness 2 orders a by (a-bucket, b-bucket,
//     id) and b by (b-bucket, a-bucket reversed, id).
func (s *cellSums) charge(ft *permutation.Fenwick, col *column, j int, walked, size, row, c int64) {
	s.discordant += c * (walked + row - ft.PrefixSum(j))
	s.tiedInBoth += c * (c - 1) / 2
	ft.Add(j, c)
	s.f1 += c * abs64(walked+size-row-c-int64(col.lo))
	s.f2 += c * abs64(walked+row-int64(col.hi)+c)
	col.lo += int32(c)
	col.hi -= int32(c)
}

// pairCounts completes the pair classification from a walk's sums.
func (s cellSums) pairCounts(n int) PairCounts {
	total := int64(n) * int64(n-1) / 2
	return PairCounts{
		Concordant:  total - s.tiedA - s.tiedB + s.tiedInBoth - s.discordant,
		Discordant:  s.discordant,
		TiedOnlyInA: s.tiedA - s.tiedInBoth,
		TiedOnlyInB: s.tiedB - s.tiedInBoth,
		TiedInBoth:  s.tiedInBoth,
	}
}

// CountPairs classifies all element pairs of two same-domain partial
// rankings exactly as the package-level CountPairs, in one walk over the
// non-empty bucket cells (walkCells) that reuses the workspace's scratch
// state, so a warm call performs no heap allocation.
func (ws *Workspace) CountPairs(a, b *ranking.PartialRanking) (PairCounts, error) {
	if err := ranking.CheckSameDomain(a, b); err != nil {
		return PairCounts{}, err
	}
	tCountPairs.Inc()
	return ws.walkCells(a, b).pairCounts(a.N()), nil
}

// KProf returns the Kendall profile metric Kprof = K^(1/2) (Section 3.1)
// without allocating on a warm workspace.
func (ws *Workspace) KProf(a, b *ranking.PartialRanking) (float64, error) {
	pc, err := ws.CountPairs(a, b)
	if err != nil {
		return 0, err
	}
	return KProfFromCounts(pc), nil
}

// KProf2 returns the doubled profile distance 2*Kprof as an exact integer.
func (ws *Workspace) KProf2(a, b *ranking.PartialRanking) (int64, error) {
	pc, err := ws.CountPairs(a, b)
	if err != nil {
		return 0, err
	}
	return 2*pc.Discordant + pc.TiedOnlyInA + pc.TiedOnlyInB, nil
}

// KWithPenalty returns K^(p) for p in [0, 1] (Section 3.1).
func (ws *Workspace) KWithPenalty(a, b *ranking.PartialRanking, p float64) (float64, error) {
	if p < 0 || p > 1 {
		return 0, errPenaltyRange(p)
	}
	pc, err := ws.CountPairs(a, b)
	if err != nil {
		return 0, err
	}
	return float64(pc.Discordant) + p*float64(pc.TiedOnlyInA+pc.TiedOnlyInB), nil
}

// KHaus returns the Hausdorff-Kendall metric via the Proposition 6 formula.
func (ws *Workspace) KHaus(a, b *ranking.PartialRanking) (int64, error) {
	pc, err := ws.CountPairs(a, b)
	if err != nil {
		return 0, err
	}
	return KHausFromCounts(pc), nil
}

// KAvg returns the average Kendall distance over refinement pairs
// (Appendix A.3).
func (ws *Workspace) KAvg(a, b *ranking.PartialRanking) (float64, error) {
	pc, err := ws.CountPairs(a, b)
	if err != nil {
		return 0, err
	}
	return float64(pc.Discordant) +
		float64(pc.TiedOnlyInA+pc.TiedOnlyInB)/2 +
		float64(pc.TiedInBoth)/2, nil
}

// Kendall returns the Kendall tau distance between two full rankings. On
// full rankings every pair is untied in both, so the distance is exactly the
// discordant count of the pair-classification kernel.
func (ws *Workspace) Kendall(a, b *ranking.PartialRanking) (int64, error) {
	if err := ranking.CheckSameDomain(a, b); err != nil {
		return 0, err
	}
	if !a.IsFull() || !b.IsFull() {
		return 0, errNotFull("Kendall")
	}
	pc, err := ws.CountPairs(a, b)
	if err != nil {
		return 0, err
	}
	return pc.Discordant, nil
}

// FProf returns the footrule profile metric Fprof (Section 3.1).
func (ws *Workspace) FProf(a, b *ranking.PartialRanking) (float64, error) {
	d2, err := ws.FProf2(a, b)
	if err != nil {
		return 0, err
	}
	return float64(d2) / 2, nil
}

// FProf2 returns the doubled footrule profile distance as an exact integer.
// The kernel reads the rankings through their copy-free accessors; it never
// allocates (workspace or not — it is defined on Workspace for uniformity).
func (ws *Workspace) FProf2(a, b *ranking.PartialRanking) (int64, error) {
	return FProf2(a, b)
}

// Footrule returns the Spearman footrule distance between two full rankings.
func (ws *Workspace) Footrule(a, b *ranking.PartialRanking) (int64, error) {
	if err := ranking.CheckSameDomain(a, b); err != nil {
		return 0, err
	}
	if !a.IsFull() || !b.IsFull() {
		return 0, errNotFull("Footrule")
	}
	d2, err := ws.FProf2(a, b)
	if err != nil {
		return 0, err
	}
	return d2 / 2, nil
}

// FHaus returns the Hausdorff-footrule metric via the Theorem 5 witness
// characterization, computed without materializing the refinements: the
// cell walk sums each witness pair's footrule block by block (walkCells).
// Zero allocations on a warm workspace.
func (ws *Workspace) FHaus(a, b *ranking.PartialRanking) (int64, error) {
	if err := ranking.CheckSameDomain(a, b); err != nil {
		return 0, err
	}
	tFHaus.Inc()
	s := ws.walkCells(a, b)
	return max64(s.f1, s.f2), nil
}

// Distances computes all four paper metrics from one cell walk plus one
// position sweep — the batched counterpart of calling KProf, FProf, KHaus,
// and FHaus separately. Zero allocations on a warm workspace.
func (ws *Workspace) Distances(a, b *ranking.PartialRanking) (AllDistances, error) {
	if err := ranking.CheckSameDomain(a, b); err != nil {
		return AllDistances{}, err
	}
	tCountPairs.Inc()
	tFHaus.Inc()
	s := ws.walkCells(a, b)
	pc := s.pairCounts(a.N())
	f2, err := ws.FProf2(a, b)
	if err != nil {
		return AllDistances{}, err
	}
	return AllDistances{
		KProf: KProfFromCounts(pc),
		FProf: float64(f2) / 2,
		KHaus: KHausFromCounts(pc),
		FHaus: max64(s.f1, s.f2),
	}, nil
}

// Gamma returns the Goodman-Kruskal gamma association, or ErrGammaUndefined
// when no pair is untied in both rankings.
func (ws *Workspace) Gamma(a, b *ranking.PartialRanking) (float64, error) {
	pc, err := ws.CountPairs(a, b)
	if err != nil {
		return 0, err
	}
	den := pc.Concordant + pc.Discordant
	if den == 0 {
		return 0, ErrGammaUndefined
	}
	return float64(pc.Concordant-pc.Discordant) / float64(den), nil
}
