package topk

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"slices"
	"sort"
)

// This file holds MEDRANK: the streaming median-rank top-k aggregation of
// Section 6. It returns the exact lower-median top-k list while probing only
// a prefix of each list under sorted access — enough to certify the answer —
// and makes no random access.
//
// An element's lower median is the needed-th smallest of its m positions.
// Once an element has been probed `needed` times and its needed-th smallest
// seen position is at most the frontier of every list where it is still
// unseen, that value is its exact median — unseen positions are at least
// their frontiers, so they cannot enter the needed smallest — and it never
// changes afterwards.
//
// Certification of the top k requires: at least k exact elements, and every
// other element's median lower bound strictly exceeding the k-th smallest
// exact median. Two monotonicity facts make this cheap to maintain:
//
//   - an element's median lower bound only grows (frontiers advance, and a
//     probed position is at least the frontier it replaces);
//   - the k-th smallest exact median only shrinks as elements become exact.
//
// Hence once an element's bound clears the bar it is out of the race for
// good ("cleared"), and each element is charged O(m) work a constant number
// of times plus one examination per failed certification.
//
// Nothing is sorted per probe. Each element's seen positions are kept
// ascending as they arrive, so its needed-th smallest is one index, and the
// frontiers are kept ordered (see frontiers), so the smallest frontier (the
// GlobalMerge probe), the needed-th smallest (the bound of every never-probed
// element) and an element's median lower bound (its row merged with the
// frontiers of the lists that have not yielded it) are read off the orders.
//
// The certification state (medrankRun) sees lists only through frontier
// positions and per-list seen bitmaps, so the driver (medrankDriver) can
// rebuild it over the survivors when a list dies and replay the logged
// entries into it.

// ctxCheckStride bounds how many probes may pass between context checks in
// a driver loop: frequent enough that a deadline aborts a long certification
// promptly, sparse enough that the check stays invisible on the hot path.
// Accesses that can block check the context themselves (faults.Inject,
// faults.WithRetry).
const ctxCheckStride = 1024

// medrankRun carries the certification state of one MEDRANK run over the
// current survivors, indexed by survivor slot.
type medrankRun struct {
	n, m, k, needed int
	frontier        frontiers  // per slot: doubled position of next unprobed entry
	bits            [][]uint64 // per slot: bitmap of the elements the list has yielded
	seen            [][]int64  // per element: probed doubled positions, ascending
	rows            rowSlab    // where the seen rows are carved from
	exactMed        []int64    // per element: exact doubled median, MaxInt64 if unknown
	exactCount      int
	probedDistinct  int
	pending         []int            // probed, not yet exact or cleared
	inPend          []bool           // membership in pending
	cleared         []bool           // provably outside the top k
	kSmall          kSmallest[int64] // k smallest exact medians
}

// newMedrankRun builds the certification state over one slot per frontier of
// front, which it takes over; bits[li] is slot li's bitmap of yielded
// elements.
func newMedrankRun(n, k int, front []int64, bits [][]uint64) *medrankRun {
	m := len(front)
	r := &medrankRun{
		n: n, m: m, k: k,
		needed:   (m + 1) / 2, // index of the lower median
		frontier: newFrontiers(front),
		bits:     bits,
		seen:     make([][]int64, n),
		rows:     newRowSlab(n, m),
		exactMed: make([]int64, n),
		inPend:   make([]bool, n),
		cleared:  make([]bool, n),
		kSmall:   newKSmallest(k, cmp.Less[int64]),
	}
	for e := range r.exactMed {
		r.exactMed[e] = math.MaxInt64
	}
	return r
}

// has reports whether slot li has already yielded element e.
func (r *medrankRun) has(li, e int) bool {
	return r.bits[li][e>>6]&(1<<(uint(e)&63)) != 0
}

// promote records e's exact median.
func (r *medrankRun) promote(e int, med int64) {
	r.exactMed[e] = med
	r.exactCount++
	r.kSmall.push(med)
}

// onProbed is called after element e gained a new seen position.
func (r *medrankRun) onProbed(e int) {
	if r.exactMed[e] != math.MaxInt64 || r.cleared[e] {
		return
	}
	if med, ok := r.tryExact(e); ok {
		r.promote(e, med)
		return
	}
	if !r.inPend[e] {
		r.pending = append(r.pending, e)
		r.inPend[e] = true
	}
}

func (r *medrankRun) certified() bool {
	if r.k == 0 {
		return true
	}
	if r.exactCount < r.k {
		return false
	}
	kth := r.kSmall.max()
	if r.probedDistinct < r.n && r.frontier.kth(r.needed) <= kth {
		return false
	}
	// Examine pending elements; compact out the ones that are promoted,
	// already exact, or cleared. Bail out at the first genuine blocker.
	keep := r.pending[:0]
	blocked := false
	for idx, e := range r.pending {
		if blocked {
			keep = append(keep, r.pending[idx:]...)
			break
		}
		if r.exactMed[e] != math.MaxInt64 || r.cleared[e] {
			r.inPend[e] = false
			continue
		}
		if r.medianLB(e) > kth {
			r.cleared[e] = true
			r.inPend[e] = false
			continue
		}
		if med, ok := r.tryExact(e); ok {
			r.promote(e, med)
			r.inPend[e] = false
			// Promotion can only shrink kth, so prior clearances stand.
			kth = r.kSmall.max()
			continue
		}
		// e genuinely blocks certification; keep it and everything after.
		keep = append(keep, e)
		blocked = true
	}
	r.pending = keep
	return !blocked
}

// replay registers a probed entry without touching the frontier.
func (r *medrankRun) replay(e Entry) {
	r.add(e)
	r.onProbed(e.Elem)
}

// add inserts an entry's position into its element's ascending row.
func (r *medrankRun) add(e Entry) {
	row := r.seen[e.Elem]
	if row == nil {
		r.probedDistinct++
		row = r.rows.carve()
	}
	r.seen[e.Elem] = insertAscending(row, e.Pos2)
}

// tryExact reports the exact median of e if certifiable now: its needed-th
// smallest seen position, once no list that has not yielded e has a frontier
// below it.
func (r *medrankRun) tryExact(e int) (int64, bool) {
	s := r.seen[e]
	if len(s) < r.needed {
		return 0, false
	}
	med := s[r.needed-1]
	if len(s) == r.m {
		return med, true
	}
	for _, li := range r.frontier.order {
		if r.frontier.val[li] >= med {
			break
		}
		if !r.has(li, e) {
			return 0, false
		}
	}
	return med, true
}

// medianLB returns a lower bound on e's median: the needed-th smallest of
// its seen positions merged with the frontiers of its unseen lists.
func (r *medrankRun) medianLB(e int) int64 {
	return r.frontier.kthMerged(r.seen[e], r.needed, r.bits, e)
}

// finalTopK ranks the exact elements by (median, element ID) and returns the
// first k. By construction of certified(), every element that could precede
// the k-th winner is exact.
func (r *medrankRun) finalTopK() (winners []int, medians2 []int64) {
	type cand struct {
		e    int
		med2 int64
	}
	cands := make([]cand, 0, r.exactCount)
	for e := 0; e < r.n; e++ {
		if r.exactMed[e] < math.MaxInt64 {
			cands = append(cands, cand{e, r.exactMed[e]})
		}
	}
	sort.Slice(cands, func(a, b int) bool {
		if cands[a].med2 != cands[b].med2 {
			return cands[a].med2 < cands[b].med2
		}
		return cands[a].e < cands[b].e
	})
	if len(cands) > r.k {
		cands = cands[:r.k]
	}
	winners = make([]int, 0, len(cands))
	for _, c := range cands {
		winners = append(winners, c.e)
		medians2 = append(medians2, c.med2)
	}
	return winners, medians2
}

// kthSmallest returns the k-th smallest (1-based) of xs without modifying
// it. k must be in [1, len(xs)]. It sorts a copy, on the stack when xs is as
// short as an ensemble usually is; the engines keep their per-probe orders
// incrementally, so it runs only on a degraded run's winners.
func kthSmallest(xs []int64, k int) int64 {
	var buf [64]int64
	cp := append(buf[:0], xs...)
	slices.Sort(cp)
	return cp[k-1]
}

// medrankDriver runs MEDRANK over the sources. It keeps a per-original-list
// log of every consumed entry; when a list dies it rebuilds a fresh
// certification state over the survivors by replaying the surviving logs
// under the current frontiers (exact, see medrankRun.replay). Over infallible
// sources no list dies and the run is the plain streaming MEDRANK.
type medrankDriver struct {
	lists
	n, k    int
	merge   bool       // GlobalMerge*: probe the smallest frontier; else round-robin
	buckets bool       // *Buckets policies: one probe reads a whole bucket
	logs    [][]Entry  // per original list: every entry consumed from it
	bits    [][]uint64 // per original list: bitmap of the elements it yielded
	run     *medrankRun
	rrNext  int
}

func newMedRankDriver(l lists, n, k int, policy Policy) (*medrankDriver, error) {
	f := &medrankDriver{lists: l, n: n, k: k}
	switch policy {
	case GlobalMerge:
		f.merge = true
	case RoundRobin:
	case GlobalMergeBuckets:
		f.merge, f.buckets = true, true
	case RoundRobinBuckets:
		f.buckets = true
	default:
		return nil, fmt.Errorf("topk: unknown policy %d", policy)
	}
	m := len(l.sources)
	f.logs = make([][]Entry, m)
	f.bits = make([][]uint64, m)
	for i := range f.bits {
		f.bits[i] = make([]uint64, (n+63)/64)
	}
	f.rebuild()
	return f, nil
}

// rebuild constructs a fresh certification state over the currently alive
// lists and replays their logged entries into it. The replay is exact, not
// merely conservative: every unseen position of a surviving list is at least
// that list's current frontier, so certifications made under the rebuilt
// frontiers hold.
//
// Every logged position goes in before any element is examined. The bitmaps
// already mark every logged entry, so an element examined midway would take
// a position not yet fed for seen, and could be certified at too large a
// median.
func (f *medrankDriver) rebuild() {
	m := len(f.aliveIdx)
	front := make([]int64, m)
	bits := make([][]uint64, m)
	for li, orig := range f.aliveIdx {
		front[li] = f.sources[orig].Peek2()
		bits[li] = f.bits[orig]
	}
	run := newMedrankRun(f.n, f.k, front, bits)
	f.run = run
	for _, orig := range f.aliveIdx {
		for _, e := range f.logs[orig] {
			run.add(e)
		}
	}
	for _, orig := range f.aliveIdx {
		for _, e := range f.logs[orig] {
			run.onProbed(e.Elem)
		}
	}
	if f.rrNext >= m {
		f.rrNext = 0
	}
}

// pick returns the survivor slot to probe next, or -1 when every surviving
// list is exhausted.
func (f *medrankDriver) pick() int {
	if f.merge {
		return f.run.frontier.first()
	}
	fr := f.run.frontier.val
	for tries := 0; tries < len(fr); tries++ {
		i := f.rrNext
		f.rrNext = (f.rrNext + 1) % len(fr)
		if fr[i] < math.MaxInt64 {
			return i
		}
	}
	return -1
}

// drive loops probe-and-certify until the top k is certified over the
// surviving lists or the context ends. Exhausted complete lists leave every
// element exact, which certifies, so scans that all end first are an error.
func (f *medrankDriver) drive(ctx context.Context) error {
	for it := 0; !f.run.certified(); it++ {
		if it%ctxCheckStride == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		li := f.pick()
		if li < 0 {
			return ErrScanEnded
		}
		if err := f.probe(ctx, li); err != nil {
			return err
		}
	}
	return nil
}

// probe performs one (possibly bucket-granular) sequential access on survivor
// slot li. An access error either aborts the run or kills the list and
// rebuilds the certification state over the remaining survivors.
func (f *medrankDriver) probe(ctx context.Context, li int) error {
	orig := f.aliveIdx[li]
	src := f.sources[orig]
	e, ok, err := src.Next(ctx)
	if err != nil {
		return f.kill(orig, err)
	}
	if !ok {
		f.run.frontier.advance(li, math.MaxInt64)
		return nil
	}
	f.acc.BucketIO(orig)
	f.record(li, orig, e)
	if !f.buckets {
		return nil
	}
	// Bucket granularity: the probe returned the whole run of entries tied
	// at this position (one index-scan I/O).
	for src.Peek2() == e.Pos2 {
		next, ok, err := src.Next(ctx)
		if err != nil {
			return f.kill(orig, err)
		}
		if !ok {
			break
		}
		f.record(li, orig, next)
	}
	return nil
}

// kill handles an access error on list orig: the run stops on a context
// error or when no list survives, and otherwise continues over a rebuilt
// certification state.
func (f *medrankDriver) kill(orig int, err error) error {
	if err := f.fail(orig, err); err != nil {
		return err
	}
	f.rebuild()
	return nil
}

// record logs one consumed entry and feeds it to the certification state.
func (f *medrankDriver) record(li, orig int, e Entry) {
	f.logs[orig] = append(f.logs[orig], e)
	f.bits[orig][e.Elem>>6] |= 1 << (uint(e.Elem) & 63)
	f.run.frontier.advance(li, f.sources[orig].Peek2())
	f.run.replay(e)
}

func (f *medrankDriver) answer() *Result {
	winners, medians2 := f.run.finalTopK()
	res := &Result{Winners: winners, Medians2: medians2}
	if len(f.lost) > 0 {
		res.Degraded = f.degraded(logPositions(winners, len(f.sources), f.logs))
	}
	return res
}
