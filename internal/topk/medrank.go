package topk

import (
	"cmp"
	"context"
	"fmt"
	"math"

	"repro/internal/faults"
	"repro/internal/telemetry"
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
// current survivors, indexed by survivor slot. Its storage outlives the run:
// reset readies it for the next run, or for a rebuild after a list death,
// without allocating.
type medrankRun struct {
	n, m, k, needed int
	frontier        frontiers  // per slot: doubled position of next unprobed entry
	bits            [][]uint64 // per slot: bitmap of the elements the list has yielded
	seen            [][]int64  // per element: probed doubled positions, ascending
	rows            rowSlab    // where the seen rows are carved from
	exactMed        []int64    // per element: exact doubled median, MaxInt64 if unknown
	exactCount      int
	probedDistinct  int
	// pending holds the probed elements that are neither exact nor cleared,
	// in probe order, as pending[head:]; certification drops elements from
	// the front by moving head.
	pending []int
	head    int
	inPend  []bool           // membership in pending
	cleared []bool           // provably outside the top k
	kSmall  kSmallest[int64] // k smallest exact medians
}

// reset readies the state for a run over one slot per frontier of front;
// bits[li] is slot li's bitmap of yielded elements. Both are copied.
func (r *medrankRun) reset(n, k int, front []int64, bits [][]uint64) {
	m := len(front)
	r.n, r.m, r.k = n, m, k
	r.needed = (m + 1) / 2 // index of the lower median
	r.frontier.reset(front)
	r.bits = append(r.bits[:0], bits...)
	r.seen = resize(r.seen, n)
	clear(r.seen)
	r.rows.reset(n, m)
	r.exactMed = resize(r.exactMed, n)
	for e := range r.exactMed {
		r.exactMed[e] = math.MaxInt64
	}
	r.exactCount, r.probedDistinct = 0, 0
	r.pending, r.head = r.pending[:0], 0
	r.inPend = resize(r.inPend, n)
	clear(r.inPend)
	r.cleared = resize(r.cleared, n)
	clear(r.cleared)
	r.kSmall.init(k, cmp.Less[int64])
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
		r.enqueue(e)
		r.inPend[e] = true
	}
}

// enqueue appends e to pending. A full buffer whose live part fills at most
// half of it slides that part to the front rather than growing, so the
// buffer stays within twice the peak number of pending elements and each
// element is moved O(1) times on average.
func (r *medrankRun) enqueue(e int) {
	if len(r.pending) == cap(r.pending) && r.head > 0 && 2*(len(r.pending)-r.head) <= cap(r.pending) {
		r.pending = r.pending[:copy(r.pending, r.pending[r.head:])]
		r.head = 0
	}
	r.pending = append(r.pending, e)
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
	// Examine pending elements from the front, dropping the ones that are
	// promoted, already exact, or cleared. Stop at the first genuine
	// blocker: it and everything after it stay pending, in order.
	for ; r.head < len(r.pending); r.head++ {
		e := r.pending[r.head]
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
		return false // e genuinely blocks certification
	}
	r.pending, r.head = r.pending[:0], 0
	return true
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

// kthSmallest returns the k-th smallest (1-based) of xs without modifying
// it. k must be in [1, len(xs)]. It selects on a copy, on the stack when xs
// is as short as an ensemble usually is; the engines keep their per-probe
// orders incrementally, so it runs only on a degraded run's winners.
func kthSmallest(xs []int64, k int) int64 {
	var buf [64]int64
	return selectKth(append(buf[:0], xs...), k)
}

// medrankDriver runs MEDRANK over the sources. It keeps a per-original-list
// log of every consumed entry; when a list dies it rebuilds a fresh
// certification state over the survivors by replaying the surviving logs
// under the current frontiers (exact, see medrankRun.replay). Over infallible
// sources no list dies and the run is the plain streaming MEDRANK.
type medrankDriver struct {
	lists
	n, k     int
	merge    bool       // GlobalMerge*: probe the smallest frontier; else round-robin
	buckets  bool       // *Buckets policies: one probe reads a whole bucket
	logs     [][]Entry  // per original list: every entry consumed from it
	bits     [][]uint64 // per original list: bitmap of the elements it yielded
	bitWords []uint64   // the bitmaps' storage
	run      medrankRun
	rrNext   int
	front    []int64          // rebuild's survivor frontiers
	slotBits [][]uint64       // rebuild's survivor bitmaps
	sel      kSmallest[bound] // the answer's k best (median, element)
}

// reset readies the driver for a run of MEDRANK under policy over sources,
// keeping every buffer of its previous run.
func (f *medrankDriver) reset(sources []faults.Source, acc *telemetry.AccessAccountant, n, k int, policy Policy) error {
	f.lists.reset(sources, acc)
	f.n, f.k = n, k
	f.merge, f.buckets = false, false
	switch policy {
	case GlobalMerge:
		f.merge = true
	case RoundRobin:
	case GlobalMergeBuckets:
		f.merge, f.buckets = true, true
	case RoundRobinBuckets:
		f.buckets = true
	default:
		return fmt.Errorf("topk: unknown policy %d", policy)
	}
	m := len(sources)
	f.logs = resize(f.logs, m)
	for i := range f.logs {
		f.logs[i] = f.logs[i][:0]
	}
	words := (n + 63) / 64
	f.bitWords = resize(f.bitWords, m*words)
	clear(f.bitWords)
	f.bits = resize(f.bits, m)
	for i := range f.bits {
		f.bits[i] = f.bitWords[i*words : (i+1)*words : (i+1)*words]
	}
	f.rrNext = 0
	f.rebuild()
	return nil
}

// rebuild readies the certification state over the currently alive lists
// and replays their logged entries into it. The replay is exact, not
// merely conservative: every unseen position of a surviving list is at least
// that list's current frontier, so certifications made under the rebuilt
// frontiers hold.
//
// Every logged position goes in before any element is examined. The bitmaps
// already mark every logged entry, so an element examined midway would take
// a position not yet fed for seen, and could be certified at too large a
// median.
func (f *medrankDriver) rebuild() {
	f.front = resize(f.front, len(f.aliveIdx))
	f.slotBits = resize(f.slotBits, len(f.aliveIdx))
	for li, orig := range f.aliveIdx {
		f.front[li] = f.sources[orig].Peek2()
		f.slotBits[li] = f.bits[orig]
	}
	run := &f.run
	run.reset(f.n, f.k, f.front, f.slotBits)
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
	if f.rrNext >= len(f.aliveIdx) {
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
	// By construction of certified(), every element that could precede the
	// k-th winner is exact.
	winners, medians2 := selectTopK(&f.sel, f.run.exactMed, f.k)
	res := &Result{Winners: winners, Medians2: medians2}
	if len(f.lost) > 0 {
		res.Degraded = f.degraded(logPositions(winners, len(f.sources), f.logs))
	}
	return res
}
