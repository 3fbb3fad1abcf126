package topk

import (
	"context"
	"math"

	"repro/internal/faults"
	"repro/internal/telemetry"
)

// This file implements the remaining two corners of the Fagin–Lotem–Naor
// middleware design space over median-rank aggregation:
//
//   - NRA ("no random access"): per-element [best, worst] median intervals
//     maintained from sorted access only. An element's worst case is the
//     needed-th smallest of its observed positions (infinite until `needed`
//     positions are known); its best case merges the observed positions with
//     the frontiers of the lists where it is still unseen. The run stops once
//     k intervals dominate every other element's interval, so the certified
//     answer SET equals the exact engines' even though individual medians may
//     remain intervals.
//   - CA ("combined algorithm"): the same interval accumulation, plus a
//     random-access resolution of the most blocking candidate once every
//     ~cR/cS sorted rounds, so expensive random accesses are paid only when
//     they amortize against the sorted work they save.
//
// Both engines share one certification core (nraCore) and one driver
// (caDriver): NRA is CA at cost ratio 0.

// nraInf is the sentinel for an unknown worst-case bound: strictly larger
// than any real doubled position and than the bottom-of-order sentinel
// (math.MaxInt64 - 1) finalTopK ranks under-observed elements by.
const nraInf = int64(math.MaxInt64)

// lexLT orders (value, element) pairs lexicographically — the tie-break every
// engine in this package uses. Strict interval domination under this order is
// what makes NRA's certified set identical to the exact engines': if
// (worst(w), w) < (best(z), z) then (median(w), w) < (median(z), z), because
// median(w) <= worst(w) and best(z) <= median(z), and at equal bounds the
// element IDs decide exactly as they do in the exact answer.
func lexLT(v1 int64, e1 int, v2 int64, e2 int) bool {
	return v1 < v2 || (v1 == v2 && e1 < e2)
}

// bound is an element's (value, element) pair, ordered by lexLT.
type bound struct {
	v int64
	e int
}

func boundLess(a, b bound) bool { return lexLT(a.v, a.e, b.v, b.e) }

// nraCore is the interval-certification state shared by NRA and CA. Like
// medrankRun it is access-agnostic: it sees lists only through frontier
// positions and per-slot known bitmaps, so the driver can rebuild a fresh
// core over the survivors after a list death and replay the logs.
//
// Monotonicity makes bounded buffers sound: a candidate's worst-case bound
// only shrinks as positions arrive, its best-case bound only grows (frontiers
// advance, and an observed position is at least the frontier it replaces), so
// the domination bar only shrinks. Once a candidate's best case clears the
// bar it can never re-enter the race and its position buffer is released.
//
// As in medrankRun, each candidate's known positions are kept ascending and
// the frontiers ordered, so neither bound sorts anything.
type nraCore struct {
	n, m, k, needed int
	frontier        frontiers  // per slot: doubled position of next unprobed entry
	known           [][]uint64 // per slot: bitmap of elements with a known position
	knownWords      []uint64   // the bitmaps' storage
	seen            [][]int64  // per element: known doubled positions, ascending (nil once cleared)
	rows            rowSlab    // where the seen rows are carved from
	probed          []bool     // per element: ever had a position recorded
	probedDistinct  int
	minUnprobed     int                // smallest never-probed element ID
	cleared         []bool             // provably outside the top k
	live            []int              // probed, not cleared (compacted on checks)
	bar             kSmallest[bound]   // check's k smallest closed worst-case bounds
	sel             kSmallest[nraCand] // finalTopK's k best candidates
	bufferPeak      int                // peak number of simultaneously held candidate buffers
}

// reset readies the core for a run over one slot per frontier of front, which
// it copies, keeping the storage of its previous run or rebuild.
func (c *nraCore) reset(n, k int, front []int64) {
	words := (n + 63) / 64
	m := len(front)
	c.n, c.m, c.k = n, m, k
	c.needed = (m + 1) / 2
	c.frontier.reset(front)
	c.knownWords = resize(c.knownWords, m*words)
	clear(c.knownWords)
	c.known = resize(c.known, m)
	for i := range c.known {
		c.known[i] = c.knownWords[i*words : (i+1)*words : (i+1)*words]
	}
	c.seen = resize(c.seen, n)
	clear(c.seen)
	c.rows.reset(n, m)
	c.probed = resize(c.probed, n)
	clear(c.probed)
	c.cleared = resize(c.cleared, n)
	clear(c.cleared)
	c.probedDistinct, c.minUnprobed, c.bufferPeak = 0, 0, 0
	c.live = c.live[:0]
	c.bar.init(k, boundLess)
}

// knownIn reports whether slot li already holds element e's position.
func (c *nraCore) knownIn(li, e int) bool {
	return c.known[li][e>>6]&(1<<(uint(e)&63)) != 0
}

// add registers element e's doubled position in slot li, whether it arrived
// by sorted or by random access — once known, a position is a position, which
// is what lets CA feed its random-access lookups into the same state (and the
// driver replay both kinds of log after a list death). Duplicates
// are ignored: a sorted scan re-revealing a random-accessed entry changes
// nothing.
func (c *nraCore) add(li, e int, pos2 int64) {
	if c.knownIn(li, e) {
		return
	}
	c.known[li][e>>6] |= 1 << (uint(e) & 63)
	if !c.probed[e] {
		c.probed[e] = true
		c.probedDistinct++
		for c.minUnprobed < c.n && c.probed[c.minUnprobed] {
			c.minUnprobed++
		}
		if !c.cleared[e] {
			c.live = append(c.live, e)
			if len(c.live) > c.bufferPeak {
				c.bufferPeak = len(c.live)
			}
		}
	}
	if c.cleared[e] {
		return
	}
	row := c.seen[e]
	if row == nil {
		row = c.rows.carve()
	}
	c.seen[e] = insertAscending(row, pos2)
}

// worst2 is the certified upper bound on e's doubled median: the needed-th
// smallest observed position, nraInf until `needed` positions are known
// (missing positions could be arbitrarily deep).
func (c *nraCore) worst2(e int) int64 {
	if len(c.seen[e]) < c.needed {
		return nraInf
	}
	return c.seen[e][c.needed-1]
}

// best2 is the certified lower bound on e's doubled median: the needed-th
// smallest of its observed positions merged with the frontiers of the slots
// where it is unknown (an unseen position is at least that list's frontier).
func (c *nraCore) best2(e int) int64 {
	return c.frontier.kthMerged(c.seen[e], c.needed, c.known, e)
}

// clear drops e from the race for good and releases its position buffer.
// Sound by monotonicity (see the type comment); the driver's logs retain the
// raw entries for replay after a list death, when the instance — and hence
// every clearance — is recomputed from scratch.
func (c *nraCore) clear(e int) {
	c.cleared[e] = true
	c.rows.release(c.seen[e])
	c.seen[e] = nil
}

// minIncompleteBest returns the live candidate with the lexicographically
// smallest (best2, id) among those missing at least one position — the most
// useful random-access target — or -1 when every live candidate is complete.
func (c *nraCore) minIncompleteBest() int {
	best := -1
	var bestV int64
	for _, e := range c.live {
		if c.cleared[e] || len(c.seen[e]) == c.m {
			continue
		}
		if v := c.best2(e); best == -1 || lexLT(v, e, bestV, best) {
			best, bestV = e, v
		}
	}
	return best
}

// check runs the round-granular certification test: done reports whether k
// intervals strictly dominate every other element (probed or not), and
// blocker names the most blocking resolvable candidate (-1 when only
// never-probed elements block, which no random access can help — only deeper
// sorted scanning raises their shared frontier bound).
func (c *nraCore) check() (done bool, blocker int) {
	if c.k == 0 {
		return true, -1
	}
	// Compact out candidates cleared on earlier checks.
	keep := c.live[:0]
	for _, e := range c.live {
		if !c.cleared[e] {
			keep = append(keep, e)
		}
	}
	c.live = keep

	// The domination bar: the k-th lexicographically smallest (worst2, id).
	c.bar.reset()
	for _, e := range c.live {
		if w := c.worst2(e); w != nraInf {
			c.bar.push(bound{w, e})
		}
	}
	if c.bar.len() < c.k {
		// Fewer than k closed worst-case bounds: no bar to dominate yet.
		return false, c.minIncompleteBest()
	}
	bar := c.bar.max()
	barV, barID := bar.v, bar.e

	// Never-probed elements share the bound (needed-th smallest frontier,
	// smallest unprobed ID); checked first because it is O(1).
	done = true
	if c.probedDistinct < c.n {
		u := c.frontier.kth(c.needed)
		if !lexLT(barV, barID, u, c.minUnprobed) {
			done = false
		}
	}
	var blockV int64
	blocker = -1
	for _, e := range c.live {
		w := c.worst2(e)
		if !lexLT(barV, barID, w, e) {
			continue // member of the current top-k set
		}
		bv := c.best2(e)
		if lexLT(barV, barID, bv, e) {
			c.clear(e) // can never re-enter: best2 only grows, the bar only shrinks
			continue
		}
		done = false
		if blocker == -1 || lexLT(bv, e, blockV, blocker) {
			blocker, blockV = e, bv
		}
	}
	return done, blocker
}

// nraCand is a candidate of the final answer: its certified median bound,
// its best case and its ID, ordered by (med2, lo2, e).
type nraCand struct {
	e         int
	med2, lo2 int64
}

func nraCandLess(a, b nraCand) bool {
	if a.med2 != b.med2 {
		return a.med2 < b.med2
	}
	if a.lo2 != b.lo2 {
		return a.lo2 < b.lo2
	}
	return a.e < b.e
}

// finalTopK extracts the answer at a certified stop: the k lexicographically
// smallest (median-bound, best-case, id) triples over every non-cleared
// element, which is exactly the dominating set (everything else was cleared
// or never probed). An element with no closed worst-case bound ranks by the
// bottom-of-order sentinel, behind every winner. The k best are kept in a
// bounded heap and only they are sorted; an element whose median bound is
// already above the k-th kept one cannot enter, so its best case is never
// computed.
func (c *nraCore) finalTopK() (winners []int, medians2 []int64, intervals [][2]int64) {
	c.sel.init(c.k, nraCandLess)
	for e := 0; e < c.n; e++ {
		if c.cleared[e] {
			continue
		}
		med := c.worst2(e)
		if med == nraInf {
			med = nraInf - 1 // bottom-of-order sentinel, ties broken by ID
		}
		if c.sel.len() == c.k && (c.k == 0 || med > c.sel.max().med2) {
			continue
		}
		c.sel.push(nraCand{e, med, c.best2(e)})
	}
	top := c.sel.sorted()
	winners = make([]int, len(top))
	medians2 = make([]int64, len(top))
	intervals = make([][2]int64, len(top))
	for i, cd := range top {
		winners[i], medians2[i] = cd.e, cd.med2
		hi := c.worst2(cd.e)
		intervals[i] = [2]int64{min(cd.lo2, hi), hi}
	}
	return winners, medians2, intervals
}

// caDriver runs the interval-certification core (nraCore) over the sources,
// for both NRA (ratio 0: sorted access only) and CA (ratio > 0: a
// random-access resolution every ~ratio sorted rounds). It keeps
// per-original-list logs of every consumed entry — sequential AND random,
// since CA's random lookups are real knowledge a rebuilt core must not lose —
// and rebuilds a fresh core over the survivors when a list dies. Rebuilding
// from scratch also re-derives every buffer clearance: a clearance proved
// against the old instance (all m lists) need not hold against the survivor
// instance, so none of them are carried over.
type caDriver struct {
	lists
	n, k  int
	ratio int // sorted rounds between random-access resolutions; 0 = never (NRA)

	seqLogs  [][]Entry // per original list: every entry consumed sequentially
	randLogs [][]Entry // per original list: every position fetched by random access

	core       nraCore
	rrNext     int
	sinceRA    int     // sorted rounds since the last random-access resolution
	bufferPeak int     // max over rebuilds of the core's candidate-buffer peak
	front      []int64 // rebuild's survivor frontiers
}

// reset readies the driver for an NRA (ratio 0) or CA run over sources,
// keeping every buffer of its previous run.
func (f *caDriver) reset(sources []faults.Source, acc *telemetry.AccessAccountant, n, k, ratio int) {
	m := len(sources)
	f.lists.reset(sources, acc)
	f.n, f.k, f.ratio = n, k, ratio
	f.seqLogs = resize(f.seqLogs, m)
	f.randLogs = resize(f.randLogs, m)
	for i := 0; i < m; i++ {
		f.seqLogs[i], f.randLogs[i] = f.seqLogs[i][:0], f.randLogs[i][:0]
	}
	f.rrNext, f.bufferPeak = 0, 0
	f.core.bufferPeak = 0
	f.rebuild()
}

// rebuild readies the certification core over the currently alive lists and
// replays both logs of every survivor into it. Exact for the same reason
// medrankDriver.rebuild is: every unseen position of a survivor is at least
// that list's current frontier.
func (f *caDriver) rebuild() {
	core := &f.core
	f.bufferPeak = max(f.bufferPeak, core.bufferPeak)
	f.front = resize(f.front, len(f.aliveIdx))
	for li, orig := range f.aliveIdx {
		f.front[li] = f.sources[orig].Peek2()
	}
	core.reset(f.n, f.k, f.front)
	for li, orig := range f.aliveIdx {
		for _, e := range f.seqLogs[orig] {
			core.add(li, e.Elem, e.Pos2)
		}
		for _, e := range f.randLogs[orig] {
			core.add(li, e.Elem, e.Pos2)
		}
	}
	if f.rrNext >= len(f.aliveIdx) {
		f.rrNext = 0
	}
	f.sinceRA = 0
}

// drive alternates certification checks with work: a random-access
// resolution when one is due and useful, otherwise one sorted round over the
// survivors. The check runs at round granularity (the textbook NRA schedule)
// rather than per probe: a per-probe check would cost O(candidates·m) per
// entry consumed. The context is checked once per round, which is at most m
// probes.
func (f *caDriver) drive(ctx context.Context) error {
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		done, blocker := f.core.check()
		if done {
			return nil
		}
		if f.ratio > 0 && blocker >= 0 && f.sinceRA >= f.ratio {
			if err := f.resolve(ctx, blocker); err != nil {
				return err
			}
			f.sinceRA = 0
			continue
		}
		progressed, err := f.round(ctx)
		if err != nil {
			return err
		}
		if !progressed {
			// Every survivor's scan ended without a certificate, which full
			// knowledge of complete lists always gives.
			return ErrScanEnded
		}
		f.sinceRA++
	}
}

// round performs one sorted access on each live survivor list in round-robin
// order. A death mid-round aborts the round (the rebuilt core must be
// re-checked before more work is scheduled against it).
func (f *caDriver) round(ctx context.Context) (bool, error) {
	progressed := false
	for t, m := 0, len(f.aliveIdx); t < m; t++ {
		if f.rrNext >= len(f.aliveIdx) {
			f.rrNext = 0
		}
		li := f.rrNext
		f.rrNext = (f.rrNext + 1) % len(f.aliveIdx)
		if f.core.frontier.val[li] == math.MaxInt64 {
			continue
		}
		orig := f.aliveIdx[li]
		e, ok, err := f.sources[orig].Next(ctx)
		if err != nil {
			if err := f.kill(orig, err); err != nil {
				return false, err
			}
			return true, nil
		}
		if !ok {
			f.core.frontier.advance(li, math.MaxInt64)
			continue
		}
		f.acc.BucketIO(orig)
		progressed = true
		f.seqLogs[orig] = append(f.seqLogs[orig], e)
		f.core.add(li, e.Elem, e.Pos2)
		f.core.frontier.advance(li, f.sources[orig].Peek2())
	}
	return progressed, nil
}

// resolve closes the blocking candidate's interval: one random access per
// surviving list where its position is still unknown. Fetched positions are
// logged so a later rebuild replays them — random-access knowledge survives
// list deaths just like sorted knowledge.
func (f *caDriver) resolve(ctx context.Context, e int) error {
	for li := 0; li < len(f.aliveIdx); li++ {
		if f.core.knownIn(li, e) {
			continue
		}
		orig := f.aliveIdx[li]
		v, err := f.sources[orig].Pos2(ctx, e)
		if err != nil {
			// On a death the survivor slots shift; the caller re-checks.
			return f.kill(orig, err)
		}
		f.randLogs[orig] = append(f.randLogs[orig], Entry{Elem: e, Pos2: v})
		f.core.add(li, e, v)
	}
	return nil
}

// kill handles an access error on list orig: the run stops on a context
// error or when no list survives, and otherwise continues over a rebuilt
// core (survivor slots renumbered).
func (f *caDriver) kill(orig int, err error) error {
	if err := f.fail(orig, err); err != nil {
		return err
	}
	f.rebuild()
	return nil
}

func (f *caDriver) answer() *Result {
	winners, medians2, intervals := f.core.finalTopK()
	f.bufferPeak = max(f.bufferPeak, f.core.bufferPeak)
	res := &Result{Winners: winners, Medians2: medians2, Intervals2: intervals, BufferPeak: f.bufferPeak}
	if len(f.lost) > 0 {
		// A random-accessed position is exactly as authoritative as a
		// scanned one.
		res.Degraded = f.degraded(logPositions(winners, len(f.sources), f.seqLogs, f.randLogs))
	}
	return res
}
