package topk

import (
	"cmp"
	"math"
	"slices"
)

// This file holds the certification state the engine drivers share: the
// ordered frontiers, the ascending per-element position rows and the bounded
// heap of the k smallest medians. With them no certification step sorts or
// allocates per probe or per round: a sorted order is kept as entries arrive
// rather than rebuilt when it is read.

// frontiers holds each slot's frontier — the doubled position of its list's
// next unread entry, math.MaxInt64 once the scan has ended or the list is
// dead — and keeps the slots ordered by (frontier, slot). GlobalMerge's next
// probe is the first slot of the order, the bound every never-probed element
// shares is one index into it, and an element's median lower bound is a
// merge of its seen positions with the order.
//
// Frontiers only grow (a sorted scan never moves back), so an advance moves
// its slot towards the end of the order: two binary searches and one block
// copy, whatever the distance.
type frontiers struct {
	val   []int64 // per slot
	order []int   // the slots, ascending by (val, slot)
}

// reset sets the frontiers to front's values and orders the slots. It keeps
// its storage, so a pooled run orders its slots without allocating.
func (f *frontiers) reset(front []int64) {
	f.val = append(f.val[:0], front...)
	f.order = resize(f.order, len(front))
	for s := range f.order {
		f.order[s] = s
	}
	slices.SortFunc(f.order, func(a, b int) int {
		if c := cmp.Compare(f.val[a], f.val[b]); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
}

// precedes reports whether slot a's key (val[a], a) is below (v, s).
func (f *frontiers) precedes(a int, v int64, s int) bool {
	return f.val[a] < v || (f.val[a] == v && a < s)
}

// search returns the first index of order[lo:] whose key is not below (v, s).
func (f *frontiers) search(lo int, v int64, s int) int {
	hi := len(f.order)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if f.precedes(f.order[mid], v, s) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// advance raises slot s's frontier to v, which must be at least its current
// frontier, and moves s to its new place in the order.
func (f *frontiers) advance(s int, v int64) {
	if v == f.val[s] {
		return
	}
	i := f.search(0, f.val[s], s) // s's current place
	f.val[s] = v
	j := f.search(i+1, v, s) - 1 // the last key below (v, s) moves down to make room
	copy(f.order[i:j], f.order[i+1:j+1])
	f.order[j] = s
}

// first returns the slot with the smallest (frontier, slot) — the lowest slot
// among those tied at the smallest frontier — or -1 when every scan has ended.
func (f *frontiers) first() int {
	if s := f.order[0]; f.val[s] < math.MaxInt64 {
		return s
	}
	return -1
}

// kth returns the k-th smallest (1-based) frontier.
func (f *frontiers) kth(k int) int64 {
	return f.val[f.order[k-1]]
}

// kthMerged returns the k-th smallest (1-based) of an element's ascending
// row of known positions merged with the frontiers of the slots whose bitmap
// does not hold the element: a lower bound on the element's k-th smallest
// position, since an unknown position is at least its list's frontier. The
// row holds one position per slot whose bitmap holds e, so the merge has one
// value per slot and k must be at most the number of slots. It walks at most
// k values plus the known slots it skips.
func (f *frontiers) kthMerged(row []int64, k int, known [][]uint64, e int) int64 {
	if len(row) == len(f.order) {
		return row[k-1]
	}
	word, bit := e>>6, uint64(1)<<(uint(e)&63)
	j := 0 // next unmerged row entry
	for _, s := range f.order {
		if known[s][word]&bit != 0 {
			continue // s's position is in the row
		}
		v := f.val[s]
		for ; j < len(row) && row[j] <= v; j++ {
			if k--; k == 0 {
				return row[j]
			}
		}
		if k--; k == 0 {
			return v
		}
	}
	return row[j+k-1]
}

// slabRows is how many position rows one slab allocation holds at most. An
// element's row is carved on its first probe, so a run allocates rows only
// for the elements it reaches, never n·m up front: an engine may read only a
// prefix of its lists.
const slabRows = 64

// rowSlab carves rows with room for width positions from slabs of up to
// slabRows rows. A row released by an element no step reads again is carved
// again before the slab grows. The slabs outlive the run: the next run on the
// same workspace carves from them before it allocates another, so a warm
// workspace allocates no rows at all.
type rowSlab struct {
	width, rows int       // positions per row, rows per new slab
	slabs       [][]int64 // every slab carved so far
	next        int       // slabs[next:] are untouched by this run
	slab        []int64   // unused tail of the current slab
	spare       [][]int64 // released rows
}

// reset readies the slab for rows of width positions over a domain of n
// elements and hands every kept slab out again. A new slab holds no more rows
// than there are elements, so a catalog of many lists over a small domain
// never allocates rows no element can take.
func (s *rowSlab) reset(n, width int) {
	s.width, s.rows = width, min(slabRows, n)
	s.next, s.slab, s.spare = 0, nil, s.spare[:0]
}

// carve returns an empty row of capacity width.
func (s *rowSlab) carve() []int64 {
	if n := len(s.spare); n > 0 {
		row := s.spare[n-1][:0]
		s.spare = s.spare[:n-1]
		return row
	}
	for len(s.slab) < s.width {
		if s.next == len(s.slabs) {
			s.slabs = append(s.slabs, make([]int64, s.rows*s.width))
		}
		s.slab = s.slabs[s.next]
		s.next++
	}
	row := s.slab[:0:s.width]
	s.slab = s.slab[s.width:]
	return row
}

// release hands back a row nothing reads any more.
func (s *rowSlab) release(row []int64) {
	s.spare = append(s.spare, row)
}

// insertAscending inserts v into the ascending row. A row is carved with room
// for one position per slot and each slot yields an element once, so the
// insert stays within the row's capacity. New positions usually belong at the
// end (scans advance together), so the search starts there.
func insertAscending(row []int64, v int64) []int64 {
	i := len(row)
	row = append(row, v)
	for ; i > 0 && row[i-1] > v; i-- {
		row[i] = row[i-1]
	}
	row[i] = v
	return row
}

// kSmallest keeps the k smallest items pushed into it under less, as a
// max-heap whose root is the k-th smallest once k items are in. It is typed,
// so a push boxes nothing, and reset keeps its storage for the next round and
// the next run.
type kSmallest[T any] struct {
	k    int
	less func(a, b T) bool
	h    []T
}

// init empties the heap and sets the number of items it keeps.
func (q *kSmallest[T]) init(k int, less func(a, b T) bool) {
	q.k, q.less, q.h = k, less, q.h[:0]
}

// len returns how many items the heap holds, at most k.
func (q *kSmallest[T]) len() int { return len(q.h) }

// max returns the largest item held: the k-th smallest pushed once the heap
// is full.
func (q *kSmallest[T]) max() T { return q.h[0] }

// reset empties the heap.
func (q *kSmallest[T]) reset() { q.h = q.h[:0] }

// push offers x: it is kept while fewer than k items are held or when it is
// below the largest, which it then replaces.
func (q *kSmallest[T]) push(x T) {
	h := q.h
	switch {
	case len(h) < q.k:
		h = append(h, x)
		for i := len(h) - 1; i > 0; {
			p := (i - 1) / 2
			if !q.less(h[p], h[i]) {
				break
			}
			h[p], h[i] = h[i], h[p]
			i = p
		}
		q.h = h
	case q.k > 0 && q.less(x, h[0]):
		h[0] = x
		for i := 0; ; {
			c := 2*i + 1
			if c >= len(h) {
				break
			}
			if c+1 < len(h) && q.less(h[c], h[c+1]) {
				c++
			}
			if !q.less(h[i], h[c]) {
				break
			}
			h[i], h[c] = h[c], h[i]
			i = c
		}
	}
}

// selectTopK returns, best-first, the k smallest (median, element) pairs of
// the elements whose doubled median med[e] is known (below math.MaxInt64,
// the unknown mark), split into winners and medians. It keeps k pairs in
// sel, whose storage the next run reuses, and sorts only those: O(n log k)
// where a full sort of the known elements was O(n log n).
func selectTopK(sel *kSmallest[bound], med []int64, k int) (winners []int, medians2 []int64) {
	sel.init(k, boundLess)
	for e, v := range med {
		if v < math.MaxInt64 {
			sel.push(bound{v, e})
		}
	}
	top := sel.sorted()
	winners = make([]int, len(top))
	if len(top) > 0 {
		medians2 = make([]int64, len(top))
	}
	for i, b := range top {
		winners[i], medians2[i] = b.e, b.v
	}
	return winners, medians2
}

// sorted sorts the held items ascending under less and returns them; the heap
// must be reset before the next push.
func (q *kSmallest[T]) sorted() []T {
	slices.SortFunc(q.h, func(a, b T) int {
		switch {
		case q.less(a, b):
			return -1
		case q.less(b, a):
			return 1
		}
		return 0
	})
	return q.h
}

// resize returns s with length n, reusing its storage when its capacity
// allows; elements within the old capacity keep their values, so pooled
// per-list logs keep their storage too.
func resize[T any](s []T, n int) []T {
	if n <= cap(s) {
		return s[:n]
	}
	return append(s[:cap(s)], make([]T, n-cap(s))...)
}

// selectKth returns the k-th smallest (1-based) of xs, which it reorders. It
// is quickselect with a three-way partition: expected O(len(xs)), and a run of
// values equal to the pivot ends the search at once, so few-valued rows take
// as many passes as they have distinct values at most.
func selectKth(xs []int64, k int) int64 {
	k--
	lo, hi := 0, len(xs)
	for {
		if hi-lo <= 12 {
			slices.Sort(xs[lo:hi])
			return xs[k]
		}
		// Median of three as the pivot keeps sorted rows linear.
		a, b, c := xs[lo], xs[lo+(hi-lo)/2], xs[hi-1]
		p := max(min(a, b), min(max(a, b), c))
		// xs[lo:lt] < p, xs[lt:i] == p, xs[gt:hi] > p.
		lt, i, gt := lo, lo, hi
		for i < gt {
			switch v := xs[i]; {
			case v < p:
				xs[lt], xs[i] = v, xs[lt]
				lt++
				i++
			case v > p:
				gt--
				xs[gt], xs[i] = v, xs[gt]
			default:
				i++
			}
		}
		switch {
		case k < lt:
			hi = lt
		case k >= gt:
			lo = gt
		default:
			return p
		}
	}
}
