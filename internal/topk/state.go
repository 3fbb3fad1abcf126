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

// newFrontiers orders the slots of val, which it takes over.
func newFrontiers(val []int64) frontiers {
	f := frontiers{val: val, order: make([]int, len(val))}
	for s := range f.order {
		f.order[s] = s
	}
	slices.SortFunc(f.order, func(a, b int) int {
		if c := cmp.Compare(val[a], val[b]); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	return f
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
// again before the slab grows.
type rowSlab struct {
	width, rows int       // positions per row, rows per slab
	slab        []int64   // unused tail of the current slab
	spare       [][]int64 // released rows
}

// newRowSlab carves rows of width positions for a domain of n elements. A
// slab holds no more rows than there are elements, so a catalog of many
// lists over a small domain never allocates rows no element can take.
func newRowSlab(n, width int) rowSlab {
	return rowSlab{width: width, rows: min(slabRows, n)}
}

// carve returns an empty row of capacity width.
func (s *rowSlab) carve() []int64 {
	if n := len(s.spare); n > 0 {
		row := s.spare[n-1][:0]
		s.spare = s.spare[:n-1]
		return row
	}
	if len(s.slab) < s.width {
		s.slab = make([]int64, s.rows*s.width)
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
// so a push boxes nothing, and reset keeps its storage for the next round.
type kSmallest[T any] struct {
	k    int
	less func(a, b T) bool
	h    []T
}

func newKSmallest[T any](k int, less func(a, b T) bool) kSmallest[T] {
	return kSmallest[T]{k: k, less: less, h: make([]T, 0, k)}
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
