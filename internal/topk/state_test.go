package topk

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// pickMergeRef is GlobalMerge's probe choice by linear scan: the lowest slot
// among those with the smallest frontier, -1 when every scan has ended.
func pickMergeRef(val []int64) int {
	best, bestPos := -1, int64(math.MaxInt64)
	for i, p := range val {
		if p < bestPos {
			best, bestPos = i, p
		}
	}
	return best
}

// TestFrontiersStayOrdered applies random monotone frontier updates — small
// steps that make and break ties, no-op advances, and scans ending at
// math.MaxInt64 — and checks after each that the kept order equals a fresh
// sort by (frontier, slot), and that first and kth equal the linear scan and
// kthSmallest they replace. Widths cross 64 lists.
func TestFrontiersStayOrdered(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		m := 1 + rng.Intn(80)
		val := make([]int64, m)
		for s := range val {
			val[s] = int64(rng.Intn(6))
		}
		f := newFrontiers(slices.Clone(val))
		for step := 0; step < 300; step++ {
			s := rng.Intn(m)
			switch r := rng.Intn(10); {
			case r == 0:
				val[s] = math.MaxInt64
			case val[s] < math.MaxInt64:
				val[s] += int64(r % 3)
			}
			f.advance(s, val[s])

			want := make([]int, m)
			for i := range want {
				want[i] = i
			}
			slices.SortStableFunc(want, func(a, b int) int {
				switch {
				case val[a] < val[b]:
					return -1
				case val[a] > val[b]:
					return 1
				}
				return 0
			})
			if !slices.Equal(f.order, want) || !slices.Equal(f.val, val) {
				t.Fatalf("trial %d step %d: order %v over %v, want %v over %v", trial, step, f.order, f.val, want, val)
			}
			if got, want := f.first(), pickMergeRef(val); got != want {
				t.Fatalf("trial %d step %d: first = %d, linear scan %d", trial, step, got, want)
			}
			k := 1 + rng.Intn(m)
			if got, want := f.kth(k), kthSmallest(val, k); got != want {
				t.Fatalf("trial %d step %d: kth(%d) = %d, kthSmallest %d", trial, step, k, got, want)
			}
		}
	}
}

// mergedBoundRef is the definition medianLB and best2 share, computed by
// sorting: the needed-th smallest of an element's known positions together
// with the frontiers of the lists where its position is unknown.
func mergedBoundRef(known []int64, front []int64, isKnown func(li int) bool, needed int) int64 {
	all := slices.Clone(known)
	for li, f := range front {
		if !isKnown(li) {
			all = append(all, f)
		}
	}
	slices.Sort(all)
	return all[needed-1]
}

// tryExactRef is tryExact's definition: the needed-th smallest seen
// position, once no list that has not yielded the element has a frontier
// below it.
func tryExactRef(seen []int64, front []int64, isKnown func(li int) bool, needed int) (int64, bool) {
	if len(seen) < needed {
		return 0, false
	}
	med := kthSmallest(seen, needed)
	for li, f := range front {
		if f < med && !isKnown(li) {
			return 0, false
		}
	}
	return med, true
}

// TestMergedBoundsMatchSortDefinitions builds random MEDRANK and NRA
// certification states — positions fed in random order, tie-heavy values,
// ended scans — and checks medianLB, best2, worst2 and tryExact, which read
// the ascending rows and the ordered frontiers, against their sort-based
// definitions.
func TestMergedBoundsMatchSortDefinitions(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 300; trial++ {
		n, m := 1+rng.Intn(30), 1+rng.Intn(12)
		needed := (m + 1) / 2
		front := make([]int64, m)
		for li := range front {
			front[li] = int64(rng.Intn(40))
			if rng.Intn(10) == 0 {
				front[li] = math.MaxInt64
			}
		}
		bits := make([][]uint64, m)
		for li := range bits {
			bits[li] = make([]uint64, (n+63)/64)
		}
		seen := make([][]int64, n)
		var feed []struct {
			li int
			e  Entry
		}
		for e := 0; e < n; e++ {
			for li := 0; li < m; li++ {
				if rng.Intn(3) != 0 {
					continue
				}
				hi := front[li]
				if hi == math.MaxInt64 {
					hi = 60
				}
				p := rng.Int63n(hi + 1)
				bits[li][e>>6] |= 1 << (uint(e) & 63)
				seen[e] = append(seen[e], p)
				feed = append(feed, struct {
					li int
					e  Entry
				}{li, Entry{Elem: e, Pos2: p}})
			}
		}
		rng.Shuffle(len(feed), func(i, j int) { feed[i], feed[j] = feed[j], feed[i] })

		k := rng.Intn(n + 1)
		run := newMedrankRun(n, k, slices.Clone(front), bits)
		core := newNRACore(n, k, slices.Clone(front))
		for _, x := range feed {
			run.add(x.e)
			core.add(x.li, x.e.Elem, x.e.Pos2)
		}
		for e := 0; e < n; e++ {
			isKnown := func(li int) bool { return bits[li][e>>6]&(1<<(uint(e)&63)) != 0 }
			want := mergedBoundRef(seen[e], front, isKnown, needed)
			if got := run.medianLB(e); got != want {
				t.Fatalf("trial %d element %d: medianLB = %d, definition %d", trial, e, got, want)
			}
			if got := core.best2(e); got != want {
				t.Fatalf("trial %d element %d: best2 = %d, definition %d", trial, e, got, want)
			}
			wantWorst := nraInf
			if len(seen[e]) >= needed {
				wantWorst = kthSmallest(seen[e], needed)
			}
			if got := core.worst2(e); got != wantWorst {
				t.Fatalf("trial %d element %d: worst2 = %d, definition %d", trial, e, got, wantWorst)
			}
			gotMed, gotOK := run.tryExact(e)
			wantMed, wantOK := tryExactRef(seen[e], front, isKnown, needed)
			if gotOK != wantOK || (gotOK && gotMed != wantMed) {
				t.Fatalf("trial %d element %d: tryExact = (%d, %v), definition (%d, %v)", trial, e, gotMed, gotOK, wantMed, wantOK)
			}
		}
	}
}
