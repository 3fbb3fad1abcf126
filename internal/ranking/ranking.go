// Package ranking implements bucket orders and partial rankings, the core
// data model of Fagin, Kumar, Mahdian, Sivakumar, and Vee, "Comparing and
// Aggregating Rankings with Ties" (PODS 2004), Section 2.
//
// A bucket order is a linear order with ties: a partition of the domain into
// ordered buckets B1, ..., Bt. The partial ranking associated with a bucket
// order assigns every element x the position of its bucket,
//
//	pos(Bi) = sum_{j<i} |Bj| + (|Bi|+1)/2,
//
// the average location within the bucket. A full ranking is the special case
// where every bucket is a singleton, and a top-k list is the special case of
// k singleton buckets followed by one bucket holding the rest of the domain.
//
// Elements are dense integers 0..n-1; Domain interns human-readable names.
// Positions are always integral multiples of 1/2, so the package stores
// doubled positions exactly as int64 and exposes float64 at the API surface.
// PartialRanking values are immutable after construction.
package ranking

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync/atomic"
)

// PartialRanking is an immutable bucket order over the domain {0, ..., n-1}.
//
// The zero value is not useful; construct values with FromBuckets, FromOrder,
// FromScores, TopKList, or the refinement operators.
type PartialRanking struct {
	n        int
	buckets  [][]int // elements of each bucket, ascending within a bucket
	bucketOf []int   // element -> index of its bucket
	pos2     []int64 // bucket index -> doubled position 2*pos(Bi)

	// fp memoizes the 128-bit content hash of Fingerprint. Lazily published
	// through an atomic pointer so the ranking stays immutable to observers;
	// nil until the first Fingerprint call.
	fp atomic.Pointer[Fingerprint]
}

// FromBuckets builds a partial ranking over {0..n-1} from an ordered list of
// buckets. The buckets must form a partition of the domain: every element
// exactly once, no empty buckets. The input slices are copied.
func FromBuckets(n int, buckets [][]int) (*PartialRanking, error) {
	owned := make([][]int, len(buckets))
	for bi, b := range buckets {
		owned[bi] = slices.Clone(b)
	}
	return fromOwnedBuckets(n, owned)
}

// fromOwnedBuckets is FromBuckets on buckets the ranking keeps: it validates
// them and sorts each one in place.
func fromOwnedBuckets(n int, buckets [][]int) (*PartialRanking, error) {
	if n < 0 {
		return nil, fmt.Errorf("ranking: negative domain size %d", n)
	}
	seen := make([]bool, n)
	total := 0
	for bi, b := range buckets {
		if len(b) == 0 {
			return nil, fmt.Errorf("ranking: bucket %d is empty", bi)
		}
		for _, e := range b {
			if e < 0 || e >= n {
				return nil, fmt.Errorf("ranking: element %d out of domain [0,%d)", e, n)
			}
			if seen[e] {
				return nil, fmt.Errorf("ranking: element %d appears twice", e)
			}
			seen[e] = true
			total++
		}
	}
	if total != n {
		return nil, fmt.Errorf("ranking: buckets cover %d of %d elements", total, n)
	}
	pr := &PartialRanking{
		n:        n,
		buckets:  buckets,
		bucketOf: make([]int, n),
		pos2:     make([]int64, len(buckets)),
	}
	var before int64
	for bi, b := range buckets {
		sort.Ints(b)
		for _, e := range b {
			pr.bucketOf[e] = bi
		}
		pr.pos2[bi] = 2*before + int64(len(b)) + 1
		before += int64(len(b))
	}
	return pr, nil
}

// MustFromBuckets is FromBuckets that panics on invalid input. It is intended
// for literals in tests and examples.
func MustFromBuckets(n int, buckets [][]int) *PartialRanking {
	pr, err := FromBuckets(n, buckets)
	if err != nil {
		panic(err)
	}
	return pr
}

// FromOrder builds a full ranking from a permutation listed best-first:
// order[0] is the top element, order[len-1] the bottom. Every bucket is a
// singleton, a cap-limited subslice of one copy of order.
func FromOrder(order []int) (*PartialRanking, error) {
	elems := slices.Clone(order)
	buckets := make([][]int, len(elems))
	for i := range elems {
		buckets[i] = elems[i : i+1 : i+1]
	}
	return fromOwnedBuckets(len(elems), buckets)
}

// MustFromOrder is FromOrder that panics on invalid input.
func MustFromOrder(order []int) *PartialRanking {
	pr, err := FromOrder(order)
	if err != nil {
		panic(err)
	}
	return pr
}

// FromScores builds the partial ranking induced by a score function: elements
// are ordered by ascending score, and elements with exactly equal scores are
// tied in one bucket. This is the "f-bar" construction of Section 6 of the
// paper (a function f: D -> R naturally defines a partial ranking). Scores
// are ordered as cmp.Compare orders them: -0 ties +0, and every NaN ties
// every other NaN in one bucket ahead of all numbers.
func FromScores(scores []float64) *PartialRanking {
	n := len(scores)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	slices.SortFunc(idx, func(a, b int) int { return cmp.Compare(scores[a], scores[b]) })
	var buckets [][]int
	for i := 0; i < n; {
		j := i + 1
		for j < n && cmp.Compare(scores[idx[j]], scores[idx[i]]) == 0 {
			j++
		}
		buckets = append(buckets, idx[i:j:j])
		i = j
	}
	pr, err := fromOwnedBuckets(n, buckets)
	if err != nil {
		// Unreachable: the construction above always yields a partition.
		panic(err)
	}
	return pr
}

// TopKList builds a top-k list over {0..n-1}: the first k entries of order
// become singleton buckets, and the remaining n-k domain elements form one
// bottom bucket. order must list at least k distinct elements; elements of
// the domain not among the first k land in the bottom bucket.
func TopKList(n, k int, order []int) (*PartialRanking, error) {
	if k < 0 || k > n {
		return nil, fmt.Errorf("ranking: k=%d out of range [0,%d]", k, n)
	}
	if len(order) < k {
		return nil, fmt.Errorf("ranking: order has %d elements, need at least k=%d", len(order), k)
	}
	inTop := make([]bool, n)
	// Every bucket is a cap-limited subslice of elems, which never grows
	// past its capacity n.
	elems := make([]int, 0, n)
	buckets := make([][]int, 0, k+1)
	for i := 0; i < k; i++ {
		e := order[i]
		if e < 0 || e >= n {
			return nil, fmt.Errorf("ranking: element %d out of domain [0,%d)", e, n)
		}
		if inTop[e] {
			return nil, fmt.Errorf("ranking: element %d appears twice in top-k", e)
		}
		inTop[e] = true
		elems = append(elems, e)
		buckets = append(buckets, elems[i:i+1:i+1])
	}
	if k < n {
		for e := 0; e < n; e++ {
			if !inTop[e] {
				elems = append(elems, e)
			}
		}
		buckets = append(buckets, elems[k:n:n])
	}
	return fromOwnedBuckets(n, buckets)
}

// N returns the domain size.
func (pr *PartialRanking) N() int { return pr.n }

// NumBuckets returns the number of buckets t.
func (pr *PartialRanking) NumBuckets() int { return len(pr.buckets) }

// Bucket returns the elements of bucket i in ascending element order. The
// returned slice is shared with the ranking and must not be modified.
func (pr *PartialRanking) Bucket(i int) []int { return pr.buckets[i] }

// BucketOf returns the index of the bucket containing element e.
func (pr *PartialRanking) BucketOf(e int) int { return pr.bucketOf[e] }

// BucketSize returns |Bi|.
func (pr *PartialRanking) BucketSize(i int) int { return len(pr.buckets[i]) }

// Pos returns sigma(e) = pos(B) for the bucket B of e, as defined in
// Section 2 of the paper. The value is always an integral multiple of 1/2.
func (pr *PartialRanking) Pos(e int) float64 { return float64(pr.pos2[pr.bucketOf[e]]) / 2 }

// Pos2 returns the doubled position 2*sigma(e) as an exact integer.
func (pr *PartialRanking) Pos2(e int) int64 { return pr.pos2[pr.bucketOf[e]] }

// BucketPos2 returns the doubled position of bucket i.
func (pr *PartialRanking) BucketPos2(i int) int64 { return pr.pos2[i] }

// BucketIndices returns the element -> bucket-index vector: entry e is
// BucketOf(e). The returned slice is shared with the ranking and must not be
// modified; it exists so the metric kernels can walk rankings without copies
// or per-element method calls.
func (pr *PartialRanking) BucketIndices() []int { return pr.bucketOf }

// BucketPositions2 returns the doubled position of every bucket: entry i is
// BucketPos2(i). The returned slice is shared with the ranking and must not
// be modified. Together with BucketIndices it gives copy-free access to the
// position vector: Pos2(e) = BucketPositions2()[BucketIndices()[e]].
func (pr *PartialRanking) BucketPositions2() []int64 { return pr.pos2 }

// Positions returns the full position vector sigma(0..n-1), the F-profile of
// Section 3.1. The slice is freshly allocated.
func (pr *PartialRanking) Positions() []float64 {
	out := make([]float64, pr.n)
	for e := 0; e < pr.n; e++ {
		out[e] = pr.Pos(e)
	}
	return out
}

// Positions2 returns the doubled position vector as exact integers.
func (pr *PartialRanking) Positions2() []int64 {
	out := make([]int64, pr.n)
	for e := 0; e < pr.n; e++ {
		out[e] = pr.pos2[pr.bucketOf[e]]
	}
	return out
}

// Tied reports whether elements a and b occupy the same bucket.
func (pr *PartialRanking) Tied(a, b int) bool { return pr.bucketOf[a] == pr.bucketOf[b] }

// Ahead reports whether a is ahead of b, i.e. sigma(a) < sigma(b).
func (pr *PartialRanking) Ahead(a, b int) bool { return pr.bucketOf[a] < pr.bucketOf[b] }

// IsFull reports whether every bucket is a singleton, i.e. the ranking is a
// permutation of the domain.
func (pr *PartialRanking) IsFull() bool { return len(pr.buckets) == pr.n }

// IsTopK reports whether the ranking is a top-k list (k singleton buckets
// followed by one bucket with everything else) and returns that k. A full
// ranking is a top-n list (and also a top-(n-1) list; the largest k is
// returned). The empty ranking is a top-0 list.
func (pr *PartialRanking) IsTopK() (k int, ok bool) {
	t := len(pr.buckets)
	for i := 0; i < t; i++ {
		if len(pr.buckets[i]) != 1 {
			if i == t-1 {
				return i, true
			}
			return 0, false
		}
	}
	return pr.n, true
}

// Type returns type(sigma) = |B1|, |B2|, ..., |Bt| (Appendix A.1).
func (pr *PartialRanking) Type() []int {
	out := make([]int, len(pr.buckets))
	for i, b := range pr.buckets {
		out[i] = len(b)
	}
	return out
}

// Order returns the elements best-first, with ties broken by ascending
// element ID. For a full ranking this is the inverse permutation of the
// position vector.
func (pr *PartialRanking) Order() []int {
	out := make([]int, 0, pr.n)
	for _, b := range pr.buckets {
		out = append(out, b...)
	}
	return out
}

// Equal reports whether two partial rankings are identical as bucket orders
// (same domain, same buckets in the same order).
func (pr *PartialRanking) Equal(other *PartialRanking) bool {
	if pr.n != other.n || len(pr.buckets) != len(other.buckets) {
		return false
	}
	for e := 0; e < pr.n; e++ {
		if pr.bucketOf[e] != other.bucketOf[e] {
			return false
		}
	}
	return true
}

// Clone returns a deep copy. Because PartialRanking is immutable this is
// rarely needed; it exists for callers that want defensive ownership.
func (pr *PartialRanking) Clone() *PartialRanking {
	cp := &PartialRanking{
		n:        pr.n,
		buckets:  make([][]int, len(pr.buckets)),
		bucketOf: append([]int(nil), pr.bucketOf...),
		pos2:     append([]int64(nil), pr.pos2...),
	}
	for i, b := range pr.buckets {
		cp.buckets[i] = append([]int(nil), b...)
	}
	return cp
}

// String renders the ranking in the text codec format: buckets best-first
// separated by " | ", elements within a bucket separated by spaces, using
// numeric element IDs.
func (pr *PartialRanking) String() string {
	var sb strings.Builder
	for bi, b := range pr.buckets {
		if bi > 0 {
			sb.WriteString(" | ")
		}
		for ei, e := range b {
			if ei > 0 {
				sb.WriteByte(' ')
			}
			fmt.Fprintf(&sb, "%d", e)
		}
	}
	return sb.String()
}

// ErrDomainMismatch is returned by operations that require two rankings over
// the same domain.
var ErrDomainMismatch = errors.New("ranking: rankings have different domain sizes")

// CheckSameDomain returns ErrDomainMismatch unless all rankings share one
// domain size.
func CheckSameDomain(rs ...*PartialRanking) error {
	for i := 1; i < len(rs); i++ {
		if rs[i].n != rs[0].n {
			return ErrDomainMismatch
		}
	}
	return nil
}
