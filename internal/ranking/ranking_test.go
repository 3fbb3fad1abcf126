package ranking

import (
	"math"
	"math/rand"
	"testing"
)

// randomPartial builds a uniform-ish random bucket order over n elements for
// use inside this package's tests (the shared workload generators live in
// internal/randrank, which depends on this package).
func randomPartial(rng *rand.Rand, n int) *PartialRanking {
	perm := rng.Perm(n)
	var buckets [][]int
	for i := 0; i < n; {
		size := 1 + rng.Intn(3)
		if i+size > n {
			size = n - i
		}
		buckets = append(buckets, perm[i:i+size])
		i += size
	}
	return MustFromBuckets(n, buckets)
}

func TestFromBucketsPositions(t *testing.T) {
	pr := MustFromBuckets(5, [][]int{{0, 1}, {2}, {3, 4}})
	wantPos := map[int]float64{0: 1.5, 1: 1.5, 2: 3, 3: 4.5, 4: 4.5}
	for e, want := range wantPos {
		if got := pr.Pos(e); got != want {
			t.Errorf("Pos(%d) = %v, want %v", e, got, want)
		}
	}
	if got := pr.NumBuckets(); got != 3 {
		t.Errorf("NumBuckets = %d, want 3", got)
	}
	if pr.IsFull() {
		t.Error("IsFull = true for a ranking with ties")
	}
}

func TestFromBucketsValidation(t *testing.T) {
	cases := []struct {
		name    string
		n       int
		buckets [][]int
	}{
		{"empty bucket", 2, [][]int{{0}, {}, {1}}},
		{"duplicate element", 2, [][]int{{0}, {0}}},
		{"out of range", 2, [][]int{{0}, {2}}},
		{"missing element", 3, [][]int{{0}, {1}}},
		{"negative element", 2, [][]int{{0}, {-1}}},
		{"negative n", -1, nil},
	}
	for _, tc := range cases {
		if _, err := FromBuckets(tc.n, tc.buckets); err == nil {
			t.Errorf("%s: FromBuckets accepted invalid input", tc.name)
		}
	}
}

func TestFromOrderIsFull(t *testing.T) {
	pr := MustFromOrder([]int{2, 0, 1})
	if !pr.IsFull() {
		t.Fatal("full ranking not detected")
	}
	// Positions of a full ranking are 1..n.
	if pr.Pos(2) != 1 || pr.Pos(0) != 2 || pr.Pos(1) != 3 {
		t.Errorf("positions = %v %v %v, want 1 2 3", pr.Pos(2), pr.Pos(0), pr.Pos(1))
	}
	order := pr.Order()
	if order[0] != 2 || order[1] != 0 || order[2] != 1 {
		t.Errorf("Order() = %v, want [2 0 1]", order)
	}
}

func TestFromScores(t *testing.T) {
	pr := FromScores([]float64{3.5, 1.0, 3.5, 2.0})
	// ascending score: 1 (1.0), 3 (2.0), {0,2} (3.5)
	want := MustFromBuckets(4, [][]int{{1}, {3}, {0, 2}})
	if !pr.Equal(want) {
		t.Errorf("FromScores = %v, want %v", pr, want)
	}
}

// TestFromScoresSpecialValues pins FromScores on the floats equality does not
// order: every NaN ties in one bucket ahead of -Inf (a NaN used to make the
// grouping loop append empty buckets forever), and -0 ties +0.
func TestFromScoresSpecialValues(t *testing.T) {
	nan, inf, negZero := math.NaN(), math.Inf(1), math.Copysign(0, -1)
	pr := FromScores([]float64{1, nan, 0, inf, -inf, nan, negZero, 0})
	want := MustFromBuckets(8, [][]int{{1, 5}, {4}, {2, 6, 7}, {0}, {3}})
	if !pr.Equal(want) {
		t.Errorf("FromScores = %v, want %v", pr, want)
	}
	if pr := FromScores([]float64{nan, nan}); !pr.Equal(MustFromBuckets(2, [][]int{{0, 1}})) {
		t.Errorf("FromScores(NaN, NaN) = %v, want one bucket", pr)
	}
}

func TestTopKList(t *testing.T) {
	pr, err := TopKList(6, 2, []int{4, 1})
	if err != nil {
		t.Fatal(err)
	}
	k, ok := pr.IsTopK()
	if !ok || k != 2 {
		t.Fatalf("IsTopK = (%d,%v), want (2,true)", k, ok)
	}
	if pr.Pos(4) != 1 || pr.Pos(1) != 2 {
		t.Errorf("top positions = %v %v, want 1 2", pr.Pos(4), pr.Pos(1))
	}
	// Bottom bucket holds 0,2,3,5 at position 2 + (4+1)/2 = 4.5.
	for _, e := range []int{0, 2, 3, 5} {
		if pr.Pos(e) != 4.5 {
			t.Errorf("Pos(%d) = %v, want 4.5", e, pr.Pos(e))
		}
	}

	if _, err := TopKList(3, 4, []int{0, 1, 2, 0}); err == nil {
		t.Error("TopKList accepted k > n")
	}
	if _, err := TopKList(3, 2, []int{0, 0}); err == nil {
		t.Error("TopKList accepted duplicate top element")
	}
	if _, err := TopKList(3, 2, []int{0}); err == nil {
		t.Error("TopKList accepted short order")
	}

	// A full ranking is a top-n list.
	full := MustFromOrder([]int{0, 1, 2})
	if k, ok := full.IsTopK(); !ok || k != 3 {
		t.Errorf("full ranking IsTopK = (%d,%v), want (3,true)", k, ok)
	}
	// An arbitrary bucket order is not.
	pr2 := MustFromBuckets(4, [][]int{{0, 1}, {2}, {3}})
	if _, ok := pr2.IsTopK(); ok {
		t.Error("non-top-k bucket order reported as top-k")
	}
}

func TestTypeAndString(t *testing.T) {
	pr := MustFromBuckets(5, [][]int{{3, 0}, {2}, {1, 4}})
	typ := pr.Type()
	if len(typ) != 3 || typ[0] != 2 || typ[1] != 1 || typ[2] != 2 {
		t.Errorf("Type = %v, want [2 1 2]", typ)
	}
	if got, want := pr.String(), "0 3 | 2 | 1 4"; got != want {
		t.Errorf("String = %q, want %q", got, want)
	}
}

func TestEqualAndClone(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		a := randomPartial(rng, 1+rng.Intn(12))
		if !a.Equal(a.Clone()) {
			t.Fatalf("clone not equal: %v", a)
		}
		b := randomPartial(rng, a.N())
		if a.Equal(b) != b.Equal(a) {
			t.Fatalf("Equal not symmetric for %v vs %v", a, b)
		}
	}
	a := MustFromBuckets(3, [][]int{{0, 1}, {2}})
	b := MustFromBuckets(3, [][]int{{0}, {1}, {2}})
	c := MustFromBuckets(4, [][]int{{0, 1}, {2}, {3}})
	if a.Equal(b) || a.Equal(c) {
		t.Error("Equal reported distinct rankings as equal")
	}
}

func TestTiedAhead(t *testing.T) {
	pr := MustFromBuckets(4, [][]int{{0, 1}, {2}, {3}})
	if !pr.Tied(0, 1) || pr.Tied(0, 2) {
		t.Error("Tied wrong")
	}
	if !pr.Ahead(0, 2) || pr.Ahead(2, 0) || pr.Ahead(0, 1) {
		t.Error("Ahead wrong")
	}
}

func TestPositions2MatchesPositions(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 50; trial++ {
		pr := randomPartial(rng, 1+rng.Intn(20))
		p := pr.Positions()
		p2 := pr.Positions2()
		for e := range p {
			if float64(p2[e])/2 != p[e] {
				t.Fatalf("Positions2[%d]=%d inconsistent with Positions[%d]=%v", e, p2[e], e, p[e])
			}
		}
	}
}

// The sum of positions of any partial ranking over n elements equals
// n(n+1)/2, because positions average the occupied locations.
func TestPositionSumInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 100; trial++ {
		n := 1 + rng.Intn(30)
		pr := randomPartial(rng, n)
		var sum2 int64
		for e := 0; e < n; e++ {
			sum2 += pr.Pos2(e)
		}
		if want := int64(n) * int64(n+1); sum2 != want {
			t.Fatalf("sum of doubled positions = %d, want %d for %v", sum2, want, pr)
		}
	}
}

func TestCheckSameDomain(t *testing.T) {
	a := MustFromOrder([]int{0, 1})
	b := MustFromOrder([]int{1, 0})
	c := MustFromOrder([]int{0, 1, 2})
	if err := CheckSameDomain(a, b); err != nil {
		t.Errorf("same domain rejected: %v", err)
	}
	if err := CheckSameDomain(a, b, c); err == nil {
		t.Error("mismatched domain accepted")
	}
}
