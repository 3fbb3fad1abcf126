package aggregate

import (
	"testing"

	"repro/internal/ranking"
)

// rankingFromBytes maps a byte string onto a bucket order with common ties.
func rankingFromBytes(data []byte) *ranking.PartialRanking {
	n := len(data)
	groups := map[byte][]int{}
	var labels []byte
	for i, b := range data {
		lbl := b % 7
		if _, ok := groups[lbl]; !ok {
			labels = append(labels, lbl)
		}
		groups[lbl] = append(groups[lbl], i)
	}
	for i := 1; i < len(labels); i++ {
		for j := i; j > 0 && labels[j] < labels[j-1]; j-- {
			labels[j], labels[j-1] = labels[j-1], labels[j]
		}
	}
	buckets := make([][]int, 0, len(labels))
	for _, l := range labels {
		buckets = append(buckets, groups[l])
	}
	return ranking.MustFromBuckets(n, buckets)
}

// FuzzDPEngines checks that the two Figure 1 implementations agree exactly
// on arbitrary half-integral score vectors, and that the returned ranking
// achieves the reported cost.
func FuzzDPEngines(f *testing.F) {
	f.Add([]byte{1, 2, 3})
	f.Add([]byte{0, 0, 0, 0, 0})
	f.Add([]byte{255, 0, 255})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 64 {
			data = data[:64]
		}
		scores := make([]float64, len(data))
		for i, b := range data {
			scores[i] = float64(b%50) / 2
		}
		general, err := OptimalPartial(scores)
		if err != nil {
			t.Fatal(err)
		}
		fig1, err := OptimalPartialFigure1(scores)
		if err != nil {
			t.Fatal(err)
		}
		if general.Cost4 != fig1.Cost4 {
			t.Fatalf("engines disagree: %d vs %d on %v", general.Cost4, fig1.Cost4, scores)
		}
		if len(data) > 0 {
			if got := l1ToScores(fig1.Ranking, scores); got != fig1.Cost {
				t.Fatalf("reported cost %v, ranking achieves %v", fig1.Cost, got)
			}
		}
	})
}

// FuzzMedianScores checks Lemma 8 against byte-derived challengers.
func FuzzMedianScores(f *testing.F) {
	f.Add([]byte{3, 1, 4, 1, 5}, []byte{2, 7, 1, 8, 2})
	f.Add([]byte{0}, []byte{0})
	f.Fuzz(func(t *testing.T, da, db []byte) {
		if len(da) > len(db) {
			da = da[:len(db)]
		} else {
			db = db[:len(da)]
		}
		if len(da) == 0 || len(da) > 32 {
			return
		}
		in := []*ranking.PartialRanking{rankingFromBytes(da), rankingFromBytes(db)}
		med, err := MedianScores(in, LowerMedian)
		if err != nil {
			t.Fatal(err)
		}
		medObj := SumL1(med, in)
		// The byte-derived challenger.
		cand := make([]float64, len(da))
		for i := range cand {
			cand[i] = float64(da[i]%31) / 2
		}
		if obj := SumL1(cand, in); obj < medObj-1e-9 {
			t.Fatalf("Lemma 8 violated by challenger %v: %v < %v", cand, obj, medObj)
		}
	})
}

// FuzzLocalKemenize checks that LocalKemenize makes exactly the swaps of the
// plain swap loop. The bytes decode as n = data[0] mod 25 and
// m = 1 + data[1] mod 9, then m inputs of n bytes each (ties as in
// rankingFromBytes), then a candidate of n bytes read as scores, so equal
// bytes tie and the candidate is refined by ID. Missing bytes read as zero.
func FuzzLocalKemenize(f *testing.F) {
	f.Add([]byte{6, 1, 0, 1, 2, 3, 4, 5, 0, 1, 2, 3, 5, 4, 5, 4, 3, 2, 1, 0})       // reversed candidate
	f.Add([]byte{5, 2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 3, 1, 4, 1, 5}) // inputs all one bucket
	f.Add([]byte{8, 0, 2, 0, 1, 3, 0, 2, 1, 3, 7, 6, 5, 4, 3, 2, 1, 0})             // m=1
	f.Add([]byte{1, 3, 0, 1, 2, 3, 9})                                              // n=1
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		n, m := int(data[0])%25, 1+int(data[1])%9
		rest := data[2:]
		next := func() []byte {
			b := make([]byte, n)
			rest = rest[copy(b, rest):]
			return b
		}
		in := make([]*ranking.PartialRanking, m)
		for i := range in {
			in[i] = rankingFromBytes(next())
		}
		scores := make([]float64, n)
		for e, b := range next() {
			scores[e] = float64(b)
		}
		cand := ranking.FromScores(scores)
		got, err := LocalKemenize(cand, in)
		if err != nil {
			t.Fatal(err)
		}
		if want := refKemenize(t, cand, in); !got.Equal(want) {
			t.Fatalf("LocalKemenize %v != reference %v (inputs %v, candidate %v)", got, want, in, cand)
		}
	})
}
