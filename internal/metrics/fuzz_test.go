package metrics

import (
	"slices"
	"testing"

	"repro/internal/ranking"
)

// rankingFromBytes maps a byte string onto a bucket order. The leading byte
// sets the label modulus m in 1..256; each later byte labels one element
// with its value mod m, and equal labels tie, smaller labels first. A small
// m gives few-valued shapes, a large one near-full rankings. An empty string
// is the empty ranking.
func rankingFromBytes(data []byte) *ranking.PartialRanking {
	if len(data) == 0 {
		return ranking.MustFromBuckets(0, nil)
	}
	mod := int(data[0]) + 1
	data = data[1:]
	n := len(data)
	groups := map[int][]int{}
	var labels []int
	for i, b := range data {
		lbl := int(b) % mod
		if _, ok := groups[lbl]; !ok {
			labels = append(labels, lbl)
		}
		groups[lbl] = append(groups[lbl], i)
	}
	slices.Sort(labels)
	buckets := make([][]int, 0, len(labels))
	for _, l := range labels {
		buckets = append(buckets, groups[l])
	}
	return ranking.MustFromBuckets(n, buckets)
}

// bruteFHausPairs caps the refinement pairs FuzzMetricInvariants hands to
// FHausBrute, which computes a footrule for every pair in each direction.
const bruteFHausPairs = 5040

// FuzzMetricInvariants drives the full metric stack with fuzz-shaped
// ranking pairs: no panics, symmetry, every Theorem 7 window, and the
// workspace kernels against their references.
func FuzzMetricInvariants(f *testing.F) {
	f.Add([]byte{6, 0, 1, 2}, []byte{6, 2, 1, 0})
	f.Add([]byte{6, 0, 0, 0, 0}, []byte{6, 1, 2, 3, 4})
	f.Add([]byte{}, []byte{})
	f.Add([]byte{6, 9}, []byte{6, 3})
	f.Add([]byte{255, 5, 3, 9, 1, 7, 2, 8}, []byte{2, 5, 3, 9, 1, 7, 2, 8})
	f.Fuzz(func(t *testing.T, da, db []byte) {
		if len(da) != len(db) {
			// Same-length prefix keeps the domains aligned.
			if len(da) > len(db) {
				da = da[:len(db)]
			} else {
				db = db[:len(da)]
			}
		}
		if len(da) > 65 {
			da, db = da[:65], db[:65]
		}
		a := rankingFromBytes(da)
		b := rankingFromBytes(db)

		kp2, err := KProf2(a, b)
		if err != nil {
			t.Fatal(err)
		}
		fp2, _ := FProf2(a, b)
		kh, _ := KHaus(a, b)
		fh, _ := FHaus(a, b)
		if !(kp2 <= fp2 && fp2 <= 2*kp2) {
			t.Fatalf("Eq. 5 violated: %d %d", kp2, fp2)
		}
		if !(kh <= fh && fh <= 2*kh) {
			t.Fatalf("Eq. 4 violated: %d %d", kh, fh)
		}
		if !(kp2 <= 2*kh && 2*kh <= 2*kp2) {
			t.Fatalf("Eq. 6 violated: %d %d", kp2, kh)
		}
		kpBA, _ := KProf2(b, a)
		if kpBA != kp2 {
			t.Fatalf("KProf asymmetric: %d vs %d", kp2, kpBA)
		}
		fast, _ := CountPairs(a, b)
		slow, _ := CountPairsNaive(a, b)
		if fast != slow {
			t.Fatalf("CountPairs mismatch: %+v vs %+v", fast, slow)
		}

		if fhBA, _ := FHaus(b, a); fhBA != fh {
			t.Fatalf("FHaus asymmetric: %d vs %d", fh, fhBA)
		}
		if ref, _ := FHausViaRefinement(a, b); fh != ref {
			t.Fatalf("FHaus = %d, refinement %d\na=%v\nb=%v", fh, ref, a, b)
		}
		ra, _ := a.NumFullRefinements()
		rb, _ := b.NumFullRefinements()
		if a.N() <= 7 && ra*rb <= bruteFHausPairs {
			if brute, _ := FHausBrute(a, b); fh != brute {
				t.Fatalf("FHaus = %d, brute force %d\na=%v\nb=%v", fh, brute, a, b)
			}
		}
		d, _ := Distances(a, b)
		want := AllDistances{KProf: float64(kp2) / 2, FProf: float64(fp2) / 2, KHaus: kh, FHaus: fh}
		if d != want {
			t.Fatalf("Distances = %+v, separate kernels %+v", d, want)
		}
	})
}

// FuzzReflection drives the Lemma 21/23 identities with fuzz-shaped pairs.
func FuzzReflection(f *testing.F) {
	f.Add([]byte{1, 1, 2, 3}, []byte{4, 4, 4, 0})
	f.Add([]byte{0}, []byte{0})
	f.Fuzz(func(t *testing.T, da, db []byte) {
		if len(da) > len(db) {
			da = da[:len(db)]
		} else {
			db = db[:len(da)]
		}
		if len(da) > 24 || len(da) == 0 {
			return
		}
		sigma := rankingFromBytes(da)
		tau := rankingFromBytes(db)
		kvr, err := KProfViaReflection(sigma, tau)
		if err != nil {
			t.Fatal(err)
		}
		kp, _ := KProf(sigma, tau)
		if kvr != kp {
			t.Fatalf("Lemma 21 violated: %v vs %v", kvr, kp)
		}
		fvr, err := FProfViaReflection(sigma, tau)
		if err != nil {
			t.Fatal(err)
		}
		fp, _ := FProf(sigma, tau)
		if fvr != fp {
			t.Fatalf("Lemma 22 violated: %v vs %v", fvr, fp)
		}
	})
}
