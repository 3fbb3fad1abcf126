package experiments

import (
	"math/rand"
	"testing"
)

// TestE17DesignRatioCACheapest pins the E17 headline claim at the design
// ratio cR/cS = 10: on the experiment's tie-heavy catalog instances the
// combined algorithm's middleware cost beats or ties BOTH the TA baseline
// (which pays cR for every element it encounters) and NRA (which CA
// coincides with here, since no profitable resolution target ever appears).
func TestE17DesignRatioCACheapest(t *testing.T) {
	const n, m, k, ratio = 600, 5, 10, 10
	rng := rand.New(rand.NewSource(2004))
	for trial := 0; trial < 4; trial++ {
		in := e17Instance(rng, n, m)
		ta, err := e17Run("ta", in, k, ratio, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		nra, err := e17Run("nra", in, k, ratio, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		ca, err := e17Run("ca", in, k, ratio, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		taC := ta.Stats.MiddlewareCost(1, ratio)
		nraC := nra.Stats.MiddlewareCost(1, ratio)
		caC := ca.Stats.MiddlewareCost(1, ratio)
		if caC > taC {
			t.Errorf("trial %d: CA cost %d > TA cost %d at ratio %d", trial, caC, taC, ratio)
		}
		if caC > nraC {
			t.Errorf("trial %d: CA cost %d > NRA cost %d at ratio %d", trial, caC, nraC, ratio)
		}
		if nra.Stats.Random != 0 {
			t.Errorf("trial %d: NRA made %d random accesses", trial, nra.Stats.Random)
		}
	}
}
