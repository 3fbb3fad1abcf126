package topk

import (
	"reflect"
	"testing"

	"repro/internal/faults"
	"repro/internal/randrank"
	"repro/internal/ranking"
	"repro/internal/telemetry"
)

// runCase is one engine run decoded from fuzz bytes.
type runCase struct {
	in     []*ranking.PartialRanking
	spec   Spec
	deaths []int // per list: its DeathAfter, 0 for a list that never dies
}

// decodeRunCase reads, one byte each: n in [1, 24], m in [1, 9], k in [0, n],
// the engine configuration (a guardSpecs index), the DeathAfter in [0, 31] of
// every list but the last (0 keeps the list alive), then each list's n
// per-element values in [0, n), which randrank.FromValues turns into a
// partial ranking, so any tie structure can occur. Missing bytes read as 0.
func decodeRunCase(data []byte) runCase {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	n := 1 + next()%24
	m := 1 + next()%9
	k := next() % (n + 1)
	c := runCase{spec: guardSpecs[next()%len(guardSpecs)].spec, deaths: make([]int, m)}
	c.spec.K = k
	for i := 0; i < m-1; i++ {
		c.deaths[i] = next() % 32
	}
	for i := 0; i < m; i++ {
		values := make([]int, n)
		for e := range values {
			values[e] = next() % n
		}
		c.in = append(c.in, randrank.FromValues(values))
	}
	return c
}

// FuzzRunMatchesReference runs the engine configurations through Run on
// decoded instances and checks each answer against the full-scan reference
// over the lists that survived, and each run's access accounting against a
// second run of the same case.
func FuzzRunMatchesReference(f *testing.F) {
	// Every list one bucket: every frontier ties, so GlobalMerge's
	// lowest-slot tie-break decides each probe.
	for i := range guardSpecs {
		f.Add([]byte{9, 4, 3, byte(i)})
	}
	// NRA with list 0 dying after 7 accesses and list 2 after 20.
	f.Add([]byte{19, 4, 4, 6, 7, 0, 20,
		3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8, 9, 7, 9, 3, 2, 3, 8, 4})
	// TA at k = 0.
	f.Add([]byte{11, 2, 0, 4, 0, 5, 5, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11})
	// MEDRANK RoundRobinBuckets, n=4, m=4, k=3: lists 1 and 2 die mid-bucket.
	// The rebuild over lists 0 and 3 once certified element 0 at list 0's
	// position 7 before it replayed list 3's 5.
	f.Add([]byte("c0000AA11"))
	f.Fuzz(func(t *testing.T, data []byte) {
		c := decodeRunCase(data)
		wrap := func(i int, s faults.Source, _ *telemetry.AccessAccountant) faults.Source {
			if c.deaths[i] > 0 {
				return faults.Inject(s, faults.Plan{DeathAfter: c.deaths[i]})
			}
			return s
		}
		res, err := runSpec(c.in, c.spec, wrap)
		if err != nil {
			t.Fatalf("%+v deaths %v: %v", c.spec, c.deaths, err)
		}
		checkReference(t, c.in, c.spec, res)
		again, err := runSpec(c.in, c.spec, wrap)
		if err != nil {
			t.Fatalf("%+v deaths %v, second run: %v", c.spec, c.deaths, err)
		}
		if !reflect.DeepEqual(res.Stats, again.Stats) {
			t.Fatalf("%+v deaths %v: stats %+v, then %+v", c.spec, c.deaths, res.Stats, again.Stats)
		}
	})
}
