package db

import (
	"fmt"
	"testing"
)

// accountingTable builds a catalog big enough for access-count invariants to
// be meaningful: deterministic pseudo-random numeric attributes so every
// preference sort orders the rows differently.
func accountingTable(t *testing.T, n int) *Table {
	t.Helper()
	tbl := NewTable("accounting")
	for _, name := range []string{"alpha", "beta", "gamma"} {
		if err := tbl.AddColumn(name, FloatCol); err != nil {
			t.Fatal(err)
		}
	}
	if err := tbl.AddColumn("parity", IntCol); err != nil {
		t.Fatal(err)
	}
	// Small LCG keeps the fixture deterministic without extra imports.
	state := int64(12345)
	next := func() float64 {
		state = (state*1103515245 + 12921) % (1 << 31)
		return float64(state%1000) / 10
	}
	for i := 0; i < n; i++ {
		row := Row{
			"alpha":  next(),
			"beta":   next(),
			"gamma":  next(),
			"parity": i % 2,
		}
		if err := tbl.Insert(fmt.Sprintf("row-%03d", i), row); err != nil {
			t.Fatal(err)
		}
	}
	return tbl
}

var accountingPrefs = []Preference{
	{Column: "alpha", Direction: Ascending},
	{Column: "beta", Direction: Descending},
	{Column: "gamma", Direction: Ascending},
}

// TestQueryAccessCountsInvariants pins the unified access accounting of
// unfiltered queries: counts are monotone in k and bounded by the catalog
// size times the criteria count (a full scan of every index).
func TestQueryAccessCountsInvariants(t *testing.T) {
	const n = 48
	tbl := accountingTable(t, n)
	m := len(accountingPrefs)
	prev := -1
	for k := 0; k <= n; k += 4 {
		res, err := tbl.TopK(Query{Preferences: accountingPrefs, K: k})
		if err != nil {
			t.Fatal(err)
		}
		total := res.Access.Total + res.Access.Random
		if total < prev {
			t.Errorf("k=%d: accesses %d dropped below k=%d's %d", k, total, k-4, prev)
		}
		prev = total
		if res.Access.Total > n*m {
			t.Errorf("k=%d: sequential accesses %d exceed table size x criteria %d", k, res.Access.Total, n*m)
		}
		if res.Access.Total > res.FullScan.Total {
			t.Errorf("k=%d: accesses %d exceed full-scan cost %d", k, res.Access.Total, res.FullScan.Total)
		}
		if k > 0 {
			if res.Certificate <= 0 {
				t.Errorf("k=%d: certificate %d, want positive", k, res.Certificate)
			}
			if res.CostOptimalityRatio < 1 {
				t.Errorf("k=%d: optimality ratio %v < 1", k, res.CostOptimalityRatio)
			}
		} else if res.CostOptimalityRatio != 0 {
			t.Errorf("k=0: optimality ratio %v, want 0", res.CostOptimalityRatio)
		}
	}
}

// TestFilteredQueryAccessCountsInvariants pins the same invariants for
// filtered queries, where the bound shrinks to the subset size.
func TestFilteredQueryAccessCountsInvariants(t *testing.T) {
	const n = 48
	tbl := accountingTable(t, n)
	conds := []Condition{{Column: "parity", Op: Eq, Value: 0}}
	subset, err := tbl.Filter(conds)
	if err != nil {
		t.Fatal(err)
	}
	s := len(subset)
	if s == 0 || s == n {
		t.Fatalf("filter selected %d of %d rows; fixture broken", s, n)
	}
	m := len(accountingPrefs)
	prev := -1
	for k := 0; k <= s; k += 3 {
		res, err := tbl.TopKWhere(FilteredQuery{Conditions: conds, Preferences: accountingPrefs, K: k})
		if err != nil {
			t.Fatal(err)
		}
		total := res.Access.Total + res.Access.Random
		if total < prev {
			t.Errorf("k=%d: accesses %d dropped below k=%d's %d", k, total, k-3, prev)
		}
		prev = total
		if res.Access.Total > s*m {
			t.Errorf("k=%d: sequential accesses %d exceed subset size x criteria %d", k, res.Access.Total, s*m)
		}
		if res.Access.Total > n*m {
			t.Errorf("k=%d: sequential accesses %d exceed table size x criteria %d", k, res.Access.Total, n*m)
		}
		if res.Access.Total > res.FullScan.Total {
			t.Errorf("k=%d: accesses %d exceed full-scan cost %d", k, res.Access.Total, res.FullScan.Total)
		}
		if k > 0 && res.CostOptimalityRatio < 1 {
			t.Errorf("k=%d: optimality ratio %v < 1 (certificate %d)", k, res.CostOptimalityRatio, res.Certificate)
		}
	}
}
