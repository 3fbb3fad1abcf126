package db

import (
	"context"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/ranking"
	"repro/internal/topk"
)

// restaurantTable builds the paper's Section 1 example: a restaurant catalog
// with cuisine, distance, price, and star attributes.
func restaurantTable(t *testing.T) *Table {
	t.Helper()
	tbl := NewTable("restaurants")
	for _, c := range []struct {
		name string
		typ  ColumnType
	}{
		{"cuisine", StringCol},
		{"distance", FloatCol},
		{"price", FloatCol},
		{"stars", IntCol},
	} {
		if err := tbl.AddColumn(c.name, c.typ); err != nil {
			t.Fatal(err)
		}
	}
	rows := []struct {
		key string
		row Row
	}{
		{"Thai Palace", Row{"cuisine": "thai", "distance": 2.5, "price": 22.0, "stars": 4}},
		{"Sushi Ko", Row{"cuisine": "japanese", "distance": 8.0, "price": 45.0, "stars": 5}},
		{"Taco Shack", Row{"cuisine": "mexican", "distance": 1.0, "price": 9.0, "stars": 3}},
		{"Bella Pasta", Row{"cuisine": "italian", "distance": 12.0, "price": 30.0, "stars": 4}},
		{"Noodle Bar", Row{"cuisine": "thai", "distance": 6.0, "price": 14.0, "stars": 4}},
		{"Burger Joint", Row{"cuisine": "american", "distance": 3.0, "price": 11.0, "stars": 2}},
	}
	for _, r := range rows {
		if err := tbl.Insert(r.key, r.row); err != nil {
			t.Fatal(err)
		}
	}
	return tbl
}

func TestTableBasics(t *testing.T) {
	tbl := restaurantTable(t)
	if tbl.NumRows() != 6 || tbl.Name() != "restaurants" {
		t.Fatalf("table shape wrong: %d rows", tbl.NumRows())
	}
	if id, ok := tbl.RowID("Sushi Ko"); !ok || tbl.RowKey(id) != "Sushi Ko" {
		t.Error("RowID/RowKey mismatch")
	}
	if _, ok := tbl.RowID("missing"); ok {
		t.Error("missing key resolved")
	}
	cols := tbl.Columns()
	if len(cols) != 4 || cols[0] != "cuisine" {
		t.Errorf("Columns = %v", cols)
	}
	if d, _ := tbl.DistinctValues("cuisine"); d != 5 {
		t.Errorf("distinct cuisines = %d, want 5", d)
	}
	if d, _ := tbl.DistinctValues("stars"); d != 4 {
		t.Errorf("distinct stars = %d, want 4", d)
	}
	if _, err := tbl.DistinctValues("nope"); err == nil {
		t.Error("unknown column accepted")
	}
}

func TestInsertValidation(t *testing.T) {
	tbl := NewTable("t")
	if err := tbl.AddColumn("a", IntCol); err != nil {
		t.Fatal(err)
	}
	if err := tbl.AddColumn("a", FloatCol); err == nil {
		t.Error("duplicate column accepted")
	}
	if err := tbl.Insert("r1", Row{"a": 1}); err != nil {
		t.Fatal(err)
	}
	if err := tbl.AddColumn("late", IntCol); err == nil {
		t.Error("column added after rows")
	}
	if err := tbl.Insert("r1", Row{"a": 2}); err == nil {
		t.Error("duplicate key accepted")
	}
	if err := tbl.Insert("r2", Row{"a": "x"}); err == nil {
		t.Error("type mismatch accepted")
	}
	if err := tbl.Insert("r3", Row{}); err == nil {
		t.Error("missing column accepted")
	}
	if err := tbl.Insert("r4", Row{"a": 1, "b": 2}); err == nil {
		t.Error("extra column accepted")
	}
	// A failed insert must not partially mutate the table.
	if tbl.NumRows() != 1 {
		t.Errorf("failed inserts mutated the table: %d rows", tbl.NumRows())
	}
}

func TestIndexScanNumeric(t *testing.T) {
	tbl := restaurantTable(t)
	// Ascending price: Taco Shack(9) Burger(11) Noodle(14) Thai(22)
	// Bella(30) Sushi(45) — all distinct, full ranking.
	pr, err := tbl.IndexScan(Preference{Column: "price", Direction: Ascending})
	if err != nil {
		t.Fatal(err)
	}
	if !pr.IsFull() {
		t.Error("distinct prices should give a full ranking")
	}
	taco, _ := tbl.RowID("Taco Shack")
	if pr.Pos(taco) != 1 {
		t.Errorf("cheapest ranked %v", pr.Pos(taco))
	}

	// Descending stars: Sushi(5) | Thai,Bella,Noodle(4) | Taco(3) | Burger(2).
	pr, err = tbl.IndexScan(Preference{Column: "stars", Direction: Descending})
	if err != nil {
		t.Fatal(err)
	}
	if pr.NumBuckets() != 4 {
		t.Fatalf("stars index has %d buckets, want 4: %v", pr.NumBuckets(), pr)
	}
	sushi, _ := tbl.RowID("Sushi Ko")
	if pr.Pos(sushi) != 1 {
		t.Errorf("5-star ranked %v", pr.Pos(sushi))
	}
	thai, _ := tbl.RowID("Thai Palace")
	noodle, _ := tbl.RowID("Noodle Bar")
	if !pr.Tied(thai, noodle) {
		t.Error("equal stars not tied")
	}
}

// The paper's coarsening example: any distance up to ten miles is the same.
func TestIndexScanCoarsened(t *testing.T) {
	tbl := restaurantTable(t)
	pr, err := tbl.IndexScan(Preference{Column: "distance", Direction: Ascending, CoarsenStep: 10})
	if err != nil {
		t.Fatal(err)
	}
	// Bucket 1: everything under 10 miles; bucket 2: Bella Pasta (12).
	if pr.NumBuckets() != 2 {
		t.Fatalf("coarsened index has %d buckets: %v", pr.NumBuckets(), pr)
	}
	bella, _ := tbl.RowID("Bella Pasta")
	if pr.BucketOf(bella) != 1 {
		t.Error("12-mile restaurant should be in the far bucket")
	}
	if pr.BucketSize(0) != 5 {
		t.Errorf("near bucket holds %d, want 5", pr.BucketSize(0))
	}
}

func TestIndexScanCategorical(t *testing.T) {
	tbl := restaurantTable(t)
	pr, err := tbl.IndexScan(Preference{Column: "cuisine", ValueOrder: []string{"thai", "japanese"}})
	if err != nil {
		t.Fatal(err)
	}
	// thai {Thai Palace, Noodle Bar} | japanese {Sushi Ko} | rest.
	if pr.NumBuckets() != 3 {
		t.Fatalf("cuisine index has %d buckets: %v", pr.NumBuckets(), pr)
	}
	thai, _ := tbl.RowID("Thai Palace")
	noodle, _ := tbl.RowID("Noodle Bar")
	sushi, _ := tbl.RowID("Sushi Ko")
	if !pr.Tied(thai, noodle) || !pr.Ahead(thai, sushi) {
		t.Error("cuisine preference order wrong")
	}
	if pr.BucketSize(2) != 3 {
		t.Errorf("unlisted cuisines bucket = %d, want 3", pr.BucketSize(2))
	}

	if _, err := tbl.IndexScan(Preference{Column: "cuisine"}); err == nil {
		t.Error("categorical scan without ValueOrder accepted")
	}
	if _, err := tbl.IndexScan(Preference{Column: "cuisine", ValueOrder: []string{"thai", "thai"}}); err == nil {
		t.Error("duplicate ValueOrder accepted")
	}
	if _, err := tbl.IndexScan(Preference{Column: "cuisine", ValueOrder: []string{"thai"}, Direction: Descending}); err == nil {
		t.Error("Descending with ValueOrder accepted")
	}
	if _, err := tbl.IndexScan(Preference{Column: "nope"}); err == nil {
		t.Error("unknown column accepted")
	}
	if _, err := tbl.IndexScan(Preference{Column: "price", CoarsenStep: -1}); err == nil {
		t.Error("negative coarsen step accepted")
	}
}

func TestTopKQuery(t *testing.T) {
	tbl := restaurantTable(t)
	q := Query{
		Preferences: []Preference{
			{Column: "cuisine", ValueOrder: []string{"thai", "japanese", "mexican"}},
			{Column: "distance", Direction: Ascending, CoarsenStep: 10},
			{Column: "price", Direction: Ascending},
			{Column: "stars", Direction: Descending},
		},
		K: 2,
	}
	res, err := tbl.TopK(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Keys) != 2 {
		t.Fatalf("TopK returned %v", res.Keys)
	}
	// Noodle Bar: thai (pos ~1.5), near, cheap-ish, 4 stars — the best
	// all-rounder; Thai Palace close behind.
	if res.Keys[0] != "Noodle Bar" && res.Keys[0] != "Thai Palace" {
		t.Errorf("winner = %q, want a thai restaurant", res.Keys[0])
	}
	if res.Access.Total > res.FullScan.Total {
		t.Errorf("query read %d > full scan %d", res.Access.Total, res.FullScan.Total)
	}
	if len(res.MedianPositions) != 2 || res.MedianPositions[0] > res.MedianPositions[1] {
		t.Errorf("median positions not sorted: %v", res.MedianPositions)
	}
}

func TestRankAndRankPartial(t *testing.T) {
	tbl := restaurantTable(t)
	prefs := []Preference{
		{Column: "price", Direction: Ascending},
		{Column: "stars", Direction: Descending},
		{Column: "distance", Direction: Ascending},
	}
	keys, err := tbl.Rank(prefs)
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != 6 {
		t.Fatalf("Rank returned %d keys", len(keys))
	}
	seen := map[string]bool{}
	for _, k := range keys {
		if seen[k] {
			t.Fatalf("duplicate key %q in ranking", k)
		}
		seen[k] = true
	}

	groups, err := tbl.RankPartial(prefs)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, g := range groups {
		total += len(g)
	}
	if total != 6 {
		t.Fatalf("RankPartial covers %d rows: %v", total, groups)
	}

	if _, err := tbl.Rank(nil); err == nil {
		t.Error("empty preference list accepted")
	}
	if _, err := tbl.TopK(Query{K: 1}); err == nil {
		t.Error("query without preferences accepted")
	}
	if _, err := tbl.TopK(Query{Preferences: prefs, K: 99}); err == nil {
		t.Error("k > rows accepted")
	}
}

// The TopK result agrees with ranking the whole table and truncating.
func TestTopKConsistentWithRank(t *testing.T) {
	tbl := restaurantTable(t)
	prefs := []Preference{
		{Column: "price", Direction: Ascending},
		{Column: "stars", Direction: Descending},
		{Column: "distance", Direction: Ascending, CoarsenStep: 5},
	}
	full, err := tbl.Rank(prefs)
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k <= tbl.NumRows(); k++ {
		res, err := tbl.TopK(Query{Preferences: prefs, K: k})
		if err != nil {
			t.Fatal(err)
		}
		if strings.Join(res.Keys, "|") != strings.Join(full[:k], "|") {
			t.Fatalf("k=%d: TopK %v != Rank prefix %v", k, res.Keys, full[:k])
		}
	}
}

func TestIndexScanIsValidPartialRanking(t *testing.T) {
	tbl := restaurantTable(t)
	pr, err := tbl.IndexScan(Preference{Column: "stars", Direction: Ascending})
	if err != nil {
		t.Fatal(err)
	}
	if err := ranking.CheckSameDomain(pr); err != nil || pr.N() != tbl.NumRows() {
		t.Errorf("index scan domain wrong: n=%d", pr.N())
	}
	keys := tbl.sortedKeys()
	if len(keys) != 6 || keys[0] != "Bella Pasta" {
		t.Errorf("sortedKeys = %v", keys)
	}
}

func TestTopKOffsetPagination(t *testing.T) {
	tbl := restaurantTable(t)
	prefs := []Preference{
		{Column: "price", Direction: Ascending},
		{Column: "stars", Direction: Descending},
	}
	full, err := tbl.Rank(prefs)
	if err != nil {
		t.Fatal(err)
	}
	// Page through in twos; concatenation must equal the full ranking.
	var paged []string
	for off := 0; off < tbl.NumRows(); off += 2 {
		res, err := tbl.TopK(Query{Preferences: prefs, K: 2, Offset: off})
		if err != nil {
			t.Fatal(err)
		}
		paged = append(paged, res.Keys...)
	}
	if strings.Join(paged, "|") != strings.Join(full, "|") {
		t.Fatalf("pagination %v != full ranking %v", paged, full)
	}
	if _, err := tbl.TopK(Query{Preferences: prefs, K: 1, Offset: -1}); err == nil {
		t.Error("negative offset accepted")
	}
	if _, err := tbl.TopK(Query{Preferences: prefs, K: 3, Offset: 5}); err == nil {
		t.Error("offset+k beyond table accepted")
	}
}

// TestQueryAlgoDispatch pins the engine selector: every algo answers the same
// top-k set, NRA issues no random accesses, and the cost-weighted accounting
// fields are consistent with each run's access profile.
func TestQueryAlgoDispatch(t *testing.T) {
	tbl := restaurantTable(t)
	prefs := []Preference{
		{Column: "distance", Direction: Ascending},
		{Column: "price", Direction: Ascending},
		{Column: "stars", Direction: Descending},
	}
	base, err := tbl.TopK(Query{Preferences: prefs, K: 3})
	if err != nil {
		t.Fatal(err)
	}
	wantSet := append([]string(nil), base.Keys...)
	sort.Strings(wantSet)
	for _, algo := range []string{topk.AlgoMedRank, topk.AlgoTA, topk.AlgoNRA, topk.AlgoCA} {
		res, err := tbl.TopK(Query{Preferences: prefs, K: 3, Algo: algo})
		if err != nil {
			t.Fatalf("algo %q: %v", algo, err)
		}
		got := append([]string(nil), res.Keys...)
		sort.Strings(got)
		if !reflect.DeepEqual(got, wantSet) {
			t.Fatalf("algo %q: keys %v, want %v", algo, got, wantSet)
		}
		switch algo {
		case topk.AlgoMedRank, topk.AlgoNRA:
			if res.Access.Random != 0 {
				t.Fatalf("algo %q made %d random accesses", algo, res.Access.Random)
			}
			if res.CostRatio != 0 {
				t.Fatalf("algo %q reported cost ratio %d, want the NRA regime 0", algo, res.CostRatio)
			}
			if res.MiddlewareCost != res.Access.Total {
				t.Fatalf("algo %q: middleware cost %d != sequential total %d", algo, res.MiddlewareCost, res.Access.Total)
			}
		case topk.AlgoTA, topk.AlgoCA:
			if res.CostRatio != topk.DefaultCostRatio {
				t.Fatalf("algo %q defaulted to cost ratio %d, want %d", algo, res.CostRatio, topk.DefaultCostRatio)
			}
			want := res.Access.Total + topk.DefaultCostRatio*res.Access.Random
			if res.MiddlewareCost != want {
				t.Fatalf("algo %q: middleware cost %d, want %d", algo, res.MiddlewareCost, want)
			}
		}
		if res.CostCertificate <= 0 || res.CostOptimalityRatio < 1 {
			t.Fatalf("algo %q: cost certificate %d ratio %v", algo, res.CostCertificate, res.CostOptimalityRatio)
		}
	}
	// Explicit ratio overrides the default and is echoed back.
	res, err := tbl.TopK(Query{Preferences: prefs, K: 3, Algo: topk.AlgoCA, CostRatio: 25})
	if err != nil {
		t.Fatal(err)
	}
	if res.CostRatio != 25 {
		t.Fatalf("explicit cost ratio not echoed: %d", res.CostRatio)
	}
	if _, err := tbl.TopK(Query{Preferences: prefs, K: 3, Algo: "bogus"}); err == nil {
		t.Fatal("unknown algo accepted")
	}
	// The resilient path dispatches the same engines.
	for _, algo := range []string{topk.AlgoNRA, topk.AlgoCA} {
		res, err := tbl.TopKResilient(context.Background(), Query{Preferences: prefs, K: 3, Algo: algo}, nil)
		if err != nil {
			t.Fatalf("resilient %q: %v", algo, err)
		}
		got := append([]string(nil), res.Keys...)
		sort.Strings(got)
		if !reflect.DeepEqual(got, wantSet) {
			t.Fatalf("resilient %q: keys %v, want %v", algo, got, wantSet)
		}
		if algo == topk.AlgoNRA && res.Access.Random != 0 {
			t.Fatalf("resilient NRA made %d random accesses", res.Access.Random)
		}
	}
}
