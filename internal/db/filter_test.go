package db

import (
	"strings"
	"testing"

	"repro/internal/ranking"
)

func TestFilterConditions(t *testing.T) {
	tbl := restaurantTable(t)
	cases := []struct {
		name  string
		conds []Condition
		want  int
	}{
		{"no conditions", nil, 6},
		{"cuisine eq", []Condition{{"cuisine", Eq, "thai"}}, 2},
		{"cuisine ne", []Condition{{"cuisine", Ne, "thai"}}, 4},
		{"stars ge", []Condition{{"stars", Ge, 4}}, 4},
		{"distance lt", []Condition{{"distance", Lt, 5.0}}, 3},
		{"conjunction", []Condition{{"stars", Ge, 4}, {"distance", Le, 10.0}}, 3},
		{"price eq", []Condition{{"price", Eq, 9.0}}, 1},
		{"empty result", []Condition{{"stars", Gt, 5}}, 0},
	}
	for _, tc := range cases {
		rows, err := tbl.Filter(tc.conds)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if len(rows) != tc.want {
			t.Errorf("%s: %d rows, want %d", tc.name, len(rows), tc.want)
		}
	}
}

func TestFilterErrors(t *testing.T) {
	tbl := restaurantTable(t)
	bad := [][]Condition{
		{{"nope", Eq, "x"}},
		{{"cuisine", Lt, "thai"}},    // ordering op on string column
		{{"cuisine", Eq, 5}},         // wrong value type
		{{"stars", Eq, "five"}},      // wrong value type
		{{"stars", CompareOp(9), 4}}, // unknown operator
	}
	for i, conds := range bad {
		if _, err := tbl.Filter(conds); err == nil {
			t.Errorf("case %d: invalid condition accepted", i)
		}
	}
	if Eq.String() != "=" || Ge.String() != ">=" {
		t.Error("CompareOp String wrong")
	}
}

func TestTopKWhere(t *testing.T) {
	tbl := restaurantTable(t)
	res, err := tbl.TopKWhere(FilteredQuery{
		Conditions: []Condition{{"distance", Le, 10.0}, {"stars", Ge, 4}},
		Preferences: []Preference{
			{Column: "price", Direction: Ascending},
			{Column: "stars", Direction: Descending},
		},
		K: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Surviving rows: Thai Palace, Sushi Ko, Noodle Bar. Noodle Bar is the
	// cheapest 4-star; it must appear in the top 2.
	if len(res.Keys) != 2 {
		t.Fatalf("TopKWhere returned %v", res.Keys)
	}
	found := false
	for _, k := range res.Keys {
		if k == "Noodle Bar" {
			found = true
		}
		if k == "Bella Pasta" || k == "Burger Joint" || k == "Taco Shack" {
			t.Errorf("filtered-out row %q in result", k)
		}
	}
	if !found {
		t.Errorf("Noodle Bar missing from %v", res.Keys)
	}
}

func TestTopKWhereEdgeCases(t *testing.T) {
	tbl := restaurantTable(t)
	// Empty result set with k=0 is fine.
	res, err := tbl.TopKWhere(FilteredQuery{
		Conditions: []Condition{{"stars", Gt, 5}},
		K:          0,
	})
	if err != nil || len(res.Keys) != 0 {
		t.Errorf("empty filter k=0: %v %v", res, err)
	}
	// Empty result set with k>0 errors.
	if _, err := tbl.TopKWhere(FilteredQuery{
		Conditions:  []Condition{{"stars", Gt, 5}},
		Preferences: []Preference{{Column: "price"}},
		K:           1,
	}); err == nil {
		t.Error("k>0 over empty filter accepted")
	}
	// No preferences errors.
	if _, err := tbl.TopKWhere(FilteredQuery{K: 1}); err == nil {
		t.Error("no preferences accepted")
	}
}

func TestIndexScanSubset(t *testing.T) {
	tbl := restaurantTable(t)
	subset, err := tbl.Filter([]Condition{{"cuisine", Eq, "thai"}})
	if err != nil {
		t.Fatal(err)
	}
	pr, err := tbl.IndexScanSubset(Preference{Column: "price", Direction: Ascending}, subset)
	if err != nil {
		t.Fatal(err)
	}
	if pr.N() != 2 || !pr.IsFull() {
		t.Fatalf("subset scan = %v", pr)
	}
	// Noodle Bar (14) is cheaper than Thai Palace (22): relative order kept.
	var noodleSub, thaiSub int
	for i, row := range subset {
		switch tbl.RowKey(row) {
		case "Noodle Bar":
			noodleSub = i
		case "Thai Palace":
			thaiSub = i
		}
	}
	if !pr.Ahead(noodleSub, thaiSub) {
		t.Error("subset scan lost relative order")
	}
	if _, err := tbl.IndexScanSubset(Preference{Column: "price"}, []int{99}); err == nil {
		t.Error("out-of-range subset accepted")
	}
}

func TestLoadCSV(t *testing.T) {
	data := `name,price,stops,airline
UA100,320.5,0,united
AA7,250,1,american
WN4,199.99,1,southwest
`
	tbl, err := LoadCSV("flights", strings.NewReader(data), "name", map[string]ColumnType{
		"price": FloatCol, "stops": IntCol, "airline": StringCol,
	})
	if err != nil {
		t.Fatal(err)
	}
	if tbl.NumRows() != 3 {
		t.Fatalf("loaded %d rows", tbl.NumRows())
	}
	res, err := tbl.TopK(Query{
		Preferences: []Preference{{Column: "price", Direction: Ascending}},
		K:           1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Keys[0] != "WN4" {
		t.Errorf("cheapest = %q", res.Keys[0])
	}
}

// TestIndexScanNaNCell loads a float column with a "NaN" cell, which
// strconv.ParseFloat accepts, and scans it: the NaN row ties alone ahead of
// every number in both directions, where the scan used to never return.
func TestIndexScanNaNCell(t *testing.T) {
	data := "name,price\nA,2\nB,NaN\nC,1\nD,-0\nE,0\n"
	tbl, err := LoadCSV("t", strings.NewReader(data), "name", map[string]ColumnType{"price": FloatCol})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		dir  Direction
		want [][]int
	}{
		{Ascending, [][]int{{1}, {3, 4}, {2}, {0}}},
		{Descending, [][]int{{1}, {0}, {2}, {3, 4}}},
	} {
		pr, err := tbl.IndexScan(Preference{Column: "price", Direction: c.dir})
		if err != nil {
			t.Fatal(err)
		}
		if want := ranking.MustFromBuckets(5, c.want); !pr.Equal(want) {
			t.Errorf("direction %v: IndexScan = %v, want %v", c.dir, pr, want)
		}
	}
}

func TestLoadCSVErrors(t *testing.T) {
	cases := []struct {
		name string
		data string
		key  string
	}{
		{"missing key column", "a,b\n1,2\n", "nope"},
		{"undeclared column", "name,mystery\nx,1\n", "name"},
		{"bad int", "name,stops\nx,abc\n", "name"},
		{"bad float", "name,price\nx,abc\n", "name"},
		{"duplicate keys", "name,stops\nx,1\nx,2\n", "name"},
		{"ragged row", "name,stops\nx\n", "name"},
		{"empty input", "", "name"},
	}
	types := map[string]ColumnType{"stops": IntCol, "price": FloatCol, "b": IntCol}
	for _, tc := range cases {
		if _, err := LoadCSV("t", strings.NewReader(tc.data), tc.key, types); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}
