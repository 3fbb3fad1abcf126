package db

import (
	"context"
	"fmt"

	"repro/internal/ranking"
	"repro/internal/telemetry"
	"repro/internal/topk"
)

// The paper's database scenario lets the user "rank (and/or filter) the
// records" (Section 1). Conditions restrict the catalog to a subset before
// the preference sorts are aggregated; the subset is re-indexed onto a
// dense sub-domain so all ranking machinery applies unchanged.

// CompareOp is a filter comparison operator.
type CompareOp int

// Filter operators.
const (
	Eq CompareOp = iota // equal
	Ne                  // not equal
	Lt                  // less than (numeric only)
	Le                  // at most (numeric only)
	Gt                  // greater than (numeric only)
	Ge                  // at least (numeric only)
)

func (op CompareOp) String() string {
	switch op {
	case Eq:
		return "="
	case Ne:
		return "!="
	case Lt:
		return "<"
	case Le:
		return "<="
	case Gt:
		return ">"
	case Ge:
		return ">="
	}
	return fmt.Sprintf("CompareOp(%d)", int(op))
}

// Condition is one WHERE-style predicate: column <op> value. String columns
// support Eq and Ne with a string value; numeric columns support all
// operators with a numeric value (int, int64, or float64).
type Condition struct {
	Column string
	Op     CompareOp
	Value  interface{}
}

// Filter returns the IDs of rows satisfying every condition, in row order.
func (t *Table) Filter(conds []Condition) ([]int, error) {
	n := t.NumRows()
	keep := make([]bool, n)
	for i := range keep {
		keep[i] = true
	}
	for _, c := range conds {
		col, ok := t.cols[c.Column]
		if !ok {
			return nil, fmt.Errorf("db: unknown column %q", c.Column)
		}
		switch col.typ {
		case StringCol:
			want, ok := c.Value.(string)
			if !ok {
				return nil, fmt.Errorf("db: condition on %q wants string, got %T", c.Column, c.Value)
			}
			switch c.Op {
			case Eq:
				for i, v := range col.strs {
					keep[i] = keep[i] && v == want
				}
			case Ne:
				for i, v := range col.strs {
					keep[i] = keep[i] && v != want
				}
			default:
				return nil, fmt.Errorf("db: operator %v not supported on string column %q", c.Op, c.Column)
			}
		default:
			want, err := toFloat(c.Value)
			if err != nil {
				return nil, fmt.Errorf("db: condition on %q: %w", c.Column, err)
			}
			get := func(i int) float64 {
				if col.typ == IntCol {
					return float64(col.ints[i])
				}
				return col.floats[i]
			}
			for i := 0; i < n; i++ {
				if !keep[i] {
					continue
				}
				v := get(i)
				switch c.Op {
				case Eq:
					keep[i] = v == want
				case Ne:
					keep[i] = v != want
				case Lt:
					keep[i] = v < want
				case Le:
					keep[i] = v <= want
				case Gt:
					keep[i] = v > want
				case Ge:
					keep[i] = v >= want
				default:
					return nil, fmt.Errorf("db: unknown operator %v", c.Op)
				}
			}
		}
	}
	var out []int
	for i, k := range keep {
		if k {
			out = append(out, i)
		}
	}
	return out, nil
}

func toFloat(v interface{}) (float64, error) {
	switch x := v.(type) {
	case int:
		return float64(x), nil
	case int64:
		return float64(x), nil
	case float64:
		return x, nil
	}
	return 0, fmt.Errorf("want numeric value, got %T", v)
}

// IndexScanSubset materializes a preference sort restricted to the given
// row subset: the returned partial ranking is over the dense sub-domain
// 0..len(subset)-1, where sub-element i corresponds to row subset[i].
func (t *Table) IndexScanSubset(p Preference, subset []int) (*ranking.PartialRanking, error) {
	full, err := t.IndexScan(p)
	if err != nil {
		return nil, err
	}
	scores := make([]float64, len(subset))
	for i, row := range subset {
		if row < 0 || row >= t.NumRows() {
			return nil, fmt.Errorf("db: subset row %d out of range", row)
		}
		scores[i] = full.Pos(row)
	}
	return ranking.FromScores(scores), nil
}

// FilteredQuery is a Query restricted by WHERE-style conditions.
type FilteredQuery struct {
	Conditions  []Condition
	Preferences []Preference
	K           int
}

// TopKWhere answers a filtered preference query: the conditions select a
// sub-catalog, the preference sorts are restricted to it, and MEDRANK
// aggregates the restricted rankings.
func (t *Table) TopKWhere(q FilteredQuery) (*QueryResult, error) {
	return t.TopKWhereContext(context.Background(), q)
}

// TopKWhereContext is TopKWhere under a caller context: cancellation or
// deadline expiry aborts the aggregation mid-scan with ctx.Err().
func (t *Table) TopKWhereContext(ctx context.Context, q FilteredQuery) (*QueryResult, error) {
	ctx, sp := telemetry.Start(ctx, "db.topk_where")
	defer sp.End()
	tFilteredQueries.Inc()
	subset, err := t.Filter(q.Conditions)
	if err != nil {
		return nil, err
	}
	if len(subset) == 0 {
		if q.K > 0 {
			return nil, fmt.Errorf("db: filter matched no rows (k=%d requested)", q.K)
		}
		return &QueryResult{}, nil
	}
	if len(q.Preferences) == 0 {
		return nil, fmt.Errorf("db: query needs at least one preference")
	}
	rankings := make([]*ranking.PartialRanking, 0, len(q.Preferences))
	for _, p := range q.Preferences {
		pr, err := t.IndexScanSubset(p, subset)
		if err != nil {
			return nil, err
		}
		rankings = append(rankings, pr)
	}
	spec := topk.Spec{K: q.K, Policy: topk.RoundRobin}
	res, err := topk.RunRankings(ctx, spec, rankings, nil)
	if err != nil {
		return nil, err
	}
	out := newQueryResult(spec, rankings, res)
	for i, w := range res.Winners {
		out.Keys = append(out.Keys, t.rowKeys[subset[w]])
		out.MedianPositions = append(out.MedianPositions, float64(res.Medians2[i])/2)
	}
	return out, nil
}
