package main

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// answerBody is a POST /api/olap response body.
type answerBody struct {
	Columns []string   `json:"columns"`
	Rows    [][]string `json:"rows"`
}

func parseAnswer(body []byte) (*answerBody, error) {
	var a answerBody
	if err := json.Unmarshal(body, &a); err != nil {
		return nil, fmt.Errorf("undecodable answer: %v", err)
	}
	return &a, nil
}

// compareAnswer reports the first cell where a served answer differs
// from the reference.
func compareAnswer(got *answerBody, want *refAnswer) error {
	if strings.Join(got.Columns, ",") != strings.Join(want.Columns, ",") {
		return fmt.Errorf("columns %v, reference %v", got.Columns, want.Columns)
	}
	if len(got.Rows) != len(want.Rows) {
		return fmt.Errorf("%d rows, reference %d", len(got.Rows), len(want.Rows))
	}
	for i := range got.Rows {
		if len(got.Rows[i]) != len(want.Rows[i]) {
			return fmt.Errorf("row %d has %d cells, reference %d", i, len(got.Rows[i]), len(want.Rows[i]))
		}
		for j := range got.Rows[i] {
			if got.Rows[i][j] != want.Rows[i][j] {
				return fmt.Errorf("row %d column %s: %q, reference %q", i, want.Columns[j], got.Rows[i][j], want.Rows[i][j])
			}
		}
	}
	return nil
}

// measureIndex returns the answer column of the first measure with
// the given function and column, or -1.
func measureIndex(q *query, a *answerBody, fn, col string) int {
	for _, m := range q.Measures {
		if m.Func == fn && m.Col == col {
			for i, c := range a.Columns {
				if c == m.Out {
					return i
				}
			}
		}
	}
	return -1
}

func columnIndex(a *answerBody, name string) int {
	for i, c := range a.Columns {
		if c == name {
			return i
		}
	}
	return -1
}

// columnTotal sums one answer column: exactly for integers, and with
// the exact accumulator for floats.
func columnTotal(a *answerBody, col int) (int64, float64, error) {
	var n int64
	var s exactSum
	for _, row := range a.Rows {
		if i, err := strconv.ParseInt(row[col], 10, 64); err == nil {
			n += i
			s.add(float64(i))
			continue
		}
		f, err := strconv.ParseFloat(row[col], 64)
		if err != nil {
			return 0, 0, fmt.Errorf("column %s: %q is not a number", a.Columns[col], row[col])
		}
		s.add(f)
	}
	return n, s.round(), nil
}

// checkCounts verifies that the groups' COUNT(*) cells add up to the
// number of fact rows the query's filter keeps (undiced queries only).
func checkCounts(q *query, a *answerBody, rc *rowCounter) error {
	if q.Dice != nil {
		return nil
	}
	ci := measureIndex(q, a, "COUNT", "")
	if ci < 0 {
		return nil
	}
	n, _, err := columnTotal(a, ci)
	if err != nil {
		return err
	}
	kept, err := rc.count(q)
	if err != nil {
		return err
	}
	if n != kept {
		return fmt.Errorf("group counts add up to %d, the filter keeps %d fact rows", n, kept)
	}
	return nil
}

// rowCounter counts the fact rows a query's filter keeps, straight
// from the deployed rows and apart from the reference's join,
// grouping and aggregation. The filter splits into its first
// `fact column > number` conjunct and the rest; the fact column's
// values on the rows the rest keeps are sorted once per fact and
// rest, so each fresh threshold costs one binary search.
type rowCounter struct {
	tables map[string]*refTable
	kept   map[string][]float64
}

func newRowCounter(r *reference) *rowCounter {
	return &rowCounter{tables: r.tables, kept: map[string][]float64{}}
}

func (c *rowCounter) count(q *query) (int64, error) {
	fact := c.tables[q.Fact]
	if fact == nil {
		return 0, fmt.Errorf("row count: unknown fact %s", q.Fact)
	}
	open := -1
	for i, cd := range q.Filter {
		if _, num := cd.Val.(float64); num && cd.Op == ">" {
			if _, ok := fact.cols[cd.Col]; ok {
				open = i
				break
			}
		}
	}
	col := ""
	var rest []cond
	for i, cd := range q.Filter {
		if i == open {
			col = cd.Col
		} else {
			rest = append(rest, cd)
		}
	}
	key := fmt.Sprint(q.Fact, "\x00", col, "\x00", rest)
	vals, ok := c.kept[key]
	if !ok {
		var err error
		if vals, err = c.values(q.Fact, col, rest); err != nil {
			return 0, err
		}
		c.kept[key] = vals
	}
	if open < 0 {
		return int64(len(vals)), nil
	}
	x := q.Filter[open].Val.(float64)
	return int64(len(vals) - sort.Search(len(vals), func(i int) bool { return vals[i] > x })), nil
}

// values returns, sorted, the col values of the fact rows that every
// conjunct of rest keeps (zeros when col is empty). A dimension
// column is read through the first foreign key whose dimension has it.
func (c *rowCounter) values(factName, col string, rest []cond) ([]float64, error) {
	fact := c.tables[factName]
	type lookup struct {
		fk, idx int // fk < 0: a fact column
		dim     *refTable
	}
	looks := make([]lookup, len(rest))
	for i, cd := range rest {
		if j, ok := fact.cols[cd.Col]; ok {
			looks[i] = lookup{fk: -1, idx: j}
			continue
		}
		found := false
		for _, fk := range starSchema[factName] {
			dim := c.tables[fk.dim]
			if j, ok := dim.cols[cd.Col]; ok {
				looks[i] = lookup{fk: fact.cols[fk.fk], idx: j, dim: dim}
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("row count: column %s not reachable from %s", cd.Col, factName)
		}
	}
	var out []float64
rows:
	for _, row := range fact.rows {
		for i, cd := range rest {
			l := looks[i]
			src := row
			if l.fk >= 0 {
				k, _ := row[l.fk].(int64)
				d, ok := l.dim.byKey[k]
				if !ok {
					continue rows
				}
				src = d
			}
			v := src[l.idx]
			if !holds(v, cd.Op, cd.Val) {
				continue rows
			}
		}
		x := 0.0
		if col != "" {
			v := row[fact.cols[col]]
			if v == nil {
				continue
			}
			x = number(v)
		}
		out = append(out, x)
	}
	sort.Float64s(out)
	return out, nil
}

// checkDiceCarats verifies that every value left in a diced answer
// meets its carat threshold, with carats summed from the answer's own
// COUNT(*) (or SUM(col)) cells.
func checkDiceCarats(q *query, a *answerBody) error {
	if q.Dice == nil {
		return nil
	}
	ci := measureIndex(q, a, "COUNT", "")
	if q.Dice.Func == "SUM" {
		ci = measureIndex(q, a, "SUM", q.Dice.Col)
	}
	if ci < 0 {
		return fmt.Errorf("diced query %s carries no carat measure", q.Shape)
	}
	for _, col := range sortedKeys(q.Dice.Thresholds) {
		gi := columnIndex(a, col)
		if gi < 0 {
			return fmt.Errorf("diced column %s missing from the answer", col)
		}
		carats := map[string]float64{}
		for _, row := range a.Rows {
			f, err := strconv.ParseFloat(row[ci], 64)
			if err != nil {
				return fmt.Errorf("carat cell %q is not a number", row[ci])
			}
			carats[row[gi]] += f
		}
		for v, c := range carats {
			if c < q.Dice.Thresholds[col]*(1-1e-12) {
				return fmt.Errorf("diced value %s=%s has carat %v below its threshold %v", col, v, c, q.Dice.Thresholds[col])
			}
		}
	}
	return nil
}

// checkSameTotals verifies that two answers over the same filter but
// different group-bys aggregate the same rows: equal COUNT(*) totals
// and SUM totals equal up to the rounding of the group cells.
func checkSameTotals(qa *query, a *answerBody, qb *query, b *answerBody) error {
	for _, m := range []struct{ fn, col string }{{"COUNT", ""}, {"SUM", "quantity"}} {
		ia, ib := measureIndex(qa, a, m.fn, m.col), measureIndex(qb, b, m.fn, m.col)
		if ia < 0 || ib < 0 {
			return fmt.Errorf("%s(%s) missing from a total pair", m.fn, m.col)
		}
		na, fa, err := columnTotal(a, ia)
		if err != nil {
			return err
		}
		nb, fb, err := columnTotal(b, ib)
		if err != nil {
			return err
		}
		if na != nb || math.Abs(fa-fb) > 1e-9*math.Max(math.Abs(fa), math.Abs(fb)) {
			return fmt.Errorf("%s(%s) totals differ: %s by %v gives %v, %s by %v gives %v",
				m.fn, m.col, qa.Shape, groupColumns(qa), fa, qb.Shape, groupColumns(qb), fb)
		}
	}
	return nil
}

// checkAgainst runs every check that applies to one served answer.
func checkAgainst(q *query, body []byte, want *refAnswer, rc *rowCounter) error {
	a, err := parseAnswer(body)
	if err != nil {
		return err
	}
	if err := compareAnswer(a, want); err != nil {
		return err
	}
	if err := checkCounts(q, a, rc); err != nil {
		return err
	}
	return checkDiceCarats(q, a)
}
