package main

// The reference answers cube queries independently of the program's
// OLAP layer: a star join over the deployed fact and dimension rows
// with plain maps, exact float sums (math/big, rounded once to the
// nearest float64), a naive diamond-dice fixpoint, and its own
// rendering. It shares nothing with the fast path or the star-flow
// oracle but the rows it reads and the star schema it is told.

import (
	"fmt"
	"math"
	"math/big"
	"sort"
	"strconv"
	"strings"

	"quarry/internal/expr"
	"quarry/internal/storage"
)

// starSchema lists, per fact, its foreign keys in fact-column order:
// the fact column and the dimension table whose first column it
// references. A query joins a dimension only when it needs a column
// that neither the fact nor an earlier dimension provides.
var starSchema = map[string][]struct{ fk, dim string }{
	"fact_table_revenue":    {{"p_partkey", "dim_part"}, {"s_suppkey", "dim_supplier"}},
	"fact_table_netprofit":  {{"p_partkey", "dim_part"}, {"s_suppkey", "dim_supplier"}},
	"fact_table_quantity":   {{"c_custkey", "dim_customer"}, {"o_orderkey", "dim_orders"}},
	"fact_table_supplycost": {{"n_nationkey", "dim_nation"}, {"r_regionkey", "dim_region"}},
}

// levelKeys maps dimension → level → the level's key column, for
// roll-ups.
var levelKeys = map[string]map[string]string{
	"Part":     {"Part": "p_name"},
	"Supplier": {"Supplier": "s_name", "Nation": "n_name", "Region": "r_name"},
	"Customer": {"Customer": "c_mktsegment", "Nation": "n_name", "Region": "r_name"},
	"Orders":   {"Orders": "o_orderpriority", "Customer": "c_mktsegment", "Nation": "n_name", "Region": "r_name"},
	"Nation":   {"Nation": "n_name", "Region": "r_name"},
	"Region":   {"Region": "r_name"},
}

// refTable is a plain copy of one deployed table: cells are int64,
// float64 or string.
type refTable struct {
	cols  map[string]int
	types map[string]string
	rows  [][]any
	// byKey indexes rows by the first column (dimensions only).
	byKey map[int64][]any
}

// reference holds the deployed tables of one warehouse version.
type reference struct {
	tables map[string]*refTable
}

// refTables are the deployed tables the reference reads.
var refTables = []string{
	"fact_table_revenue", "fact_table_netprofit", "fact_table_quantity", "fact_table_supplycost",
	"dim_part", "dim_supplier", "dim_customer", "dim_orders", "dim_nation", "dim_region",
}

// loadReference copies the deployed tables out of one consistent
// snapshot.
func loadReference(db *storage.DB) (*reference, error) {
	snap, err := db.Snapshot(refTables...)
	if err != nil {
		return nil, err
	}
	ref := &reference{tables: map[string]*refTable{}}
	for _, name := range refTables {
		view, ok := snap.Table(name)
		if !ok {
			return nil, fmt.Errorf("reference: table %s missing", name)
		}
		t := &refTable{cols: map[string]int{}, types: map[string]string{}}
		for i, c := range view.Columns() {
			t.cols[c.Name] = i
			t.types[c.Name] = c.Type
		}
		cur := view.Cursor(nil)
		for batch := cur.Next(4096); batch != nil; batch = cur.Next(4096) {
			for _, r := range batch {
				row := make([]any, len(r))
				for i, v := range r {
					row[i] = plain(v)
				}
				t.rows = append(t.rows, row)
			}
		}
		if strings.HasPrefix(name, "dim_") {
			t.byKey = make(map[int64][]any, len(t.rows))
			for _, row := range t.rows {
				k, ok := row[0].(int64)
				if !ok {
					return nil, fmt.Errorf("reference: %s key is not an int", name)
				}
				t.byKey[k] = row
			}
		}
		ref.tables[name] = t
	}
	return ref, nil
}

func plain(v expr.Value) any {
	switch v.Kind() {
	case expr.KindInt:
		return v.AsInt()
	case expr.KindFloat:
		f, _ := v.AsFloat()
		return f
	case expr.KindString:
		return v.AsString()
	case expr.KindNull:
		return nil
	}
	return v.String()
}

// refAnswer is a reference result: column names and rendered rows in
// group order.
type refAnswer struct {
	Columns []string
	Rows    [][]string
}

// exactSum accumulates float64 values without rounding.
type exactSum struct{ f *big.Float }

func (s *exactSum) add(x float64) {
	if s.f == nil {
		s.f = new(big.Float).SetPrec(2200)
	}
	s.f.Add(s.f, new(big.Float).SetFloat64(x))
}

func (s *exactSum) round() float64 {
	if s.f == nil {
		return 0
	}
	f, _ := s.f.Float64()
	return f
}

// groupColumns resolves the query's group-by list: explicit columns,
// then roll-up level keys in dimension-name order, without repeats.
func groupColumns(q *query) []string {
	out := append([]string(nil), q.GroupBy...)
	seen := map[string]bool{}
	for _, g := range out {
		seen[g] = true
	}
	for _, d := range sortedKeys(q.RollUp) {
		k := levelKeys[d][q.RollUp[d]]
		if !seen[k] {
			seen[k] = true
			out = append(out, k)
		}
	}
	return out
}

// answer evaluates a query.
func (r *reference) answer(q *query) (*refAnswer, error) {
	fact := r.tables[q.Fact]
	if fact == nil {
		return nil, fmt.Errorf("reference: unknown fact %s", q.Fact)
	}
	groups := groupColumns(q)
	needed := map[string]bool{}
	for _, g := range groups {
		needed[g] = true
	}
	for _, m := range q.Measures {
		if m.Col != "" {
			needed[m.Col] = true
		}
	}
	for _, c := range q.Filter {
		needed[c.Col] = true
	}
	if q.Dice != nil && q.Dice.Col != "" {
		needed[q.Dice.Col] = true
	}
	// Where each needed column comes from: the fact, else the first
	// joined dimension (in foreign-key order) that has it.
	type source struct {
		join int // -1: fact
		idx  int
		typ  string
	}
	src := map[string]source{}
	for c := range needed {
		if i, ok := fact.cols[c]; ok {
			src[c] = source{-1, i, fact.types[c]}
		}
	}
	type join struct {
		fk  int
		dim *refTable
	}
	var joins []join
	for _, fk := range starSchema[q.Fact] {
		dim := r.tables[fk.dim]
		uses := false
		for c := range needed {
			if _, have := src[c]; !have {
				if _, ok := dim.cols[c]; ok {
					uses = true
				}
			}
		}
		if !uses {
			continue
		}
		for c := range needed {
			if _, have := src[c]; !have {
				if i, ok := dim.cols[c]; ok {
					src[c] = source{len(joins), i, dim.types[c]}
				}
			}
		}
		joins = append(joins, join{fact.cols[fk.fk], dim})
	}
	for c := range needed {
		if _, ok := src[c]; !ok {
			return nil, fmt.Errorf("reference: column %s not reachable from %s", c, q.Fact)
		}
	}
	// Detail rows: the needed columns of every joined, filtered row,
	// in fact order.
	cols := sortedKeys(needed)
	pos := map[string]int{}
	for i, c := range cols {
		pos[c] = i
	}
	var detail [][]any
	dimRows := make([][]any, len(joins))
rows:
	for _, frow := range fact.rows {
		for j, jn := range joins {
			k, _ := frow[jn.fk].(int64)
			d, ok := jn.dim.byKey[k]
			if !ok {
				continue rows
			}
			dimRows[j] = d
		}
		vals := make([]any, len(cols))
		for i, c := range cols {
			s := src[c]
			if s.join < 0 {
				vals[i] = frow[s.idx]
			} else {
				vals[i] = dimRows[s.join][s.idx]
			}
		}
		for _, c := range q.Filter {
			if !holds(vals[pos[c.Col]], c.Op, c.Val) {
				continue rows
			}
		}
		detail = append(detail, vals)
	}
	ans := &refAnswer{}
	if q.Dice != nil {
		var err error
		if detail, err = diceNaive(detail, q.Dice, pos); err != nil {
			return nil, err
		}
	}
	// Aggregate the survivors.
	type acc struct {
		key    []any
		count  []int64
		sum    []exactSum
		isum   []int64
		minmax []any
	}
	accs := map[string]*acc{}
	for _, row := range detail {
		var kb strings.Builder
		key := make([]any, len(groups))
		for i, g := range groups {
			key[i] = row[pos[g]]
			kb.WriteString(render(key[i]))
			kb.WriteByte(0)
		}
		a := accs[kb.String()]
		if a == nil {
			n := len(q.Measures)
			a = &acc{key: key, count: make([]int64, n), sum: make([]exactSum, n), isum: make([]int64, n), minmax: make([]any, n)}
			accs[kb.String()] = a
		}
		for i, m := range q.Measures {
			if m.Col == "" {
				a.count[i]++
				continue
			}
			v := row[pos[m.Col]]
			if v == nil {
				continue
			}
			a.count[i]++
			switch m.Func {
			case "SUM", "AVG":
				switch x := v.(type) {
				case int64:
					a.isum[i] += x
					a.sum[i].add(float64(x))
				case float64:
					a.sum[i].add(x)
				default:
					return nil, fmt.Errorf("reference: %s over non-numeric %v", m.Func, v)
				}
			case "MIN":
				if a.minmax[i] == nil || less(v, a.minmax[i]) {
					a.minmax[i] = v
				}
			case "MAX":
				if a.minmax[i] == nil || less(a.minmax[i], v) {
					a.minmax[i] = v
				}
			}
		}
	}
	list := make([]*acc, 0, len(accs))
	for _, a := range accs {
		list = append(list, a)
	}
	sort.Slice(list, func(i, j int) bool {
		for k := range groups {
			if less(list[i].key[k], list[j].key[k]) {
				return true
			}
			if less(list[j].key[k], list[i].key[k]) {
				return false
			}
		}
		return false
	})
	ans.Columns = append(append([]string(nil), groups...), measureOuts(q)...)
	for _, a := range list {
		row := make([]string, 0, len(ans.Columns))
		for _, k := range a.key {
			row = append(row, render(k))
		}
		for i, m := range q.Measures {
			switch {
			case m.Func == "COUNT":
				row = append(row, strconv.FormatInt(a.count[i], 10))
			case a.count[i] == 0:
				row = append(row, "NULL")
			case m.Func == "SUM" && src[m.Col].typ == "int":
				row = append(row, strconv.FormatInt(a.isum[i], 10))
			case m.Func == "SUM":
				row = append(row, render(a.sum[i].round()))
			case m.Func == "AVG":
				row = append(row, render(a.sum[i].round()/float64(a.count[i])))
			default:
				row = append(row, render(a.minmax[i]))
			}
		}
		ans.Rows = append(ans.Rows, row)
	}
	return ans, nil
}

func measureOuts(q *query) []string {
	out := make([]string, len(q.Measures))
	for i, m := range q.Measures {
		out[i] = m.Out
	}
	return out
}

// diceNaive prunes detail rows to the diamond: each pass computes
// every carat over the rows still alive and drops every row carrying
// a value below its threshold, until a pass drops nothing.
func diceNaive(rows [][]any, d *dice, pos map[string]int) ([][]any, error) {
	cols := sortedKeys(d.Thresholds)
	for {
		carats := make([]map[string]*exactSum, len(cols))
		for i := range carats {
			carats[i] = map[string]*exactSum{}
		}
		for _, row := range rows {
			w := 1.0
			if d.Func == "SUM" {
				f, ok := row[pos[d.Col]].(float64)
				if !ok || f < 0 {
					return nil, fmt.Errorf("reference: dice SUM carat over %v", row[pos[d.Col]])
				}
				w = f
			}
			for i, c := range cols {
				k := render(row[pos[c]])
				s := carats[i][k]
				if s == nil {
					s = &exactSum{}
					carats[i][k] = s
				}
				s.add(w)
			}
		}
		kept := rows[:0:0]
		for _, row := range rows {
			ok := true
			for i, c := range cols {
				if carats[i][render(row[pos[c]])].round() < d.Thresholds[c] {
					ok = false
					break
				}
			}
			if ok {
				kept = append(kept, row)
			}
		}
		if len(kept) == len(rows) {
			return rows, nil
		}
		rows = kept
	}
}

// holds evaluates `v op lit`.
func holds(v any, op string, lit any) bool {
	if v == nil {
		return false
	}
	var c int
	switch x := v.(type) {
	case string:
		s, ok := lit.(string)
		if !ok {
			return false
		}
		c = strings.Compare(x, s)
	default:
		a, b := number(v), number(lit)
		switch {
		case a < b:
			c = -1
		case a > b:
			c = 1
		}
	}
	switch op {
	case "=":
		return c == 0
	case "!=":
		return c != 0
	case "<":
		return c < 0
	case "<=":
		return c <= 0
	case ">":
		return c > 0
	case ">=":
		return c >= 0
	}
	return false
}

func number(v any) float64 {
	switch x := v.(type) {
	case int64:
		return float64(x)
	case float64:
		return x
	}
	return math.NaN()
}

func less(a, b any) bool {
	if s, ok := a.(string); ok {
		t, _ := b.(string)
		return s < t
	}
	return number(a) < number(b)
}

// render formats a cell the way answers print it: strings raw,
// integers in decimal, floats in shortest round-trip form with a
// visible decimal point.
func render(v any) string {
	switch x := v.(type) {
	case nil:
		return "NULL"
	case string:
		return x
	case int64:
		return strconv.FormatInt(x, 10)
	case float64:
		s := strconv.FormatFloat(x, 'g', -1, 64)
		if !strings.ContainsAny(s, ".eE") {
			s += ".0"
		}
		return s
	}
	return fmt.Sprint(v)
}
