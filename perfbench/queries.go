package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"
)

// measure is one aggregate of a cube query.
type measure struct {
	Out  string `json:"out"`
	Func string `json:"func"`
	Col  string `json:"col"`
}

// cond is one conjunct of a query filter: column OP literal. Val is a
// float64 or a string. Keeping filters structured lets the reference
// evaluate them without the program's expression language.
type cond struct {
	Col string
	Op  string
	Val any
}

// dice is a diamond dice: values of each thresholded group-by column
// whose carat (COUNT of rows, or SUM of Col) is below the threshold
// are pruned until nothing changes.
type dice struct {
	Func       string             `json:"func"`
	Col        string             `json:"col,omitempty"`
	Thresholds map[string]float64 `json:"thresholds"`
}

// query is one cube query as the benchmark sends it to POST /api/olap.
type query struct {
	Shape    string
	Fact     string
	GroupBy  []string
	RollUp   map[string]string
	Measures []measure
	Filter   []cond
	Dice     *dice
}

// filterText renders the filter in the program's expression language.
// Floats print in shortest round-trip decimal, so the server parses
// back exactly the float64 the reference compares against.
func (q *query) filterText() string {
	parts := make([]string, len(q.Filter))
	for i, c := range q.Filter {
		var lit string
		switch v := c.Val.(type) {
		case float64:
			lit = strconv.FormatFloat(v, 'f', -1, 64)
			if !strings.Contains(lit, ".") {
				lit += ".0"
			}
		case string:
			lit = "'" + strings.ReplaceAll(v, "'", "''") + "'"
		default:
			panic(fmt.Sprintf("filter literal of type %T", c.Val))
		}
		parts[i] = c.Col + " " + c.Op + " " + lit
	}
	return strings.Join(parts, " AND ")
}

// body is the POST /api/olap request body.
func (q *query) body(oracle bool) []byte {
	m := map[string]any{"fact": q.Fact, "measures": q.Measures}
	if len(q.GroupBy) > 0 {
		m["group_by"] = q.GroupBy
	}
	if len(q.RollUp) > 0 {
		m["roll_up"] = q.RollUp
	}
	if len(q.Filter) > 0 {
		m["filter"] = q.filterText()
	}
	if q.Dice != nil {
		m["dice"] = q.Dice
	}
	if oracle {
		m["oracle"] = true
	}
	b, err := json.Marshal(m)
	if err != nil {
		panic(err)
	}
	return b
}

func sumCount(col string) []measure {
	return []measure{{Out: "total", Func: "SUM", Col: col}, {Out: "n", Func: "COUNT"}}
}

// tiles is the dashboard: the golden cube-query mix of the load
// harness (per-supplier and rolled-up totals, brand slices, a diamond
// dice, a cross tab and a filtered drill), extended to all four facts
// of the canonical requirements. Order matters: the Zipf picker makes
// earlier tiles hotter. Dice thresholds scale with sf so that the
// dice prunes a similar share of values at every scale factor.
func tiles(sf float64) []query {
	var out []query
	for _, f := range []struct{ fact, col string }{
		{"fact_table_revenue", "revenue"},
		{"fact_table_netprofit", "netprofit"},
	} {
		out = append(out,
			query{Shape: f.col + "_by_nation", Fact: f.fact, RollUp: map[string]string{"Supplier": "Nation"}, Measures: sumCount(f.col)},
			query{Shape: f.col + "_by_supplier", Fact: f.fact, GroupBy: []string{"s_name"}, Measures: sumCount(f.col)},
			query{Shape: f.col + "_by_region", Fact: f.fact, RollUp: map[string]string{"Supplier": "Region"}, Measures: sumCount(f.col)},
			query{Shape: f.col + "_by_brand", Fact: f.fact, GroupBy: []string{"p_brand"}, Measures: sumCount(f.col)},
			query{Shape: f.col + "_count_by_brand", Fact: f.fact, GroupBy: []string{"p_brand"}, Measures: []measure{{Out: "n", Func: "COUNT"}}},
			query{Shape: f.col + "_brand_dice", Fact: f.fact, GroupBy: []string{"p_brand"}, Measures: sumCount(f.col),
				Dice: &dice{Func: "COUNT", Thresholds: map[string]float64{"p_brand": roundTo(0.12*sf, 1)}}},
			query{Shape: f.col + "_supplier_brand_cross", Fact: f.fact, GroupBy: []string{"s_name", "p_brand"}, Measures: []measure{{Out: "n", Func: "COUNT"}}},
			query{Shape: f.col + "_filtered_brand_drill", Fact: f.fact, GroupBy: []string{"p_name"}, Measures: sumCount(f.col),
				Filter: []cond{{"p_brand", "=", "Brand#12"}}},
		)
	}
	const qf = "fact_table_quantity"
	out = append(out,
		query{Shape: "quantity_by_segment", Fact: qf, GroupBy: []string{"c_mktsegment"}, Measures: sumCount("quantity")},
		query{Shape: "quantity_by_priority", Fact: qf, GroupBy: []string{"o_orderpriority"}, Measures: sumCount("quantity")},
		query{Shape: "quantity_by_nation", Fact: qf, RollUp: map[string]string{"Customer": "Nation"}, Measures: sumCount("quantity")},
		query{Shape: "quantity_by_region", Fact: qf, RollUp: map[string]string{"Customer": "Region"}, Measures: sumCount("quantity")},
		query{Shape: "avg_quantity_by_segment", Fact: qf, GroupBy: []string{"c_mktsegment"},
			Measures: []measure{{Out: "avg", Func: "AVG", Col: "quantity"}, {Out: "n", Func: "COUNT"}}},
		query{Shape: "segment_priority_cross", Fact: qf, GroupBy: []string{"c_mktsegment", "o_orderpriority"}, Measures: sumCount("quantity")},
		query{Shape: "quantity_nation_dice", Fact: qf, GroupBy: []string{"n_name", "o_orderpriority"}, Measures: sumCount("quantity"),
			Dice: &dice{Func: "COUNT", Thresholds: map[string]float64{"n_name": roundTo(6*sf, 1), "o_orderpriority": roundTo(1.2*sf, 1)}}},
		query{Shape: "filtered_segment_drill", Fact: qf, RollUp: map[string]string{"Customer": "Nation"}, Measures: sumCount("quantity"),
			Filter: []cond{{"c_mktsegment", "=", "BUILDING"}}},
	)
	const sc = "fact_table_supplycost"
	out = append(out,
		query{Shape: "supplycost_by_nation", Fact: sc, GroupBy: []string{"n_name"}, Measures: sumCount("supplycost")},
		query{Shape: "supplycost_by_region", Fact: sc, RollUp: map[string]string{"Nation": "Region"}, Measures: sumCount("supplycost")},
		query{Shape: "supplycost_max_by_region", Fact: sc, GroupBy: []string{"r_name"},
			Measures: []measure{{Out: "max", Func: "MAX", Col: "supplycost"}, {Out: "n", Func: "COUNT"}}},
	)
	return out
}

func roundTo(x, min float64) float64 {
	x = float64(int64(x + 0.5))
	if x < min {
		return min
	}
	return x
}

// adhocShapes is one round of the adhoc mix, in order. The shares are
// fixed per round so that every seed sees the same cost profile, and
// they put the median in the middle of one shape's answers: the three
// cheap queries (revenue dice, netprofit, supplycost) take the lowest
// quarter, the five order-window queries grouped by priority (about
// 160 ms at SF 1000 on 2 vCPUs) the middle five twelfths, and the
// four that join a second dimension or group by more (segment,
// nation, region+priority, the segment-by-priority cross tab; about
// 280 ms) the top third. With the priority block at the 25th-67th
// percentiles, the p50 stays inside it; a median at the edge between
// two blocks would jump between their levels from run to run. The
// first two queries of a round share their filter, so their
// group totals must agree (a property the checker verifies without
// the reference).
var adhocShapes = []string{
	"orders_window_priority", "orders_window_segment", "revenue_dice",
	"orders_window_priority", "orders_window_nation", "netprofit_by_nation",
	"orders_window_priority", "segment_priority_cross", "supplycost_filtered",
	"orders_window_priority", "orders_window_region", "orders_window_priority",
}

// adhocGen draws the adhoc query sequence. Every query carries a fresh
// constant on a fact column, and the generator refuses duplicates, so
// no query repeats within a run and the result cache never answers.
//
// Filters on dimension columns use one order-date window per run:
// the fast path caches one dimension hash table per distinct pushed-
// down dimension predicate, each a full copy of the dimension
// (~85 MB for dim_orders at SF 1000), up to 128 of them, so fresh
// dimension constants per query would exhaust the machine's memory
// within seconds.
type adhocGen struct {
	rng    *rand.Rand
	sf     float64
	window []cond
	seen   map[string]bool
}

// newAdhocGen draws the run's order-date window from runSeed and the
// per-query constants from streamSeed.
func newAdhocGen(runSeed, streamSeed int64, sf float64) *adhocGen {
	g := &adhocGen{rng: rand.New(rand.NewSource(runSeed)), sf: sf, seen: map[string]bool{}}
	from := g.orderDate(5 * 365)
	g.window = []cond{{"o_orderdate", ">=", from}, {"o_orderdate", "<", yearLater(from)}}
	g.rng = rand.New(rand.NewSource(streamSeed))
	return g
}

// round returns the next round of len(adhocShapes) distinct queries.
func (g *adhocGen) round() []query {
	out := make([]query, 0, len(adhocShapes))
	pair := g.fine(5, 30)
	for i, shape := range adhocShapes {
		for {
			min := g.fine(5, 30)
			if i < 2 {
				min = pair
			}
			q := g.make(shape, min)
			key := string(q.body(false))
			if !g.seen[key] {
				g.seen[key] = true
				out = append(out, q)
				break
			}
			pair = g.fine(5, 30)
		}
	}
	return out
}

// orderDate returns a date string in the generator's 1992-01-01 ..
// 1998-08-02 range, offset by a uniformly drawn day.
func (g *adhocGen) orderDate(maxDay int) string {
	d := g.rng.Intn(maxDay)
	y, m := 1992, 1
	day := 1 + d
	for {
		dim := daysIn(y, m)
		if day <= dim {
			break
		}
		day -= dim
		m++
		if m > 12 {
			m, y = 1, y+1
		}
	}
	return fmt.Sprintf("%04d-%02d-%02d", y, m, day)
}

func daysIn(y, m int) int {
	switch m {
	case 2:
		if y%4 == 0 {
			return 29
		}
		return 28
	case 4, 6, 9, 11:
		return 30
	}
	return 31
}

// money draws a constant with cents in [lo, hi).
func (g *adhocGen) money(lo, hi float64) float64 {
	cents := int64(lo*100) + g.rng.Int63n(int64((hi-lo)*100))
	return float64(cents) / 100
}

// fine draws a constant with four decimals in [lo, hi), for the
// quantity thresholds whose range is narrow.
func (g *adhocGen) fine(lo, hi float64) float64 {
	n := int64(lo*1e4) + g.rng.Int63n(int64((hi-lo)*1e4))
	return float64(n) / 1e4
}

// yearLater returns the date one year after d (Feb 29 maps to Mar 1).
func yearLater(d string) string {
	y, _ := strconv.Atoi(d[:4])
	if d[5:] == "02-29" {
		return fmt.Sprintf("%04d-03-01", y+1)
	}
	return fmt.Sprintf("%04d%s", y+1, d[4:])
}

// make builds one query of a shape; minQty is the fresh constant of
// the quantity-fact shapes.
func (g *adhocGen) make(shape string, minQty float64) query {
	const qf = "fact_table_quantity"
	qty := []measure{{Out: "total", Func: "SUM", Col: "quantity"}, {Out: "n", Func: "COUNT"}, {Out: "avg", Func: "AVG", Col: "quantity"}}
	windowed := append([]cond{{"quantity", ">", minQty}}, g.window...)
	switch shape {
	case "orders_window_priority":
		return query{Shape: shape, Fact: qf, GroupBy: []string{"o_orderpriority"}, Measures: qty, Filter: windowed}
	case "orders_window_segment":
		return query{Shape: shape, Fact: qf, GroupBy: []string{"c_mktsegment"}, Measures: qty, Filter: windowed}
	case "orders_window_nation":
		return query{Shape: shape, Fact: qf, RollUp: map[string]string{"Orders": "Nation"}, Measures: qty, Filter: windowed}
	case "orders_window_region":
		return query{Shape: shape, Fact: qf, RollUp: map[string]string{"Orders": "Region"}, GroupBy: []string{"o_orderpriority"}, Measures: qty, Filter: windowed}
	case "segment_priority_cross":
		return query{Shape: shape, Fact: qf, GroupBy: []string{"c_mktsegment", "o_orderpriority"}, Measures: qty,
			Filter: []cond{{"quantity", ">", minQty}}}
	case "revenue_dice":
		return query{Shape: shape, Fact: "fact_table_revenue", GroupBy: []string{"p_brand", "p_type"},
			Measures: []measure{{Out: "total", Func: "SUM", Col: "revenue"}, {Out: "n", Func: "COUNT"}},
			Filter:   []cond{{"revenue", ">", g.money(0, 20000)}},
			Dice:     &dice{Func: "COUNT", Thresholds: map[string]float64{"p_brand": roundTo(0.04*g.sf, 2), "p_type": roundTo(0.15*g.sf, 2)}}}
	case "netprofit_by_nation":
		return query{Shape: shape, Fact: "fact_table_netprofit", RollUp: map[string]string{"Supplier": "Nation"}, GroupBy: []string{"p_brand"},
			Measures: sumCount("netprofit"), Filter: []cond{{"netprofit", ">", g.money(0, 500000)}}}
	case "supplycost_filtered":
		// The literal stays below 1e6: the star-flow oracle re-renders
		// larger float literals in exponent form, which its own filter
		// parser then rejects.
		return query{Shape: shape, Fact: "fact_table_supplycost", GroupBy: []string{"n_name"},
			Measures: []measure{{Out: "total", Func: "SUM", Col: "supplycost"}, {Out: "n", Func: "COUNT"}, {Out: "min", Func: "MIN", Col: "supplycost"}},
			Filter:   []cond{{"supplycost", ">", g.money(0, 999999)}}}
	}
	panic("unknown adhoc shape " + shape)
}

// sortedKeys returns a map's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
