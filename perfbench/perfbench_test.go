package main

import (
	"context"
	"encoding/json"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// TestQuickWorkloads runs every workload end to end at a tiny scale
// factor and insists on whole, correct, fully reported runs.
func TestQuickWorkloads(t *testing.T) {
	for _, name := range []string{"dashboard", "adhoc"} {
		t.Run(name, func(t *testing.T) {
			res, err := run(options{workload: name, seed: 7, seconds: 1, quick: true, dir: t.TempDir()})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
			}
			for _, m := range []string{"query_p50_ms", "throughput_qps", "publish_s",
				"etl_run_s", "disk_mb", "heap_peak_mb", "setup_s"} {
				if v, ok := res.Metrics[m]; !ok || !(v.Value > 0) {
					t.Errorf("metric %s = %+v, want a positive value", m, v)
				}
			}
		})
	}
}

// TestQuickTraced runs the traced variant once and checks that the
// per-layer metrics are reported.
func TestQuickTraced(t *testing.T) {
	res, err := run(options{workload: "dashboard", seed: 3, seconds: 1, quick: true, trace: true, dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 {
		t.Fatalf("correct=%v failed=%d", res.Correct, res.Failed)
	}
	if len(res.Metrics) != len(perLayerNames) {
		t.Errorf("%d per-layer metrics, want %d", len(res.Metrics), len(perLayerNames))
	}
	for _, m := range perLayerNames {
		if _, ok := res.Metrics[m]; !ok {
			t.Errorf("per-layer metric %s missing", m)
		}
	}
}

// TestCheckerCatchesFaults serves real answers, confirms the checker
// accepts them, then alters one cell, drops one group and slips a
// pruned value into a diced answer, and expects each to be caught.
func TestCheckerCatchesFaults(t *testing.T) {
	const sf = 5
	s, _, err := startSystem(filepath.Join(t.TempDir(), "wh"), sf, 11, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s.stop()
	ref, err := loadReference(s.db)
	if err != nil {
		t.Fatal(err)
	}
	rc := newRowCounter(ref)
	serve := func(q *query) *answerBody {
		t.Helper()
		r := s.cl.query(context.Background(), q.body(false), nil)
		if r.err != nil {
			t.Fatalf("%s: %v", q.Shape, r.err)
		}
		a, err := parseAnswer(r.body)
		if err != nil {
			t.Fatal(err)
		}
		return a
	}
	check := func(q *query, a *answerBody) error {
		t.Helper()
		want, err := ref.answer(q)
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(a)
		if err != nil {
			t.Fatal(err)
		}
		return checkAgainst(q, b, want, rc)
	}
	for _, q := range tiles(sf) {
		if err := check(&q, serve(&q)); err != nil {
			t.Fatalf("served %s rejected: %v", q.Shape, err)
		}
	}

	bySegment := query{Shape: "by_segment", Fact: "fact_table_quantity", GroupBy: []string{"c_mktsegment"}, Measures: sumCount("quantity")}
	good := serve(&bySegment)
	altered := clone(good)
	f, _ := strconv.ParseFloat(altered.Rows[1][1], 64)
	altered.Rows[1][1] = render(f + 1)
	if err := check(&bySegment, altered); err == nil {
		t.Error("an altered cell passed the check")
	}
	dropped := clone(good)
	dropped.Rows = dropped.Rows[1:]
	if err := check(&bySegment, dropped); err == nil {
		t.Error("a dropped group passed the check")
	}
	// The COUNT property alone, without the reference: the groups'
	// counts must add up to the rows the filter keeps.
	if err := checkCounts(&bySegment, good, rc); err != nil {
		t.Fatalf("served counts rejected: %v", err)
	}
	if err := checkCounts(&bySegment, dropped, rc); err == nil {
		t.Error("the COUNT property missed a dropped group")
	}
	miscounted := clone(good)
	n, _ := strconv.Atoi(miscounted.Rows[0][2])
	miscounted.Rows[0][2] = strconv.Itoa(n + 1)
	if err := checkCounts(&bySegment, miscounted, rc); err == nil {
		t.Error("the COUNT property missed an altered count")
	}

	// A wrong answer in a window fails its operation and makes the
	// run incorrect.
	body, err := json.Marshal(altered)
	if err != nil {
		t.Fatal(err)
	}
	right := s.cl.query(context.Background(), bySegment.body(false), nil)
	wrongReply := right
	wrongReply.body = body
	ph := &phase{attempted: 2, samples: []sample{{idx: 0, reply: right}, {idx: 1, reply: wrongReply}},
		queries: func(int) *query { return &bySegment }}
	if err := checkTileSamples(ph, func(uint64) (*reference, string) { return ref, "" }); err != nil {
		t.Fatal(err)
	}
	if res := tally(ph); res.Correct || res.Attempted != 2 || res.Failed != 1 {
		t.Errorf("window with one wrong answer: correct=%v attempted=%d failed=%d, want false 2 1", res.Correct, res.Attempted, res.Failed)
	}

	// A dice that keeps only the segments with the most rows; then
	// slip one pruned segment back into the answer.
	counts := map[string]int{}
	maxCount := 0
	for _, row := range good.Rows {
		n, _ := strconv.Atoi(row[2])
		counts[row[0]] = n
		maxCount = max(maxCount, n)
	}
	diced := bySegment
	diced.Dice = &dice{Func: "COUNT", Thresholds: map[string]float64{"c_mktsegment": float64(maxCount)}}
	dicedAns := serve(&diced)
	if err := check(&diced, dicedAns); err != nil {
		t.Fatalf("served dice rejected: %v", err)
	}
	wrong := clone(dicedAns)
	for _, row := range good.Rows {
		if counts[row[0]] < maxCount {
			wrong.Rows = append(wrong.Rows, append([]string(nil), row...))
			break
		}
	}
	sort.Slice(wrong.Rows, func(i, j int) bool { return wrong.Rows[i][0] < wrong.Rows[j][0] })
	if err := check(&diced, wrong); err == nil {
		t.Error("a wrongly diced value passed the reference check")
	}
	if err := checkDiceCarats(&diced, wrong); err == nil || !strings.Contains(err.Error(), "below its threshold") {
		t.Errorf("carat property missed a wrongly diced value: %v", err)
	}

	// Two group-bys over one filter must agree on their totals.
	seg := query{Shape: "seg", Fact: "fact_table_quantity", GroupBy: []string{"c_mktsegment"}, Measures: sumCount("quantity"),
		Filter: []cond{{"quantity", ">", 10.5}}}
	prio := seg
	prio.GroupBy = []string{"o_orderpriority"}
	a, b := serve(&seg), serve(&prio)
	if err := checkSameTotals(&seg, a, &prio, b); err != nil {
		t.Fatalf("served pair rejected: %v", err)
	}
	if err := checkCounts(&seg, a, rc); err != nil {
		t.Fatalf("filtered counts rejected: %v", err)
	}
	b.Rows = b.Rows[1:]
	if err := checkSameTotals(&seg, a, &prio, b); err == nil {
		t.Error("a pair with a dropped group passed the totals check")
	}
}

func clone(a *answerBody) *answerBody {
	c := &answerBody{Columns: append([]string(nil), a.Columns...)}
	for _, r := range a.Rows {
		c.Rows = append(c.Rows, append([]string(nil), r...))
	}
	return c
}
