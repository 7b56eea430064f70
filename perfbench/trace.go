package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"quarry/internal/engine"
	"quarry/internal/expr"
	"quarry/internal/olap"
	"quarry/internal/storage"
	"quarry/internal/tpch"
	"quarry/internal/xrq"
)

// span is one timed call at a layer boundary. Spans of one request
// share the trace id; parent names the span that caused this one.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Trace  uint64 `json:"trace"`
	Layer  string `json:"layer"`
	Name   string `json:"name"`
	Class  string `json:"class,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory; they are written out when the run
// ends. Client spans are recorded around each request the load
// generator sends; the handler wrapper records the server's span as
// a child, linked through spanHeader.
type tracer struct {
	t0     time.Time
	on     atomic.Bool
	next   atomic.Uint64
	mu     sync.Mutex
	spans  []span
	failed int64
}

func newTracer() *tracer {
	return &tracer{t0: time.Now()}
}

func (t *tracer) enable()  { t.on.Store(true) }
func (t *tracer) disable() { t.on.Store(false) }

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

func (t *tracer) add(s span) uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	if s.ID == 0 {
		s.ID = t.next.Add(1)
	}
	if s.Trace == 0 {
		s.Trace = s.ID
	}
	t.spans = append(t.spans, s)
	return s.ID
}

// timed records a span around fn.
func (t *tracer) timed(layer, name string, fn func() error) (time.Duration, error) {
	start := t.now()
	err := fn()
	end := t.now()
	t.add(span{Layer: layer, Name: name, Start: start, End: end})
	return time.Duration(end - start), err
}

// requestHeader allocates the client span id of load request i.
func (t *tracer) requestHeader(int) map[string]string {
	return map[string]string{spanHeader: strconv.FormatUint(t.next.Add(1), 10)}
}

// classWriter captures the answer class a handler stamps.
type classWriter struct {
	http.ResponseWriter
	class string
}

func (w *classWriter) WriteHeader(code int) {
	w.class = w.ResponseWriter.Header().Get("X-Quarry-Class")
	w.ResponseWriter.WriteHeader(code)
}

// wrapHandler records a server span for every request that carries a
// client span id while tracing is on.
func (t *tracer) wrapHandler(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id, _ := strconv.ParseUint(r.Header.Get(spanHeader), 10, 64)
		if id == 0 || !t.on.Load() {
			h.ServeHTTP(w, r)
			return
		}
		cw := &classWriter{ResponseWriter: w}
		start := t.now()
		h.ServeHTTP(cw, r)
		t.add(span{Parent: id, Trace: id, Layer: "server", Name: "handler", Class: cw.class, Start: start, End: t.now()})
	})
}

// selfTimes sums each layer's self time: a span's duration minus the
// part of it its child spans cover.
func selfTimes(spans []span) map[string]time.Duration {
	children := map[uint64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]time.Duration{}
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, hi := int64(0), s.Start
		for _, k := range kids {
			lo, end := max(k.Start, hi), min(k.End, s.End)
			if end > lo {
				covered += end - lo
				hi = end
			}
		}
		out[s.Layer] += time.Duration(s.End - s.Start - covered)
	}
	return out
}

// runtimeDelta is GC activity over a window.
type runtimeDelta struct {
	gcCycles        uint64
	gcCPU, totalCPU float64
}

func (r runtimeDelta) gcShare() float64 {
	if r.totalCPU <= 0 {
		return 0
	}
	return r.gcCPU / r.totalCPU
}

type runtimeSnap struct{ s []metrics.Sample }

func takeRuntime() runtimeSnap {
	s := []metrics.Sample{
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	return runtimeSnap{s}
}

func (a runtimeSnap) since(b runtimeSnap) runtimeDelta {
	return runtimeDelta{
		gcCycles: a.s[0].Value.Uint64() - b.s[0].Value.Uint64(),
		gcCPU:    a.s[1].Value.Float64() - b.s[1].Value.Float64(),
		totalCPU: a.s[2].Value.Float64() - b.s[2].Value.Float64(),
	}
}

// olapStats is the part of GET /api/olap/stats the benchmark reads.
type olapStats struct {
	CacheHits   int64 `json:"cache_hits"`
	CacheMisses int64 `json:"cache_misses"`
	MatAgg      *struct {
		Hits   int64 `json:"hits"`
		Misses int64 `json:"misses"`
	} `json:"matagg"`
}

func scrapeStats(s *system) (*olapStats, error) {
	resp, err := s.cl.hc.Get(s.base + "/api/olap/stats")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var st olapStats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return nil, err
	}
	return &st, nil
}

// cube converts a benchmark query to the OLAP layer's form.
func cube(q *query) olap.CubeQuery {
	c := olap.CubeQuery{Fact: q.Fact, GroupBy: q.GroupBy, RollUp: q.RollUp}
	if len(q.Filter) > 0 {
		c.Filter = q.filterText()
	}
	for _, m := range q.Measures {
		c.Measures = append(c.Measures, olap.MeasureSpec{Out: m.Out, Func: m.Func, Col: m.Col})
	}
	if q.Dice != nil {
		c.Dice = &olap.DiceSpec{Func: q.Dice.Func, Col: q.Dice.Col, Thresholds: q.Dice.Thresholds}
	}
	return c
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// perLayerNames are the per-layer metrics every traced run reports,
// whatever the workload (BENCHMARK.json lists the same names).
var perLayerNames = []string{
	"server.handler_us.cache_hit", "server.handler_us.fast", "server.handler_us.dice",
	"server.handler_us.matagg", "server.handler_us.oracle", "server.net_us", "server.cache_hit_ratio",
	"server.class_share.cache_hit", "server.class_share.fast", "server.class_share.dice", "server.class_share.matagg",
	"olap.fast_us_p50", "olap.fast_us_tail", "olap.ns_per_fact_row", "olap.dice_us",
	"olap.allocs_per_query", "olap.alloc_mb_per_query", "olap.oracle_us", "olap.fast_over_oracle",
	"olap.matagg_refresh_ms", "olap.matagg_materialized", "olap.matagg_hit_ratio", "olap.matagg_us",
	"storage.scan_ms", "storage.pages_read", "storage.pages_skipped", "storage.open_ms",
	"storage.checkpoint_ms", "storage.disk_bytes", "storage.segments",
	"engine.run_s", "engine.ns_per_row", "engine.allocs_per_row", "engine.gc_cpu_share",
	"engine.rows_processed", "engine.pipelined_copy_run_s", "engine.materializing_run_s",
	"design.change_ms", "design.deploy_ms", "tpch.generate_s", "gc.cycles", "gc.cpu_share",
	"loadgen.late_us_p50", "loadgen.late_us_max", "query.tail_ms", "trace.overhead_pct", "trace.spans",
	"trace.self_ms.net", "trace.self_ms.server", "trace.self_ms.olap", "trace.self_ms.storage",
	"trace.self_ms.engine", "trace.self_ms.design",
}

// perLayer computes the per-layer metrics of a traced run: figures
// from the traced window, then probes that call each layer's public
// functions directly, single-threaded, with nothing else running.
func perLayer(sys *system, st *runState, w *workload, tr *tracer, ph, untraced *phase,
	before, after *olapStats, rt runtimeDelta, root string) (map[string]metric, error) {
	m := map[string]metric{}
	put := func(name string, v float64, unit string) { m[name] = metric{v, unit} }

	// Load generator and serving layer, from the traced window: each
	// answered request becomes a client span, the parent of the
	// handler span the wrapper recorded for it.
	tr.mu.Lock()
	handler := map[uint64]span{}
	for _, s := range tr.spans {
		if s.Layer == "server" && s.Name == "handler" {
			handler[s.Parent] = s
		}
	}
	tr.mu.Unlock()
	var net dist
	shares := map[string]int{}
	answered := 0
	for _, smp := range ph.samples {
		if smp.reply.err != nil {
			continue
		}
		answered++
		shares[smp.reply.class]++
		if smp.span == 0 {
			continue
		}
		tr.add(span{ID: smp.span, Layer: "net", Name: "request", Class: smp.reply.class,
			Start: int64(smp.sent.Sub(tr.t0)), End: int64(smp.done.Sub(tr.t0))})
		if h, ok := handler[smp.span]; ok {
			net = append(net, smp.done.Sub(smp.sent)-h.dur())
		}
	}
	put("server.net_us", us(net.median()), "us")
	for _, c := range []string{olap.ClassCacheHit, olap.ClassFast, olap.ClassDice, olap.ClassMatAgg} {
		put("server.class_share."+c, ratio(float64(shares[c]), float64(answered)), "ratio")
	}
	if before != nil && after != nil {
		h, mi := after.CacheHits-before.CacheHits, after.CacheMisses-before.CacheMisses
		put("server.cache_hit_ratio", ratio(float64(h), float64(h+mi)), "ratio")
		if before.MatAgg != nil && after.MatAgg != nil {
			mh, mm := after.MatAgg.Hits-before.MatAgg.Hits, after.MatAgg.Misses-before.MatAgg.Misses
			put("olap.matagg_hit_ratio", ratio(float64(mh), float64(mh+mm)), "ratio")
		}
	}
	// Lateness of the latency window's sends: the open loop's on the
	// dashboard, 0 for adhoc's closed loop.
	var late dist
	for _, s := range ph.latSamples {
		late = append(late, s.late)
	}
	put("loadgen.late_us_p50", us(late.median()), "us")
	put("loadgen.late_us_max", us(late.sorted()[len(late)-1]), "us")
	// The tail of the traced window. It is not an end-to-end metric:
	// sub-millisecond dashboard tails swing several-fold with the
	// host's CPU steal, so no bound on them would hold.
	put("query.tail_ms", ms(ph.tail), "ms")
	put("gc.cycles", float64(rt.gcCycles), "count")
	put("gc.cpu_share", rt.gcShare(), "ratio")
	if untraced != nil && untraced.p50 > 0 {
		put("trace.overhead_pct", 100*(float64(ph.p50)/float64(untraced.p50)-1), "%")
	}

	// Probes.
	sample := probeSample(sys, st, w)
	logf("probing the layers")
	if err := probeOLAP(sys, tr, sample, put); err != nil {
		return nil, err
	}
	if err := probeServer(sys, tr, sample, put); err != nil {
		return nil, err
	}
	if err := probeStorage(sys, tr, sample, root, put); err != nil {
		return nil, err
	}
	logf("olap, server and storage probed")
	if err := probeDesign(sys, tr, put); err != nil {
		return nil, err
	}
	if err := probeEngine(sys, tr, st.seed, put); err != nil {
		return nil, err
	}
	for layer, d := range selfTimes(tr.spans) {
		put("trace.self_ms."+layer, ms(d), "ms")
	}
	put("trace.spans", float64(len(tr.spans)), "count")
	path := filepath.Join(filepath.Dir(root), fmt.Sprintf("spans-%s-%d.json", w.name, st.seed))
	if err := writeSpans(path, tr.spans); err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "perfbench: %d spans written to %s\n", len(tr.spans), path)
	return m, nil
}

// setupLayers adds the per-layer figures of the run's set-ups and
// insists that every per-layer metric was measured.
func setupLayers(m map[string]metric, setups []setupTimes) error {
	var gen, ckpt []float64
	for _, t := range setups {
		gen = append(gen, t.generate.Seconds())
		ckpt = append(ckpt, ms(t.checkpoint))
	}
	m["tpch.generate_s"] = metric{medianF(gen), "s"}
	m["storage.checkpoint_ms"] = metric{medianF(ckpt), "ms"}
	for _, name := range perLayerNames {
		if _, ok := m[name]; !ok {
			return fmt.Errorf("per-layer metric %s was not measured", name)
		}
	}
	return nil
}

func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

// probeSample is the query sample the layer probes run: the adhoc
// sequence's first rounds, or the dashboard tiles twice over.
func probeSample(sys *system, st *runState, w *workload) []*query {
	var out []*query
	if w.name == "adhoc" {
		g := newAdhocGen(st.seed, st.seed^0x9e3779b9, sys.sf)
		for len(out) < 4*len(adhocShapes) {
			for _, q := range g.round() {
				q := q
				out = append(out, &q)
			}
		}
		return out
	}
	ts := tiles(sys.sf)
	for k := 0; k < 2; k++ {
		for i := range ts {
			out = append(out, &ts[i])
		}
	}
	return out
}

// probeServer times Handler().ServeHTTP into a recorder per answer
// class: a repeated tile (cache hit), fresh queries (fast path and
// dice), a materialized aggregate, and the oracle.
func probeServer(sys *system, tr *tracer, sample []*query, put func(string, float64, string)) error {
	h := sys.srv.Handler()
	serve := func(body []byte) (time.Duration, string, error) {
		req := httptest.NewRequest(http.MethodPost, "/api/olap", strings.NewReader(string(body)))
		rec := httptest.NewRecorder()
		d, _ := tr.timed("server", "handler.probe", func() error { h.ServeHTTP(rec, req); return nil })
		if rec.Code != http.StatusOK {
			b, _ := io.ReadAll(rec.Body)
			return 0, "", fmt.Errorf("handler probe: status %d: %s", rec.Code, b)
		}
		return d, rec.Header().Get("X-Quarry-Class"), nil
	}
	byClass := map[string]dist{}
	for i, q := range sample {
		// A fresh output name misses the result cache while keeping the
		// aggregate pattern, so the materialized aggregates can answer.
		fresh := *q
		fresh.Measures = append([]measure(nil), q.Measures...)
		fresh.Measures[0].Out = fmt.Sprintf("%s_probe%d", q.Measures[0].Out, i)
		d, c, err := serve(fresh.body(false))
		if err != nil {
			return err
		}
		byClass[c] = append(byClass[c], d)
		d, c, err = serve(fresh.body(false))
		if err != nil {
			return err
		}
		byClass[c] = append(byClass[c], d)
		if i < 6 {
			d, c, err = serve(fresh.body(true))
			if err != nil {
				return err
			}
			byClass[c] = append(byClass[c], d)
		}
	}
	for _, c := range []string{olap.ClassCacheHit, olap.ClassFast, olap.ClassDice, olap.ClassMatAgg, olap.ClassOracle} {
		put("server.handler_us."+c, us(byClass[c].median()), "us")
	}
	return nil
}

// probeOLAP runs the sample single-threaded on Engine.QueryContext
// of an engine without the materialized-aggregate store (so every
// answer takes the fast path, as the oracle's does), with allocation
// counts, then on the star-flow oracle, checking byte identity. It
// then refreshes the platform's aggregate store and times the answers
// it serves.
func probeOLAP(sys *system, tr *tracer, sample []*query, put func(string, float64, string)) error {
	attached, err := sys.p.OLAP()
	if err != nil {
		return err
	}
	eng := attached.WithMatAgg(nil)
	ctx := context.Background()
	results := make([]*olap.Result, len(sample))
	var fast, dice, all dist
	var factRows int64
	var ms0, ms1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	for i, q := range sample {
		d, err := tr.timed("olap", "query", func() error {
			var err error
			results[i], err = eng.QueryContext(ctx, cube(q))
			return err
		})
		if err != nil {
			return fmt.Errorf("%s: %w", q.Shape, err)
		}
		all = append(all, d)
		if results[i].Class == olap.ClassDice {
			dice = append(dice, d)
			continue
		}
		fast = append(fast, d)
		if t, ok := sys.db.Table(q.Fact); ok {
			factRows += t.NumRows()
		}
	}
	runtime.ReadMemStats(&ms1)
	n := float64(len(sample))
	put("olap.allocs_per_query", float64(ms1.Mallocs-ms0.Mallocs)/n, "count")
	put("olap.alloc_mb_per_query", float64(ms1.TotalAlloc-ms0.TotalAlloc)/n/1e6, "MB")
	put("olap.fast_us_p50", us(fast.median()), "us")
	ft, _ := fast.tail()
	put("olap.fast_us_tail", us(ft), "us")
	var fastTotal time.Duration
	for _, d := range fast {
		fastTotal += d
	}
	put("olap.ns_per_fact_row", ratio(float64(fastTotal), float64(factRows)), "ns")
	put("olap.dice_us", us(dice.median()), "us")
	var oracle dist
	for i, q := range sample {
		var res *olap.Result
		d, err := tr.timed("olap", "oracle", func() error {
			var err error
			res, err = eng.QueryStarFlowContext(ctx, cube(q))
			return err
		})
		if err != nil {
			return fmt.Errorf("%s oracle: %w", q.Shape, err)
		}
		oracle = append(oracle, d)
		if !sameRows(res, results[i]) {
			tr.failed++
			fmt.Fprintf(os.Stderr, "perfbench: FAILED %s: fast path and oracle differ\n", q.Shape)
		}
	}
	put("olap.oracle_us", us(oracle.median()), "us")
	put("olap.fast_over_oracle", ratio(float64(all.median()), float64(oracle.median())), "ratio")

	var rep olap.RefreshReport
	d, err := tr.timed("olap", "matagg.refresh", func() error {
		var err error
		rep, err = sys.p.MatAgg().Refresh(attached)
		return err
	})
	if err != nil {
		return err
	}
	put("olap.matagg_refresh_ms", ms(d), "ms")
	put("olap.matagg_materialized", float64(rep.Materialized), "count")
	var mq dist
	for _, q := range sample {
		var res *olap.Result
		d, err := tr.timed("olap", "query", func() error {
			var err error
			res, err = attached.QueryContext(ctx, cube(q))
			return err
		})
		if err != nil {
			return err
		}
		if res.Class == olap.ClassMatAgg {
			mq = append(mq, d)
		}
	}
	put("olap.matagg_us", us(mq.median()), "us")
	return nil
}

func sameRows(a, b *olap.Result) bool {
	if strings.Join(a.Columns, ",") != strings.Join(b.Columns, ",") || len(a.Rows) != len(b.Rows) {
		return false
	}
	for i := range a.Rows {
		x, y := olap.RenderRow(a.Rows[i]), olap.RenderRow(b.Rows[i])
		if strings.Join(x, "\x00") != strings.Join(y, "\x00") {
			return false
		}
	}
	return true
}

// probeStorage times a full cursor pass over fact_table_quantity and
// its dimensions, counts pages read and skipped under the sample's
// pushed-down filter conjuncts, reopens a copy of the warehouse, and
// reports the disk footprint.
func probeStorage(sys *system, tr *tracer, sample []*query, root string, put func(string, float64, string)) error {
	tables := []string{"fact_table_quantity", "dim_customer", "dim_orders"}
	snap, err := sys.db.Snapshot(tables...)
	if err != nil {
		return err
	}
	d, _ := tr.timed("storage", "scan", func() error {
		for _, name := range tables {
			v, _ := snap.Table(name)
			c := v.Cursor(nil)
			for b := c.Next(1024); b != nil; b = c.Next(1024) {
			}
		}
		return nil
	})
	put("storage.scan_ms", ms(d), "ms")
	var read, skipped int
	all, err := sys.db.Snapshot(refTables...)
	if err != nil {
		return err
	}
	for _, q := range sample {
		for _, name := range append([]string{q.Fact}, dimsOf(q.Fact)...) {
			v, _ := all.Table(name)
			var preds []storage.PrunePredicate
			for _, c := range q.Filter {
				if _, ok := v.ColumnIndex(c.Col); ok {
					preds = append(preds, storage.PrunePredicate{Col: c.Col, Op: c.Op, Val: literal(c.Val)})
				}
			}
			if len(preds) == 0 {
				continue
			}
			cur := v.Cursor(preds)
			for b := cur.Next(1024); b != nil; b = cur.Next(1024) {
			}
			r, s := cur.Stats()
			read += r
			skipped += s
		}
	}
	put("storage.pages_read", float64(read), "count")
	put("storage.pages_skipped", float64(skipped), "count")
	bytes, segs := sys.diskBytes()
	put("storage.disk_bytes", float64(bytes), "bytes")
	put("storage.segments", float64(segs), "count")
	copyDir := filepath.Join(root, "open-copy")
	if err := copyTree(sys.dir, copyDir); err != nil {
		return err
	}
	defer os.RemoveAll(copyDir)
	d, err = tr.timed("storage", "open", func() error {
		_, err := storage.Open(copyDir)
		return err
	})
	if err != nil {
		return err
	}
	put("storage.open_ms", ms(d), "ms")
	return nil
}

func dimsOf(fact string) []string {
	var out []string
	for _, fk := range starSchema[fact] {
		out = append(out, fk.dim)
	}
	return out
}

func literal(v any) expr.Value {
	if f, ok := v.(float64); ok {
		return expr.Float(f)
	}
	return expr.Str(v.(string))
}

func copyTree(src, dst string) error {
	return filepath.Walk(src, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if info.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		in, err := os.Open(path)
		if err != nil {
			return err
		}
		defer in.Close()
		out, err := os.Create(target)
		if err != nil {
			return err
		}
		if _, err := io.Copy(out, in); err != nil {
			out.Close()
			return err
		}
		return out.Close()
	})
}

// probeDesign times a requirement change and a deployment, directly
// on the platform, then restores the requirement.
func probeDesign(sys *system, tr *tracer, put func(string, float64, string)) error {
	var change, deploy dist
	for _, nation := range []string{"GERMANY", "SPAIN", "GERMANY", "SPAIN"} {
		r := tpch.RevenueRequirement()
		r.Slicers = []xrq.Slicer{{Concept: "Nation.n_name", Operator: "=", Value: nation}}
		d, err := tr.timed("design", "change", func() error {
			_, err := sys.p.ChangeRequirement(r)
			return err
		})
		if err != nil {
			return err
		}
		change = append(change, d)
		d, err = tr.timed("design", "deploy", func() error {
			_, err := sys.p.Deploy("quarry_dw")
			return err
		})
		if err != nil {
			return err
		}
		deploy = append(deploy, d)
	}
	put("design.change_ms", ms(change.median()), "ms")
	put("design.deploy_ms", ms(deploy.median()), "ms")
	return nil
}

// probeEngine runs the unified ETL once on the pipelined executor
// against the warehouse, then both executors against in-memory copies
// of the sources.
func probeEngine(sys *system, tr *tracer, seed int64, put func(string, float64, string)) error {
	var ms0, ms1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	r0 := takeRuntime()
	var res *engine.Result
	d, err := tr.timed("engine", "run", func() error {
		var err error
		res, err = sys.p.Run()
		return err
	})
	if err != nil {
		return err
	}
	rt := takeRuntime().since(r0)
	runtime.ReadMemStats(&ms1)
	rows := float64(res.RowsProcessed())
	put("engine.run_s", d.Seconds(), "s")
	put("engine.rows_processed", rows, "count")
	put("engine.ns_per_row", ratio(float64(d), rows), "ns")
	put("engine.allocs_per_row", ratio(float64(ms1.Mallocs-ms0.Mallocs), rows), "count")
	put("engine.gc_cpu_share", rt.gcShare(), "ratio")

	// The two executors compared on a fresh in-memory copy of the
	// sources, capped at SF 100: the materializing executor holds
	// every intermediate result, which at SF 1000 would not fit beside
	// the served warehouse.
	copySF := min(sys.sf, 100)
	_, etl := sys.p.Unified()
	var copyRun dist
	for _, materializing := range []bool{false, true} {
		mem := storage.NewMemDB()
		if _, err := tpch.Generate(mem, copySF, seed); err != nil {
			return err
		}
		d, err := tr.timed("engine", "run_copy", func() error {
			var err error
			if materializing {
				_, err = engine.RunMaterializing(etl.Clone(), mem)
			} else {
				_, err = engine.RunWithOptions(etl.Clone(), mem, sys.p.EngineOptions())
			}
			return err
		})
		if err != nil {
			return err
		}
		copyRun = append(copyRun, d)
	}
	put("engine.pipelined_copy_run_s", copyRun[0].Seconds(), "s")
	d = copyRun[1]
	put("engine.materializing_run_s", d.Seconds(), "s")
	return nil
}
