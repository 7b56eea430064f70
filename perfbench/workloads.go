package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"sort"
	"sync"
	"time"

	"quarry/internal/tpch"
	"quarry/internal/xrq"
)

// phase is what one measured window of a workload produced.
type phase struct {
	samples []sample
	// queries[i] is the query behind samples with idx i.
	queries func(i int) *query
	// latSamples make up the latency distribution; throughput is
	// answered requests per second.
	latSamples []sample
	latency    dist
	p50, tail  time.Duration
	throughput float64
	rates      []float64
	// one entry per designer cycle.
	publish []time.Duration
	etl     []time.Duration
	// failed counts the operations that failed: errors, and answers
	// found wrong, which wrong also counts.
	failed   int64
	wrong    int64
	problems []string
	// attempted counts every operation of the window.
	attempted int64
}

// fail records an operation that got no answer to check.
func (p *phase) fail(format string, a ...any) {
	p.failed++
	if len(p.problems) < 5 {
		p.problems = append(p.problems, fmt.Sprintf(format, a...))
	}
}

// mismatch records an answer that a check found wrong.
func (p *phase) mismatch(format string, a ...any) {
	p.wrong++
	p.fail(format, a...)
}

// workload is one benchmark workload.
type workload struct {
	name string
	sf   float64
	// segments is how many consecutive segments the latency window is
	// cut into for its tail (see latencyStats).
	segments int
	// designCycles is how many designer cycles follow the window;
	// they give publish_s and etl_run_s.
	designCycles int
	// warm runs after each set-up and counts towards set-up time.
	warm func(s *system, st *runState) error
	// measure runs the measured window.
	measure func(ctx context.Context, s *system, st *runState, d time.Duration, hdr func(i int) map[string]string) *phase
	// check verifies the window's answers after it ends.
	check func(s *system, st *runState, ph *phase) error
}

// runState carries what a workload keeps between its stages.
type runState struct {
	seed  int64
	conns int
	mu    sync.Mutex
	// adhoc: the generated query sequence.
	gen   *adhocGen
	adhoc []query
}

func workloads(quick bool) map[string]*workload {
	sf := func(full, small float64) float64 {
		if quick {
			return small
		}
		return full
	}
	return map[string]*workload{
		"dashboard": {name: "dashboard", sf: sf(100, 2), segments: 20, designCycles: 11, warm: warmTiles, measure: measureDashboard, check: checkTiles},
		"adhoc":     {name: "adhoc", sf: sf(1000, 5), segments: 1, warm: warmAdhoc, measure: measureAdhoc, check: checkAdhoc},
	}
}

// warmTiles answers every tile once, filling the result cache.
func warmTiles(s *system, _ *runState) error {
	for _, q := range tiles(s.sf) {
		if r := s.cl.query(context.Background(), q.body(false), nil); r.err != nil {
			return fmt.Errorf("warm-up %s: %w", q.Shape, r.err)
		}
	}
	return nil
}

// zipfSeq returns n tile indexes in rounds of roundLen. Each round
// holds every tile in exact Zipf proportion (weight 1/(rank+1)^s,
// rank 0 hottest, rounded by largest remainder) in a seeded order, so
// the seed changes the order of requests but never the mix.
func zipfSeq(seed int64, s float64, ntiles, roundLen, n int) []int {
	w := make([]float64, ntiles)
	var total float64
	for k := range w {
		w[k] = 1 / math.Pow(float64(k+1), s)
		total += w[k]
	}
	counts := make([]int, ntiles)
	rest := make([]int, ntiles)
	used := 0
	for k := range w {
		exact := w[k] / total * float64(roundLen)
		counts[k] = int(exact)
		used += counts[k]
		rest[k] = k
	}
	sort.SliceStable(rest, func(a, b int) bool {
		ea, eb := w[rest[a]]/total*float64(roundLen), w[rest[b]]/total*float64(roundLen)
		return ea-math.Floor(ea) > eb-math.Floor(eb)
	})
	for i := 0; used < roundLen; i++ {
		counts[rest[i%ntiles]]++
		used++
	}
	var round []int
	for k, c := range counts {
		for j := 0; j < c; j++ {
			round = append(round, k)
		}
	}
	rng := rand.New(rand.NewSource(seed))
	out := make([]int, 0, n)
	for len(out) < n {
		rng.Shuffle(len(round), func(a, b int) { round[a], round[b] = round[b], round[a] })
		out = append(out, round...)
	}
	return out[:n]
}

// windowRate is the median over consecutive sub-windows of length
// w of the answers completed per second, so that a burst of noise in
// one sub-window does not decide the figure. Partial sub-windows at
// the end are dropped.
func windowRate(ss []sample, start time.Time, w time.Duration) (float64, []float64) {
	counts := map[int]int{}
	last := 0
	for _, s := range ss {
		if s.reply.err != nil {
			continue
		}
		k := int(s.done.Sub(start) / w)
		counts[k]++
		if k > last {
			last = k
		}
	}
	var rates []float64
	for k := 0; k < last; k++ {
		rates = append(rates, float64(counts[k])/w.Seconds())
	}
	if len(rates) == 0 {
		return float64(counts[0]) / w.Seconds(), nil
	}
	return medianF(rates), rates
}

// latencyStats summarises a window's answered latencies: the median
// over the whole window, and the median of the tails of k equal
// consecutive segments (each with at least 40 answers), so that one
// stall in one segment does not decide the tail.
func latencyStats(ss []sample, k int) (p50, tail time.Duration) {
	d := latencies(ss)
	if len(d) == 0 {
		return 0, 0
	}
	for k > 1 && len(d)/k < 40 {
		k--
	}
	var tails []float64
	for i := 0; i < k; i++ {
		t, _ := d[i*len(d)/k : (i+1)*len(d)/k].tail()
		tails = append(tails, float64(t))
	}
	return d.median(), time.Duration(medianF(tails))
}

// Dashboard load: an open-loop window at a fixed rate well below
// capacity for latency, then a closed-loop window over a fixed
// sequence for throughput; half the run each. The skew is the load
// harness's default (cmd/quarrybench -zipf 1.3).
const (
	dashboardRate  = 4000.0
	dashboardRound = 200
	dashboardZipf  = 1.3
	// dashboardClosedCap is the closed-loop rate the sample array is
	// sized for (about 1.5x what two clients reach on two vCPUs).
	dashboardClosedCap = 40000.0
)

func measureDashboard(ctx context.Context, s *system, st *runState, d time.Duration, hdr func(i int) map[string]string) *phase {
	ts := tiles(s.sf)
	n := int(dashboardRate * d.Seconds() / 2)
	open := zipfSeq(st.seed, dashboardZipf, len(ts), dashboardRound, n)
	closedSeq := zipfSeq(st.seed+1, dashboardZipf, len(ts), dashboardRound, dashboardRound)
	bodies := make([][]byte, len(ts))
	for i := range ts {
		bodies[i] = ts[i].body(false)
	}
	ph := &phase{}
	// One array holds the samples of both loops, with room for the
	// closed loop at well above its rate, so that the window's own
	// bookkeeping allocates once instead of leaving growth garbage
	// in the heap figure.
	all := make([]sample, n, n+int(dashboardClosedCap*d.Seconds()/2))
	openS := all[:n]
	openLoop(ctx, s.cl, dashboardRate, st.conns, openS,
		func(i int) []byte { return bodies[open[i]] }, hdr)
	closedS, _ := closedLoop(ctx, s.cl, st.conns, dashboardRound, d/2, all[n:n],
		func(i int) []byte { return bodies[closedSeq[i%dashboardRound]] }, hdr)
	for i := range closedS {
		closedS[i].idx += n
	}
	ph.samples = append(all[:n], closedS...)
	ph.queries = func(i int) *query {
		if i < n {
			return &ts[open[i]]
		}
		return &ts[closedSeq[(i-n)%dashboardRound]]
	}
	ph.latSamples = openS
	ph.latency = latencies(openS)
	ph.throughput, ph.rates = windowRate(closedS, closedS[0].sent, 500*time.Millisecond)
	ph.attempted = int64(len(ph.samples))
	return ph
}

// checkTiles compares every distinct tile answer with the reference.
func checkTiles(s *system, st *runState, ph *phase) error {
	ref, err := loadReference(s.db)
	if err != nil {
		return err
	}
	return checkTileSamples(ph, func(uint64) (*reference, string) { return ref, "" })
}

// checkTileSamples checks each answered sample against the reference
// its version maps to. Answers are compared once per distinct body.
func checkTileSamples(ph *phase, refAt func(v uint64) (*reference, string)) error {
	type key struct {
		shape, nation string
	}
	wants := map[key]*refAnswer{}
	counters := map[*reference]*rowCounter{}
	verdict := map[string]error{}
	for _, smp := range ph.samples {
		if smp.reply.err != nil {
			ph.fail("%s: %v", ph.queries(smp.idx).Shape, smp.reply.err)
			continue
		}
		q := ph.queries(smp.idx)
		ref, nation := refAt(smp.reply.version)
		if ref == nil {
			ph.mismatch("%s: answer at version %d, which no load produced", q.Shape, smp.reply.version)
			continue
		}
		k := key{q.Shape, nation}
		vk := q.Shape + "\x00" + nation + "\x00" + string(smp.reply.body)
		e, seen := verdict[vk]
		if !seen {
			want := wants[k]
			if want == nil {
				var err error
				if want, err = ref.answer(q); err != nil {
					return err
				}
				wants[k] = want
			}
			if counters[ref] == nil {
				counters[ref] = newRowCounter(ref)
			}
			e = checkAgainst(q, smp.reply.body, want, counters[ref])
			verdict[vk] = e
		}
		if e != nil {
			ph.mismatch("%s (version %d): %v", q.Shape, smp.reply.version, e)
		}
	}
	return nil
}

// warmAdhoc answers two rounds of the run's query stream; the
// measured window continues the same stream, so it repeats none of
// them.
func warmAdhoc(s *system, st *runState) error {
	for k := 0; k < 2; k++ {
		for _, q := range st.adhocGen(s.sf).round() {
			if r := s.cl.query(context.Background(), q.body(false), nil); r.err != nil {
				return fmt.Errorf("warm-up %s: %w", q.Shape, r.err)
			}
		}
	}
	return nil
}

// adhocQuery returns query i of the measured sequence, drawing more
// rounds as the clients advance.
func (st *runState) adhocQuery(sf float64, i int) *query {
	g := st.adhocGen(sf)
	st.mu.Lock()
	defer st.mu.Unlock()
	for len(st.adhoc) <= i {
		st.adhoc = append(st.adhoc, g.round()...)
	}
	return &st.adhoc[i]
}

// adhocGen returns the run's query generator.
func (st *runState) adhocGen(sf float64) *adhocGen {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.gen == nil {
		st.gen = newAdhocGen(st.seed, st.seed, sf)
	}
	return st.gen
}

func measureAdhoc(ctx context.Context, s *system, st *runState, d time.Duration, hdr func(i int) map[string]string) *phase {
	ph := &phase{}
	// A second window (the traced run) continues the stream.
	st.mu.Lock()
	base := len(st.adhoc)
	st.mu.Unlock()
	ss, el := closedLoop(ctx, s.cl, st.conns, len(adhocShapes), d, nil,
		func(i int) []byte { return st.adhocQuery(s.sf, base+i).body(false) }, hdr)
	st.mu.Lock()
	seq := st.adhoc[base:]
	st.mu.Unlock()
	ph.samples = ss
	ph.queries = func(i int) *query { return &seq[i] }
	ph.latSamples = ss
	ph.latency = latencies(ss)
	ph.throughput = float64(len(ph.latency)) / el.Seconds()
	ph.attempted = int64(len(ss))
	return ph
}

// Adhoc check sample sizes: answers compared with the reference, and
// answers re-asked of the star-flow oracle for byte identity.
const (
	adhocRefSample    = 40
	adhocOracleSample = 6
)

// checkAdhoc verifies every answer's row counts, dice carats and
// round pair totals, a seeded sample of answers against the reference
// and another against the oracle.
func checkAdhoc(s *system, st *runState, ph *phase) error {
	ref, err := loadReference(s.db)
	if err != nil {
		return err
	}
	rc := newRowCounter(ref)
	byIdx := map[int]*sample{}
	for i := range ph.samples {
		smp := &ph.samples[i]
		byIdx[smp.idx] = smp
		if smp.reply.err != nil {
			ph.fail("%s: %v", ph.queries(smp.idx).Shape, smp.reply.err)
		}
	}
	ok := func(i int) (*answerBody, bool) {
		smp := byIdx[i]
		if smp == nil || smp.reply.err != nil {
			return nil, false
		}
		a, err := parseAnswer(smp.reply.body)
		if err != nil {
			ph.mismatch("%s: %v", ph.queries(i).Shape, err)
			return nil, false
		}
		return a, true
	}
	// Properties on every answer they apply to.
	for i := range ph.samples {
		idx := ph.samples[i].idx
		q := ph.queries(idx)
		a, good := ok(idx)
		if !good {
			continue
		}
		if err := checkCounts(q, a, rc); err != nil {
			ph.mismatch("%s %s: %v", q.Shape, q.body(false), err)
		}
		if err := checkDiceCarats(q, a); err != nil {
			ph.mismatch("%s %s: %v", q.Shape, q.body(false), err)
		}
		if idx%len(adhocShapes) == 0 {
			if b, good := ok(idx + 1); good {
				if err := checkSameTotals(q, a, ph.queries(idx+1), b); err != nil {
					ph.mismatch("round at %d: %v", idx, err)
				}
			}
		}
	}
	// Reference on a seeded sample.
	rng := rand.New(rand.NewSource(st.seed ^ 0xc4ec))
	order := rng.Perm(len(ph.samples))
	checked := 0
	for _, k := range order {
		if checked == adhocRefSample {
			break
		}
		smp := ph.samples[k]
		if smp.reply.err != nil {
			continue
		}
		q := ph.queries(smp.idx)
		want, err := ref.answer(q)
		if err != nil {
			return err
		}
		if err := checkAgainst(q, smp.reply.body, want, rc); err != nil {
			ph.mismatch("%s %s: %v", q.Shape, q.body(false), err)
		}
		checked++
	}
	// Byte identity with the star-flow oracle on another sample.
	checked = 0
	for _, k := range rng.Perm(len(ph.samples)) {
		if checked == adhocOracleSample {
			break
		}
		smp := ph.samples[k]
		if smp.reply.err != nil {
			continue
		}
		q := ph.queries(smp.idx)
		r := s.cl.query(context.Background(), q.body(true), nil)
		ph.attempted++
		switch {
		case r.err != nil:
			ph.fail("%s oracle: %v", q.Shape, r.err)
		case r.version != smp.reply.version:
			ph.fail("%s oracle answered at version %d, served answer at %d", q.Shape, r.version, smp.reply.version)
		case string(r.body) != string(smp.reply.body):
			ph.mismatch("%s: fast path and star-flow oracle answers differ", q.Shape)
		}
		checked++
	}
	return nil
}

// The designer cycles alternate the revenue requirement's slicer
// between these nations.
var designNations = []string{"SPAIN", "FRANCE"}

// cycle republishes the warehouse: an optional requirement change
// (PUT), a deployment, an ETL run, and the first answer at the new
// version. It returns the versions before and after the run.
func (s *system) cycle(change *xrq.Requirement) (publish, etl time.Duration, before, after uint64, first reply, err error) {
	t0 := time.Now()
	if change != nil {
		var x string
		if x, err = xrq.Marshal(change); err != nil {
			return
		}
		if _, err = s.send(http.MethodPut, "/api/requirements/"+change.ID, []byte(x), http.StatusOK); err != nil {
			return
		}
	}
	if _, err = s.post("/api/deploy", nil, http.StatusOK); err != nil {
		return
	}
	before = s.db.Version()
	if etl, err = s.run(); err != nil {
		return
	}
	after = s.db.Version()
	body := tiles(s.sf)[0].body(false)
	first = s.cl.query(context.Background(), body, nil)
	for first.err == nil && first.version < after {
		first = s.cl.query(context.Background(), body, nil)
	}
	publish = time.Since(t0)
	err = first.err
	return
}

// designerCycles run after the dashboard window: each changes the
// revenue requirement's slicer to the other nation, deploys, runs the
// ETL and waits for the first answer at the new version. Every first
// answer is checked against the reference rows of its nation, copied
// out of the warehouse after the cycle that first loaded it.
func designerCycles(s *system, n int) (*phase, error) {
	ph := &phase{}
	refs := map[string]*reference{}
	versions := map[uint64]string{}
	record := func(from, to uint64, nation string) {
		for v := from + 1; v <= to; v++ {
			versions[v] = nation
		}
	}
	record(0, s.db.Version(), designNations[0])
	ref, err := loadReference(s.db)
	if err != nil {
		return nil, err
	}
	refs[designNations[0]] = ref
	for k := 0; k < n; k++ {
		nation := designNations[(k+1)%len(designNations)]
		r := tpch.RevenueRequirement()
		r.Slicers = []xrq.Slicer{{Concept: "Nation.n_name", Operator: "=", Value: nation}}
		pub, etl, before, after, first, err := s.cycle(r)
		ph.attempted++
		if err != nil {
			ph.fail("designer cycle to %s: %v", nation, err)
			continue
		}
		record(before, after, nation)
		if refs[nation] == nil {
			if refs[nation], err = loadReference(s.db); err != nil {
				return nil, err
			}
		}
		ph.publish = append(ph.publish, pub)
		ph.etl = append(ph.etl, etl)
		ph.samples = append(ph.samples, sample{reply: first})
	}
	ts := tiles(s.sf)
	ph.queries = func(int) *query { return &ts[0] }
	return ph, checkTileSamples(ph, func(v uint64) (*reference, string) {
		nation, ok := versions[v]
		if !ok {
			return nil, ""
		}
		return refs[nation], nation
	})
}
