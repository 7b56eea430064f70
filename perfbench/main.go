// Command perfbench is Quarry's benchmark: it builds a disk
// warehouse from the micro-TPC-H generator, serves it the way quarryd
// does (core.Platform behind server.NewWithOptions with quarryd's
// default options) on a loopback port, drives one workload against
// it over HTTP, checks the answers against an independent reference,
// and prints one JSON line of results.
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh --workload dashboard|adhoc --seed N --seconds S --trace 0|1
//
// With --trace 0 the result carries the end-to-end metrics; with
// --trace 1 it carries the per-layer metrics of a traced run. --quick
// shrinks every scale factor for smoke tests. See README.md.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"sync/atomic"
	"time"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the line the benchmark prints last.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// options are the command-line settings of one run.
type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	quick    bool
	dir      string
}

const (
	// setupCount is how many set-ups a run makes; set-up time is
	// their median (--quick makes one).
	setupCount = 3
	// heapLimit aborts a run whose heap holds more bytes of objects,
	// so a runaway run cannot exhaust a shared machine's memory.
	heapLimit = 4000 << 20
)

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload: dashboard or adhoc")
	flag.Int64Var(&o.seed, "seed", 1, "seed of the generated data and query sequences")
	flag.IntVar(&o.seconds, "seconds", 10, "length of the measured window")
	flag.IntVar(&trace, "trace", 0, "1: traced run reporting per-layer metrics")
	flag.BoolVar(&o.quick, "quick", false, "tiny scale factors, one set-up (smoke tests)")
	flag.StringVar(&o.dir, "dir", filepath.Join(".bench_build", "perfbench"), "work directory for warehouses and span files")
	flag.Parse()
	o.trace = trace == 1
	go watchHeap(heapLimit)
	res, err := run(o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		fmt.Fprintln(os.Stderr, "perfbench: wrong answers; see FAILED lines above")
		os.Exit(1)
	}
}

// run sets the workload up, measures it, checks it and reports.
func run(o options) (*result, error) {
	w, ok := workloads(o.quick)[o.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (want dashboard or adhoc)", o.workload)
	}
	if o.seconds < 1 {
		return nil, fmt.Errorf("--seconds must be at least 1")
	}
	st := &runState{seed: o.seed, conns: runtime.NumCPU()}
	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	root := filepath.Join(o.dir, fmt.Sprintf("%s-%d-%d", o.workload, o.seed, os.Getpid()))
	workDir.Store(&root)
	defer os.RemoveAll(root)

	var wrap func(http.Handler) http.Handler
	if tr != nil {
		wrap = tr.wrapHandler
	}
	setup := func() (*system, setupTimes, error) {
		t0 := time.Now()
		s, t, err := startSystem(filepath.Join(root, "warehouse"), w.sf, o.seed, st.conns, wrap)
		if err != nil {
			return nil, t, fmt.Errorf("set-up: %w", err)
		}
		if err := w.warm(s, st); err != nil {
			s.stop()
			return nil, t, fmt.Errorf("set-up: %w", err)
		}
		t.total = time.Since(t0)
		logf("set-up done in %.2fs", t.total.Seconds())
		return s, t, nil
	}
	sys, t, err := setup()
	if err != nil {
		return nil, err
	}
	res, err := measureRun(o, w, st, tr, sys, root)
	sys.stop()
	if err != nil {
		return nil, err
	}
	// Set-up time is the median of several set-ups. The others run
	// after the measured system has stopped and its heap figure has
	// been read, so they leave nothing in it. Each starts as the first
	// did, from a collected heap with no memory kept from the
	// operating system: otherwise the garbage of a stopped SF 1000
	// system would set the pace of its GC, and how much of the freed
	// heap the runtime had yet to return would set how many pages it
	// faults in. The first collection runs the storage segments'
	// finalizers, which keep what they reach alive until the second.
	times := []setupTimes{t}
	for len(times) < setupCount && !o.quick {
		runtime.GC()
		debug.FreeOSMemory()
		logf("heap collected and returned before set-up %d", len(times))
		s, t, err := setup()
		if err != nil {
			return nil, err
		}
		s.stop()
		times = append(times, t)
	}
	report(os.Stderr, o, w, times, res.ph, res.design, res.rt)
	out := tally(res.ph, res.untraced, res.design)
	if tr != nil {
		out.Failed += tr.failed
		out.Correct = out.Correct && tr.failed == 0
		if err := setupLayers(res.layers, times); err != nil {
			return nil, err
		}
		out.Metrics = res.layers
		return out, nil
	}
	out.Metrics = endToEnd(w, times, res)
	return out, nil
}

// tally adds up the operations of a run's phases and reports every
// failure. The run is correct when no answer was wrong.
func tally(phases ...*phase) *result {
	out := &result{Correct: true}
	for _, ph := range phases {
		if ph == nil {
			continue
		}
		out.Attempted += ph.attempted
		out.Failed += ph.failed
		if ph.wrong > 0 {
			out.Correct = false
		}
		for _, p := range ph.problems {
			fmt.Fprintf(os.Stderr, "perfbench: FAILED %s\n", p)
		}
	}
	return out
}

var started = time.Now()

// workDir is the run's work directory, removed on every exit path.
var workDir atomic.Pointer[string]

// watchHeap aborts the run when the heap's live objects pass limit.
func watchHeap(limit uint64) {
	s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	for range time.Tick(50 * time.Millisecond) {
		metrics.Read(s)
		if v := s[0].Value.Uint64(); v > limit {
			fmt.Fprintf(os.Stderr, "perfbench: heap holds %d MB of objects, past the %d MB limit; aborting\n", v>>20, limit>>20)
			if d := workDir.Load(); d != nil {
				os.RemoveAll(*d)
			}
			os.Exit(1)
		}
	}
}

// logf reports progress on stderr with the elapsed time and the heap
// in use.
func logf(format string, a ...any) {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	fmt.Fprintf(os.Stderr, "perfbench: [%6.1fs heap %4d MB] %s\n", time.Since(started).Seconds(), m.HeapAlloc>>20, fmt.Sprintf(format, a...))
}

// measured is what the measured set-up yielded.
type measured struct {
	ph, untraced *phase
	// design holds the designer cycles that follow the window.
	design   *phase
	rt       runtimeDelta
	heapPeak float64
	diskMB   float64
	layers   map[string]metric
}

// measureRun runs the measured window on the first set-up (twice when
// traced: untraced, then traced, so the tracing overhead is measured
// rather than assumed), checks the answers, runs the designer cycles
// and, when traced, the layer probes.
func measureRun(o options, w *workload, st *runState, tr *tracer, sys *system, root string) (*measured, error) {
	d := time.Duration(o.seconds) * time.Second
	noHdr := func(int) map[string]string { return nil }
	res := &measured{}
	if tr != nil {
		// Two windows of half the length each keep the traced run
		// within the time of an untraced one.
		d /= 2
		res.untraced = w.measure(context.Background(), sys, st, d, noHdr)
		res.untraced.p50, res.untraced.tail = latencyStats(res.untraced.latSamples, w.segments)
	}
	snap := takeRuntime()
	before, _ := scrapeStats(sys)
	hdr := noHdr
	if tr != nil {
		tr.enable()
		hdr = tr.requestHeader
	}
	logf("measuring %s for %s", w.name, d)
	res.ph = w.measure(context.Background(), sys, st, d, hdr)
	logf("window done: %d samples", len(res.ph.samples))
	res.ph.p50, res.ph.tail = latencyStats(res.ph.latSamples, w.segments)
	if tr != nil {
		tr.disable()
	}
	after, _ := scrapeStats(sys)
	res.rt = takeRuntime().since(snap)
	res.heapPeak = peakHeap()
	disk, _ := sys.diskBytes()
	res.diskMB = float64(disk) / 1e6
	for _, ph := range []*phase{res.ph, res.untraced} {
		if ph == nil {
			continue
		}
		if err := w.check(sys, st, ph); err != nil {
			return nil, fmt.Errorf("check: %w", err)
		}
	}
	logf("answers checked")
	if w.designCycles > 0 {
		dc, err := designerCycles(sys, w.designCycles)
		if err != nil {
			return nil, fmt.Errorf("designer cycles: %w", err)
		}
		res.design = dc
		logf("%d designer cycles done", len(dc.publish))
	}
	if tr != nil {
		var err error
		if res.layers, err = perLayer(sys, st, w, tr, res.ph, res.untraced, before, after, res.rt, root); err != nil {
			return nil, fmt.Errorf("traced run: %w", err)
		}
	}
	return res, nil
}

// endToEnd computes the metrics a user of the system sees.
func endToEnd(w *workload, setups []setupTimes, res *measured) map[string]metric {
	ph := res.ph
	var setup, etl []float64
	for _, t := range setups {
		setup = append(setup, t.total.Seconds())
		etl = append(etl, t.etl.Seconds())
	}
	// Publish and ETL times: the dashboard's designer cycles (ETL adds
	// the set-ups' first loads); adhoc's set-ups, where publishing is
	// posting the requirements through to the first answer.
	var publish []float64
	if res.design != nil {
		publish = seconds(res.design.publish)
		etl = append(etl, seconds(res.design.etl)...)
	} else {
		for _, t := range setups {
			publish = append(publish, t.publish.Seconds())
		}
	}
	return map[string]metric{
		"query_p50_ms":   {ms(ph.p50), "ms"},
		"throughput_qps": {ph.throughput, "1/s"},
		"publish_s":      {medianF(publish), "s"},
		"etl_run_s":      {medianF(etl), "s"},
		"disk_mb":        {res.diskMB, "MB"},
		"heap_peak_mb":   {res.heapPeak, "MB"},
		"setup_s":        {medianF(setup), "s"},
	}
}

func seconds(d []time.Duration) []float64 {
	out := make([]float64, len(d))
	for i, x := range d {
		out[i] = x.Seconds()
	}
	return out
}

// peakHeap is the heap the runtime has obtained from the operating
// system: address space it never gives back, so its current value is
// the high-water mark of heap use, read without sampling.
func peakHeap() float64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapSys) / 1e6
}

// report prints a human-readable summary to stderr.
func report(f *os.File, o options, w *workload, setups []setupTimes, ph, design *phase, rt runtimeDelta) {
	fmt.Fprintf(f, "perfbench: workload %s, sf %g, seed %d, %d s window, %d connections\n", w.name, w.sf, o.seed, o.seconds, runtime.NumCPU())
	for i, t := range setups {
		fmt.Fprintf(f, "  set-up %d: %.2fs (generate %.2fs, checkpoint %.2fs, publish %.2fs, etl %.2fs)\n",
			i, t.total.Seconds(), t.generate.Seconds(), t.checkpoint.Seconds(), t.publish.Seconds(), t.etl.Seconds())
	}
	fmt.Fprintf(f, "  %d answered latencies: p50 %.3fms, tail %.3fms (median of %d segment tails); throughput %.1f/s; %d attempted, %d failed\n",
		len(ph.latency), ms(ph.p50), ms(ph.tail), w.segments, ph.throughput, ph.attempted, ph.failed)
	if s := ph.latency.sorted(); len(s) > 0 {
		q := func(p float64) float64 { return ms(s[int(p*float64(len(s)-1))]) }
		fmt.Fprintf(f, "  latency quantiles ms: p10 %.3f p25 %.3f p50 %.3f p75 %.3f p90 %.3f p99 %.3f\n", q(.1), q(.25), q(.5), q(.75), q(.9), q(.99))
	}
	if len(ph.rates) > 0 {
		fmt.Fprintf(f, "  throughput per sub-window: %.0f\n", ph.rates)
	}
	split := classSplit(ph.latSamples)
	classes := make([]string, 0, len(split))
	for c := range split {
		classes = append(classes, c)
	}
	sort.Strings(classes)
	for _, c := range classes {
		d := split[c]
		t, l := d.tail()
		fmt.Fprintf(f, "  class %-10s %5d answers, p50 %.3fms, p%.1f %.3fms\n", c, len(d), ms(d.median()), l, ms(t))
	}
	shapes := map[string]dist{}
	for _, s := range ph.latSamples {
		if s.reply.err == nil {
			q := ph.queries(s.idx)
			shapes[q.Shape] = append(shapes[q.Shape], s.latency)
		}
	}
	for _, sh := range sortedKeys(shapes) {
		d := shapes[sh]
		fmt.Fprintf(f, "  shape %-28s %6d answers, p50 %.3fms\n", sh, len(d), ms(d.median()))
	}
	var late dist
	for _, s := range ph.samples {
		if s.late > 0 {
			late = append(late, s.late)
		}
	}
	if len(late) > 0 {
		t, l := late.tail()
		fmt.Fprintf(f, "  open-loop sends late: p50 %.3fms, p%.1f %.3fms, max %.3fms\n", ms(late.median()), l, ms(t), ms(late.sorted()[len(late)-1]))
	}
	if design != nil {
		fmt.Fprintf(f, "  %d designer cycles: publish median %.3fs, etl median %.3fs\n", len(design.publish), medianF(seconds(design.publish)), medianF(seconds(design.etl)))
	}
	fmt.Fprintf(f, "  gc: %d cycles, %.1f%% of cpu\n", rt.gcCycles, 100*rt.gcShare())
}
