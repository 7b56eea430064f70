package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"syscall"
	"time"
)

// client is the load generator's HTTP side: one bounded transport
// holding at most conns connections, so bursts queue for a connection
// instead of dialling new ones.
type client struct {
	base string
	hc   *http.Client
	tr   *http.Transport
	// bodies interns answer bodies: a dashboard run repeats a few
	// dozen distinct answers hundreds of thousands of times, and
	// keeping one copy each keeps the benchmark's own heap out of the
	// heap it reports.
	mu     sync.Mutex
	bodies map[string][]byte
}

func newClient(base string, conns int) *client {
	tr := &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConns:        conns,
		MaxIdleConnsPerHost: conns,
		IdleConnTimeout:     time.Minute,
		DisableCompression:  true,
	}
	return &client{base: base, hc: &http.Client{Transport: tr}, tr: tr, bodies: map[string][]byte{}}
}

func (c *client) close() { c.tr.CloseIdleConnections() }

// reply is one answered (or failed) query.
type reply struct {
	class   string
	version uint64
	body    []byte
	err     error
}

// spanHeader carries the client span id to the traced handler wrapper.
const spanHeader = "X-Bench-Span"

// query POSTs one cube query. A non-200 status is an error.
func (c *client) query(ctx context.Context, body []byte, hdr map[string]string) reply {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/api/olap", bytes.NewReader(body))
	if err != nil {
		return reply{err: err}
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return reply{err: err}
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	c.mu.Lock()
	if kept, ok := c.bodies[string(b)]; ok {
		b = kept
	} else {
		c.bodies[string(b)] = b
	}
	c.mu.Unlock()
	r := reply{class: resp.Header.Get("X-Quarry-Class"), body: b, err: err}
	r.version, _ = strconv.ParseUint(resp.Header.Get("X-Quarry-Version"), 10, 64)
	if r.err == nil && resp.StatusCode != http.StatusOK {
		r.err = fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(b))
	}
	return r
}

// sample is one timed query of a load phase.
type sample struct {
	idx     int           // position in the phase's request sequence
	latency time.Duration // from scheduled (open loop) or actual send time
	late    time.Duration // open loop: how late the generator released it
	reply   reply
	// sent and done bound the request on the client; span is its
	// client span id in a traced window (0 otherwise).
	sent, done time.Time
	span       uint64
}

// send issues request i and times it.
func send(ctx context.Context, c *client, i int, body func(i int) []byte, hdr func(i int) map[string]string) sample {
	h := hdr(i)
	id, _ := strconv.ParseUint(h[spanHeader], 10, 64)
	s := sample{idx: i, sent: time.Now(), span: id}
	s.reply = c.query(ctx, body(i), h)
	s.done = time.Now()
	s.latency = s.done.Sub(s.sent)
	return s
}

// openLoop sends n requests on a fixed schedule at rate per second,
// never gated on replies. Up to workers requests are in flight; the
// rest wait in a queue. Each latency counts from the request's
// scheduled send time, so a stall of the process (GC, scheduler) is
// charged to every request that fell due during it, even though the
// generator could only release them after it. How late the generator
// released each request is also kept apart (sample.late).
// Sample i goes to out[i], for n = len(out) requests.
func openLoop(ctx context.Context, c *client, rate float64, workers int, out []sample, body func(i int) []byte, hdr func(i int) map[string]string) {
	interval := time.Duration(float64(time.Second) / rate)
	type job struct {
		i             int
		due, released time.Time
	}
	n := len(out)
	jobs := make(chan job, n)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				s := send(ctx, c, j.i, body, hdr)
				s.latency = s.done.Sub(j.due)
				s.late = j.released.Sub(j.due)
				out[j.i] = s
			}
		}()
	}
	start := time.Now()
	for i := 0; i < n; i++ {
		due := start.Add(time.Duration(i) * interval)
		if d := time.Until(due); d > 0 {
			sleepPrecise(d)
		}
		jobs <- job{i, due, time.Now()}
	}
	close(jobs)
	wg.Wait()
}

// sleepPrecise blocks for d in the kernel. The runtime's own timers
// wake about a millisecond late on Linux (a 250 µs time.Sleep takes
// ~1.1 ms), which would release the open loop's requests in bursts;
// nanosleep wakes within ~60 µs.
func sleepPrecise(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
	}
}

// closedLoop runs clients that each send their next request as soon
// as the previous one is answered, drawing from one shared sequence,
// for at least d; the run then completes the current round of
// roundLen requests, so every run attempts whole rounds. The samples
// are appended to out.
func closedLoop(ctx context.Context, c *client, clients, roundLen int, d time.Duration, out []sample, body func(i int) []byte, hdr func(i int) map[string]string) ([]sample, time.Duration) {
	var mu sync.Mutex
	next, stopAt := 0, -1
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for k := 0; k < clients; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				if stopAt < 0 && !time.Now().Before(deadline) {
					stopAt = (next + roundLen - 1) / roundLen * roundLen
				}
				if stopAt >= 0 && next >= stopAt {
					mu.Unlock()
					return
				}
				i := next
				next++
				mu.Unlock()
				s := send(ctx, c, i, body, hdr)
				mu.Lock()
				out = append(out, s)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	sort.Slice(out, func(a, b int) bool { return out[a].idx < out[b].idx })
	return out, time.Since(start)
}

// quantiles of a set of durations.
type dist []time.Duration

func (d dist) sorted() dist {
	s := append(dist(nil), d...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s
}

// median of the values (mean of the two middle ones for even counts).
func (d dist) median() time.Duration {
	if len(d) == 0 {
		return 0
	}
	s := d.sorted()
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tail is the highest percentile with at least ten samples beyond it,
// returned with its percentile level; with fewer than 40 samples no
// percentile is a tail and the maximum is returned with level 100.
func (d dist) tail() (time.Duration, float64) {
	s := d.sorted()
	n := len(s)
	if n == 0 {
		return 0, 0
	}
	if n < 40 {
		return s[n-1], 100
	}
	return s[n-11], 100 * float64(n-10) / float64(n)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// medianF is the median of float values.
func medianF(v []float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// latencies returns the latencies of the answered samples.
func latencies(ss []sample) dist {
	var d dist
	for _, s := range ss {
		if s.reply.err == nil {
			d = append(d, s.latency)
		}
	}
	return d
}

// classSplit summarises latency per answer class.
func classSplit(ss []sample) map[string]dist {
	out := map[string]dist{}
	for _, s := range ss {
		if s.reply.err == nil {
			out[s.reply.class] = append(out[s.reply.class], s.latency)
		}
	}
	return out
}
