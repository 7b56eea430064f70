package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"time"

	"quarry/internal/core"
	"quarry/internal/server"
	"quarry/internal/storage"
	"quarry/internal/tpch"
	"quarry/internal/xrq"
)

// system is the program under test, wired as quarryd wires it: a
// disk warehouse, a core.Platform with quarryd's default options, and
// server.NewWithOptions serving on a loopback port.
type system struct {
	dir  string
	sf   float64
	db   *storage.DB
	p    *core.Platform
	srv  *server.Server
	hs   *http.Server
	base string
	cl   *client
	done chan struct{}
}

// setupTimes are the phases of one set-up.
type setupTimes struct {
	total      time.Duration
	generate   time.Duration
	checkpoint time.Duration
	publish    time.Duration // requirements posted → first answer
	etl        time.Duration // POST /api/run
}

// startSystem generates the warehouse in dir, deploys the four
// canonical requirements over HTTP and runs the first load. The
// handler may be wrapped (the traced run records server spans).
func startSystem(dir string, sf float64, seed int64, conns int, wrap func(http.Handler) http.Handler) (*system, setupTimes, error) {
	var t setupTimes
	start := time.Now()
	if err := os.RemoveAll(dir); err != nil {
		return nil, t, err
	}
	db, err := storage.Open(dir)
	if err != nil {
		return nil, t, err
	}
	t0 := time.Now()
	if _, err := tpch.Generate(db, sf, seed); err != nil {
		return nil, t, err
	}
	t.generate = time.Since(t0)
	t0 = time.Now()
	if err := db.Checkpoint(); err != nil {
		return nil, t, err
	}
	t.checkpoint = time.Since(t0)
	onto, err := tpch.Ontology()
	if err != nil {
		return nil, t, err
	}
	mapg, err := tpch.Mapping()
	if err != nil {
		return nil, t, err
	}
	cat, err := tpch.Catalog(sf)
	if err != nil {
		return nil, t, err
	}
	// quarryd's defaults: -matagg on with -matagg-top-k 8, no budget,
	// default engine options; -olap-cache 256, no SLO shedding.
	p, err := core.New(core.Config{Ontology: onto, Mapping: mapg, Catalog: cat, DB: db, MatAggTopK: 8})
	if err != nil {
		return nil, t, err
	}
	srv := server.NewWithOptions(p, server.Options{OLAPCacheSize: 256, ShedPolicy: server.PolicyExpensiveFirst})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, t, err
	}
	var h http.Handler = srv.Handler()
	if wrap != nil {
		h = wrap(h)
	}
	s := &system{dir: dir, sf: sf, db: db, p: p, srv: srv, hs: &http.Server{Handler: h},
		base: "http://" + ln.Addr().String(), done: make(chan struct{})}
	s.cl = newClient(s.base, conns)
	go func() {
		_ = s.hs.Serve(ln)
		close(s.done)
	}()
	t0 = time.Now()
	for _, r := range tpch.CanonicalRequirements() {
		x, err := xrq.Marshal(r)
		if err != nil {
			s.stop()
			return nil, t, err
		}
		if _, err := s.post("/api/requirements", []byte(x), http.StatusCreated); err != nil {
			s.stop()
			return nil, t, err
		}
	}
	if _, err := s.post("/api/deploy", nil, http.StatusOK); err != nil {
		s.stop()
		return nil, t, err
	}
	etl, err := s.run()
	if err != nil {
		s.stop()
		return nil, t, err
	}
	t.etl = etl
	first := tiles(sf)[0]
	if r := s.cl.query(context.Background(), first.body(false), nil); r.err != nil {
		s.stop()
		return nil, t, fmt.Errorf("first answer: %w", r.err)
	}
	t.publish = time.Since(t0)
	t.total = time.Since(start)
	return s, t, nil
}

// post sends a request body and insists on the wanted status.
func (s *system) post(path string, body []byte, want int) ([]byte, error) {
	return s.send(http.MethodPost, path, body, want)
}

func (s *system) send(method, path string, body []byte, want int) ([]byte, error) {
	req, err := http.NewRequest(method, s.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	resp, err := s.cl.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != want {
		return nil, fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, bytes.TrimSpace(b))
	}
	return b, nil
}

// run loads the warehouse (POST /api/run) and returns its wall time.
func (s *system) run() (time.Duration, error) {
	t0 := time.Now()
	_, err := s.post("/api/run", nil, http.StatusOK)
	return time.Since(t0), err
}

// diskBytes totals the committed segment bytes and counts segments.
func (s *system) diskBytes() (int64, int) {
	var b int64
	var segs int
	for _, st := range s.db.DiskStats() {
		b += st.Bytes
		segs += st.Segments
	}
	return b, segs
}

// stop shuts the server down, waits for it, and removes the warehouse.
// It drops every table first: that purges the store's buffer pool,
// whose entries and segments otherwise point at each other through a
// segment with a finalizer, a cycle the Go runtime never frees.
func (s *system) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = s.hs.Shutdown(ctx)
	<-s.done
	s.cl.close()
	for _, name := range s.db.TableNames() {
		_ = s.db.Drop(name)
	}
	_ = os.RemoveAll(s.dir)
}
