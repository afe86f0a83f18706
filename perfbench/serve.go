package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"bpagg"
	"bpagg/internal/catalog"
	"bpagg/internal/server"
	"bpagg/internal/sqlmini"
)

// query is one request template of a serving workload's mix.
type query struct {
	name  string
	class string // one of classes
	sql   string
	spec  qspec      // structure, for the expected answer and the replays
	want  [][]string // expected rows, computed from the generated values
}

// serveData is what a serving workload generates from its seed, outside
// every timed phase: the request mix with its expected answers and a
// function that ingests the generated rows into a fresh catalog.
type serveData struct {
	rows    int
	queries []query
	// build ingests the rows and returns the catalog plus the time spent
	// inside the program's ingest calls (generation excluded).
	build func() (*catalog.Catalog, time.Duration, error)
	// release drops generated inputs no longer needed once set-up is done,
	// so they do not count as the program's heap.
	release func()
}

// serveSpec fixes a serving workload's shape.
type serveSpec struct {
	name      string
	setupReps int // set-ups per run; setup_s is their median
	threads   int // Exec.Threads of the server
	allocReps int // calls per query when the traced run counts allocations
	prepare   func(seed uint64) (*serveData, error)
}

// setupRun is one timed set-up: ingest, catalog.WriteTo + catalog.Read
// (the bpaggd start path), server.New and listener, one warm-up pass.
type setupRun struct {
	ingest, write, read, start, warm time.Duration
	firstRange                       time.Duration // first rownum request: the lazy range-index build
	fileBytes                        int64
}

func (s setupRun) total() time.Duration { return s.ingest + s.write + s.read + s.start + s.warm }

// liveServer is bpaggd's query path on a loopback listener.
type liveServer struct {
	srv    *server.Server
	cat    *catalog.Catalog
	hs     *http.Server
	url    string
	served chan error
	client *http.Client
}

func startServer(cat *catalog.Catalog, threads int) (*liveServer, error) {
	srv, err := server.New(server.Config{Catalog: cat, Exec: sqlmini.ExecOptions{Threads: threads}})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	ls := &liveServer{
		srv:    srv,
		cat:    cat,
		hs:     &http.Server{Handler: srv.Handler()},
		url:    "http://" + ln.Addr().String() + "/query?timeout=60s",
		served: make(chan error, 1),
		client: &http.Client{Transport: &http.Transport{DisableCompression: true}},
	}
	go func() { ls.served <- ls.hs.Serve(ln) }()
	return ls, nil
}

// stop drains bpaggd, closes the listener and idle connections, and
// waits for the serving goroutine to return.
func (ls *liveServer) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	derr := ls.srv.Drain(ctx)
	serr := ls.hs.Shutdown(ctx)
	ls.client.CloseIdleConnections()
	if err := <-ls.served; !errors.Is(err, http.ErrServerClosed) {
		return fmt.Errorf("serve: %w", err)
	}
	return errors.Join(derr, serr)
}

// reply is the part of bpaggd's JSON answer the benchmark reads.
type reply struct {
	Rows      [][]string      `json:"rows"`
	ElapsedMS float64         `json:"elapsed_ms"`
	Stats     bpagg.ExecStats `json:"stats"`
	Code      int             `json:"code"`
	Kind      string          `json:"kind"`
	Error     string          `json:"error"`
}

// post sends one query and checks the answer. It returns the decoded
// reply, and an error for a transport failure, a non-200 answer or a
// wrong result.
func (ls *liveServer) post(q *query) (reply, error) {
	var rep reply
	resp, err := ls.client.Post(ls.url, "text/plain", bytes.NewBufferString(q.sql))
	if err != nil {
		return rep, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return rep, fmt.Errorf("%s: reading answer: %w", q.name, err)
	}
	if err := json.Unmarshal(body, &rep); err != nil {
		return rep, fmt.Errorf("%s: decoding answer: %w", q.name, err)
	}
	if resp.StatusCode != http.StatusOK || rep.Code != http.StatusOK {
		return rep, fmt.Errorf("%s: status %d %s: %s", q.name, resp.StatusCode, rep.Kind, rep.Error)
	}
	if err := checkRows(q.want, rep.Rows); err != nil {
		return rep, fmt.Errorf("%s: %w", q.name, err)
	}
	return rep, nil
}

// setupOnce builds the catalog, persists and reloads it through the
// bpaggd start path, starts the server and runs one checked warm-up pass
// over the mix (so lazy index builds land here, not in a timed sample).
func setupOnce(spec serveSpec, data *serveData, dir string) (*liveServer, setupRun, error) {
	var s setupRun
	built, ingest, err := data.build()
	if err != nil {
		return nil, s, err
	}
	s.ingest = ingest

	path := filepath.Join(dir, spec.name+".bpag")
	t := time.Now()
	f, err := os.Create(path)
	if err != nil {
		return nil, s, err
	}
	n, err := built.WriteTo(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, s, fmt.Errorf("catalog.WriteTo: %w", err)
	}
	s.write, s.fileBytes = time.Since(t), n
	built = nil
	runtime.GC() // the built store is garbage from here; do not charge its collection to Read

	t = time.Now()
	f, err = os.Open(path)
	if err != nil {
		return nil, s, err
	}
	cat, err := catalog.Read(f)
	f.Close()
	if err != nil {
		return nil, s, fmt.Errorf("catalog.Read: %w", err)
	}
	s.read = time.Since(t)
	if err := os.Remove(path); err != nil {
		return nil, s, err
	}

	t = time.Now()
	ls, err := startServer(cat, spec.threads)
	if err != nil {
		return nil, s, err
	}
	s.start = time.Since(t)

	t = time.Now()
	for i := range data.queries {
		q := &data.queries[i]
		qt := time.Now()
		if _, err := ls.post(q); err != nil {
			ls.stop()
			return nil, s, fmt.Errorf("warm-up: %w", err)
		}
		if q.class == "range" && s.firstRange == 0 {
			s.firstRange = time.Since(qt)
		}
	}
	s.warm = time.Since(t)
	return ls, s, nil
}

// loopResult is what a closed-loop phase measured.
type loopResult struct {
	lat       latencies
	windows   windowed // complete one-second windows of lat
	attempted int
	failed    int
	answered  int
	elapsed   time.Duration
	firstErr  error
	spans     []requestSpans // traced phase only
}

// requestSpans is what the traced closed loop keeps of one request.
type requestSpans struct {
	query     int
	start     time.Time
	dur       time.Duration
	elapsedMS float64
	stats     bpagg.ExecStats
}

// closedLoop is one client sending its next request only after the
// previous answer, for d, walking the mix in a seeded order. One client,
// because on a 2-CPU host a second one and the server's goroutines
// oversubscribe the CPUs and the run-to-run spread of every latency
// triples. With trace set, every request's span data is kept.
func closedLoop(ls *liveServer, qs []query, d time.Duration, seed uint64, trace bool) loopResult {
	out := loopResult{lat: latencies{}}
	rng := newSplitMix(seed)
	order := make([]int, len(qs))
	for i := range order {
		order[i] = i
	}
	start := time.Now()
	deadline := start.Add(d)
	for i := 0; ; i++ {
		if i%len(order) == 0 {
			shuffle(rng, order)
		}
		qi := order[i%len(order)]
		t := time.Now()
		if !t.Before(deadline) {
			break
		}
		rep, err := ls.post(&qs[qi])
		dur := time.Since(t)
		out.attempted++
		if err != nil {
			out.failed++
			if out.firstErr == nil {
				out.firstErr = err
			}
			continue
		}
		out.answered++
		ms := float64(dur.Nanoseconds()) / 1e6
		out.lat.add(qs[qi].class, ms)
		out.windows.add(t.Sub(start), qs[qi].class, ms)
		if trace {
			out.spans = append(out.spans, requestSpans{qi, t, dur, rep.ElapsedMS, rep.Stats})
		}
	}
	out.elapsed = time.Since(start)
	out.windows = out.windows.complete(out.elapsed)
	return out
}

func shuffle(rng *splitMix, s []int) {
	for i := len(s) - 1; i > 0; i-- {
		j := rng.intn(i + 1)
		s[i], s[j] = s[j], s[i]
	}
}

// runServe runs a serving workload end to end and fills res.
func runServe(spec serveSpec, opt options, res *result) error {
	data, err := spec.prepare(opt.seed)
	if err != nil {
		return err
	}
	reps := spec.setupReps
	if opt.trace {
		reps = 1
	}
	var (
		ls   *liveServer
		runs []setupRun
	)
	for r := 0; r < reps; r++ {
		if ls != nil {
			if err := ls.stop(); err != nil {
				return err
			}
			ls = nil
		}
		runtime.GC()
		l, s, err := setupOnce(spec, data, opt.dir)
		if err != nil {
			return fmt.Errorf("set-up %d: %w", r+1, err)
		}
		ls = l
		runs = append(runs, s)
		res.attempted += len(data.queries)
	}
	defer ls.stop()
	data.release()
	reportSetup(res, runs, data.rows)

	if opt.trace {
		return traceServe(spec, data, ls, runs[0], opt, res)
	}

	runtime.GC()
	lr := closedLoop(ls, data.queries, opt.seconds, opt.seed, false)
	res.attempted += lr.attempted
	res.failed += lr.failed
	if lr.firstErr != nil {
		res.errorf("closed loop: %v", lr.firstErr)
	}
	ctr := ls.srv.CountersSnapshot()
	if ctr.Shed+ctr.TimedOut+ctr.Canceled+ctr.Panics != 0 {
		res.errorf("server counters: shed %d timed_out %d canceled %d panics %d",
			ctr.Shed, ctr.TimedOut, ctr.Canceled, ctr.Panics)
	}
	res.printf("closed loop: 1 client, %.2f s, %d answered, %d failed", lr.elapsed.Seconds(), lr.answered, lr.failed)
	qps, ok := lr.windows.rate()
	res.printf("qps: %.2f over the run, %.2f median of %d one-second windows", float64(lr.answered)/lr.elapsed.Seconds(), qps, len(lr.windows))
	if !ok {
		qps = float64(lr.answered) / lr.elapsed.Seconds()
	}
	res.metric("qps", qps, "1/s")
	res.latencyMetrics(lr.lat, lr.windows)

	runtime.GC()
	res.metric("heap_bytes_per_row", float64(liveHeap())/float64(data.rows), "B")
	return nil
}

// reportSetup turns the set-up runs into setup_s (their median),
// ingest_rows_per_s (all rows ingested over all ingest time: the host
// alternates between fast and slow phases, and a mean over the runs is
// steadier than a median that can sit in either) and file_bytes_per_row.
func reportSetup(res *result, runs []setupRun, rows int) {
	var tot, write, read, start, warm, first []float64
	var ingest time.Duration
	for _, s := range runs {
		tot = append(tot, s.total().Seconds())
		ingest += s.ingest
		write = append(write, s.write.Seconds())
		read = append(read, s.read.Seconds())
		start = append(start, s.start.Seconds())
		warm = append(warm, s.warm.Seconds())
		first = append(first, s.firstRange.Seconds())
	}
	res.printf("set-up x%d (median s): total %.4f write %.4f read %.4f start %.4f warm %.4f first-range %.4f; ingest (mean) %.4f",
		len(runs), median(tot), median(write), median(read), median(start), median(warm), median(first), ingest.Seconds()/float64(len(runs)))
	res.metric("setup_s", median(tot), "s")
	res.metric("ingest_rows_per_s", float64(rows*len(runs))/ingest.Seconds(), "rows/s")
	res.metric("file_bytes_per_row", float64(runs[0].fileBytes)/float64(rows), "B")
}

// liveHeap is the heap still reachable after a full collection.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}
