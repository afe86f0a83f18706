package main

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"bpagg"
	"bpagg/internal/catalog"
)

// ingest-range: a flat bpagg.Table of time-ordered telemetry (shaped like
// examples/telemetry) preloaded with 1M rows. One writer appends 4,096-row
// batches back to back while one reader loops over Query.Range SUM/MIN on
// trailing windows and Query.Window sweeps — the concurrency the engine
// allows, since range queries pin an epoch. Between bursts, with the
// writer idle, the reader runs filter, MEDIAN and GROUP BY queries over
// the grown table (those paths are not append-safe). server and sqlmini
// are bypassed. The run is a sequence of identical cycles on fresh
// tables, so memory stays bounded and every cycle measures the same
// growth from 1M to 2M rows.
const (
	ingestPreload = 1 << 20
	ingestBatch   = 4096
	ingestBatches = 256
	ingestTotal   = ingestPreload + ingestBatch*ingestBatches
	sensors       = 64
	tsBits        = 16
	readingBits   = 12
)

// telemetry is one seed's rows plus the reference structures the
// checker answers range questions from.
type telemetry struct {
	cols     map[string][]uint64 // ts, sensor, reading
	prefix   []uint64            // prefix[i] = sum of reading[0:i]
	blockMin []uint64            // min reading of rows [64b, 64b+64)
}

// genTelemetry makes ingestTotal rows: ts rises every 64 rows, sensors
// report round-robin around their own baseline, with rare spikes.
func genTelemetry(seed uint64, rows int) *telemetry {
	rng := newSplitMix(seed)
	d := &telemetry{cols: map[string][]uint64{
		"ts": make([]uint64, rows), "sensor": make([]uint64, rows), "reading": make([]uint64, rows),
	}}
	ts, sensor, reading := d.cols["ts"], d.cols["sensor"], d.cols["reading"]
	for i := 0; i < rows; i++ {
		s := uint64(i % sensors)
		ts[i] = uint64(i / sensors)
		sensor[i] = s
		v := 800 + 40*s + uint64(rng.intn(200))
		if rng.intn(1000) == 0 {
			v += 1500
		}
		reading[i] = min(v, 1<<readingBits-1)
	}
	d.prefix = make([]uint64, rows+1)
	for i, v := range reading {
		d.prefix[i+1] = d.prefix[i] + v
	}
	d.blockMin = make([]uint64, (rows+63)/64)
	for b := range d.blockMin {
		m := ^uint64(0)
		for _, v := range reading[b*64 : min(b*64+64, rows)] {
			m = min(m, v)
		}
		d.blockMin[b] = m
	}
	return d
}

func (d *telemetry) slice(lo, hi int) map[string][]uint64 {
	out := make(map[string][]uint64, len(d.cols))
	for k, v := range d.cols {
		out[k] = v[lo:hi]
	}
	return out
}

// sum is SUM(reading) over rows [lo, hi).
func (d *telemetry) sum(lo, hi int) uint64 { return d.prefix[hi] - d.prefix[lo] }

// min is MIN(reading) over rows [lo, hi), hi > lo.
func (d *telemetry) min(lo, hi int) uint64 {
	m := ^uint64(0)
	r := d.cols["reading"]
	for lo < hi && lo%64 != 0 {
		m = min(m, r[lo])
		lo++
	}
	for ; lo+64 <= hi; lo += 64 {
		m = min(m, d.blockMin[lo/64])
	}
	for ; lo < hi; lo++ {
		m = min(m, r[lo])
	}
	return m
}

// epochs lists the row counts an epoch pinned by a query may have had:
// batch boundaries from the committed count before the query (n0) to one
// batch past the committed count after it (n1) — the writer publishes an
// epoch inside AppendColumnar, before it commits the count.
func epochs(n0, n1 int) []int {
	var out []int
	for m := n0; m <= min(n1+ingestBatch, ingestTotal); m += ingestBatch {
		out = append(out, m)
	}
	return out
}

// checkRangeSum accepts a Range(lo, hi) SUM that equals the sum over
// [lo, min(hi, m)) for some epoch m: anything else is a torn or wrong
// answer.
func (d *telemetry) checkRangeSum(lo, hi int, got uint64, cands []int) bool {
	for _, m := range cands {
		if got == d.sum(lo, min(hi, m)) {
			return true
		}
	}
	return false
}

// checkRangeMin is checkRangeSum for MIN.
func (d *telemetry) checkRangeMin(lo, hi int, got uint64, ok bool, cands []int) bool {
	for _, m := range cands {
		if e := min(hi, m); ok && e > lo && got == d.min(lo, e) {
			return true
		}
	}
	return false
}

// checkWindowSum accepts a Window(size, step) SUM sweep when one epoch m
// explains every window: the sweep has one window per step below m, and
// each equals the sum over its rows clipped to m.
func (d *telemetry) checkWindowSum(size, step int, got []uint64, cands []int) bool {
next:
	for _, m := range cands {
		if len(got) != (m+step-1)/step {
			continue
		}
		for i, v := range got {
			b := i * step
			if v != d.sum(b, min(b+size, m)) {
				continue next
			}
		}
		return true
	}
	return false
}

// rangeOp is one reader request of the burst phase.
type rangeOp struct {
	kind  string // "sum", "min", "window"
	width int    // trailing window width, or the window size
	ahead int    // rows past the committed count the range asks for
}

var rangeOps = []rangeOp{
	{kind: "sum", width: 100003},
	{kind: "min", width: 100003},
	{kind: "sum", width: 65536 + 777, ahead: ingestBatch},
	{kind: "min", width: 262149, ahead: ingestBatch},
	{kind: "window", width: 65536},
}

// quiescentQueries are the filter, rank and group requests run over the
// grown table between bursts, n rows long.
func quiescentQueries(n int) []query {
	last := uint64((n - 1) / sensors)
	return []query{
		{name: "sensor-recent-sum", class: "filter", spec: qspec{
			where: []pred{{"sensor", "=", 5, 0}, {"ts", ">=", last - 2000, 0}}, aggs: []agg{{"SUM", "reading"}, {"COUNT", ""}}}},
		// The same filter twice: the class's p50 then falls inside one
		// template's latency distribution instead of between two.
		{name: "sensor-recent-sum-again", class: "filter", spec: qspec{
			where: []pred{{"sensor", "=", 5, 0}, {"ts", ">=", last - 2000, 0}}, aggs: []agg{{"SUM", "reading"}, {"COUNT", ""}}}},
		{name: "spikes", class: "filter", spec: qspec{
			where: []pred{{"reading", ">=", 3800, 0}, {"ts", ">=", last - 4000, 0}}, aggs: []agg{{"COUNT", ""}, {"MIN", "sensor"}}}},
		{name: "trailing-median", class: "rank", spec: qspec{
			rownum: &[2]int{n - 100003, n - 1}, aggs: []agg{{"MEDIAN", "reading"}}}},
		{name: "recent-by-sensor", class: "group", spec: qspec{
			where: []pred{{"ts", ">=", last - 200, 0}}, groupBy: "sensor", aggs: []agg{{"MAX", "reading"}}}},
	}
}

// quiescentWant computes the expected rows of q over the first n rows.
func (d *telemetry) quiescentWant(q *qspec, n int, cat *catalog.Catalog) [][]string {
	e := newExpect(q, map[string]int{"reading": readingBits})
	e.feed(d.slice(0, n), 0)
	return e.rows(cat)
}

func newTelemetryTable() *bpagg.Table {
	tbl := bpagg.NewTable()
	tbl.AddColumn("ts", bpagg.VBP, tsBits)
	tbl.AddColumn("sensor", bpagg.VBP, 6)
	tbl.AddColumn("reading", bpagg.HBP, readingBits)
	return tbl
}

// telemetryCatalog wraps tbl (nil for formatting only) in a catalog, so
// the serving workloads' replay and answer-rendering code runs on it. The
// schema is a constant: a parse error is a bug.
func telemetryCatalog(tbl *bpagg.Table) *catalog.Catalog {
	specs, err := catalog.ParseSchema(fmt.Sprintf("ts:uint(%d), sensor:uint(6), reading:uint(%d):hbp", tsBits, readingBits))
	if err != nil {
		panic(err)
	}
	return &catalog.Catalog{Specs: specs, Table: tbl}
}

// cycleResult is what one ingest cycle measured.
type cycleResult struct {
	setup       time.Duration
	firstRange  time.Duration
	burst       time.Duration
	quiet       time.Duration
	batchMS     []float64
	lat         latencies
	answered    int // measured requests answered correctly
	warmOK      int // set-up warm-up requests answered correctly
	failed      int
	firstErr    error
	stats       bpagg.ExecStats // sampled range ops (traced runs)
	sampled     int
	ops         []timedOp // sampled range ops (traced runs)
	heapPerRow  float64
	burstAllocs uint64 // heap allocations during the burst
	fileBytes   int64
}

// ingestCycle runs one cycle: set-up (preload, range-index build, one
// warm-up pass of every class), a burst (writer + concurrent range
// reader; without a reader when alone is set), then the quiescent
// queries, checked against the answers w holds.
func ingestCycle(d *telemetry, w *ingestWants, alone, traced, measureHeap bool, tr *tracer) cycleResult {
	var res cycleResult
	res.lat = latencies{}
	fail := func(err error) {
		res.failed++
		if res.firstErr == nil {
			res.firstErr = err
		}
	}

	runtime.GC()
	t := time.Now()
	tbl := newTelemetryTable()
	tbl.AppendColumnar(d.slice(0, ingestPreload))
	ft := time.Now()
	if got := tbl.Query().Range(0, ingestPreload).Sum("reading"); got != d.sum(0, ingestPreload) {
		fail(fmt.Errorf("warm-up range sum %d, want %d", got, d.sum(0, ingestPreload)))
	} else {
		res.warmOK++
	}
	res.firstRange = time.Since(ft)
	cat := telemetryCatalog(tbl)
	for i := range w.preQueries {
		q := &w.preQueries[i]
		if err := checkRows(w.pre[i], engineCall(cat, &q.spec, 1, nil)); err != nil {
			fail(fmt.Errorf("warm-up %s: %w", q.name, err))
		} else {
			res.warmOK++
		}
	}
	res.setup = time.Since(t)

	// Burst: the writer runs on this goroutine; the reader alongside.
	runtime.GC()
	var (
		committed atomic.Int64
		done      atomic.Bool
		wg        sync.WaitGroup
		reader    cycleResult
	)
	committed.Store(ingestPreload)
	reader.lat = latencies{}
	if !alone {
		wg.Add(1)
		go func() {
			defer wg.Done()
			readLoop(d, tbl, &committed, &done, traced, &reader)
		}()
	}
	allocs0 := mallocs()
	bt := time.Now()
	for b := 0; b < ingestBatches; b++ {
		off := ingestPreload + b*ingestBatch
		batch := d.slice(off, off+ingestBatch)
		s := time.Now()
		tbl.AppendColumnar(batch)
		dur := time.Since(s)
		committed.Store(int64(off + ingestBatch))
		res.batchMS = append(res.batchMS, float64(dur.Nanoseconds())/1e6)
		if traced {
			tr.add(int64(len(tr.spans)), -1, "append", "client", s, dur)
		}
	}
	done.Store(true)
	wg.Wait()
	res.burst = time.Since(bt)
	res.burstAllocs = mallocs() - allocs0
	res.lat.merge(reader.lat)
	res.answered += reader.answered
	res.failed += reader.failed
	if res.firstErr == nil {
		res.firstErr = reader.firstErr
	}
	res.stats, res.sampled = reader.stats, reader.sampled
	if traced {
		for _, op := range reader.ops {
			tr.add(int64(len(tr.spans)), -1, "range", "client", op.start, op.dur)
		}
	}

	// Quiescent phase: the writer is idle; filter, rank and group
	// requests over the grown table.
	qt := time.Now()
	for rep := 0; rep < 2; rep++ {
		for i := range w.queries {
			q := &w.queries[i]
			s := time.Now()
			got := engineCall(cat, &q.spec, 1, nil)
			res.lat.add(q.class, float64(time.Since(s).Nanoseconds())/1e6)
			if err := checkRows(w.full[i], got); err != nil {
				fail(fmt.Errorf("%s: %w", q.name, err))
				continue
			}
			res.answered++
		}
	}
	res.quiet = time.Since(qt)

	if measureHeap {
		cw := &countWriter{}
		if _, err := tbl.WriteTo(cw); err != nil {
			fail(fmt.Errorf("Table.WriteTo: %w", err))
		}
		res.fileBytes = cw.n
		with := liveHeap()
		runtime.KeepAlive(tbl)
		tbl, cat = nil, nil
		res.heapPerRow = float64(int64(with)-int64(liveHeap())) / ingestTotal
	}
	return res
}

// ingestWants holds the quiescent requests with their expected answers
// at the preload size (the set-up's warm-up pass) and at full size.
type ingestWants struct {
	preQueries, queries []query
	pre, full           [][][]string
}

func newIngestWants(d *telemetry) *ingestWants {
	ref := telemetryCatalog(nil)
	w := &ingestWants{preQueries: quiescentQueries(ingestPreload), queries: quiescentQueries(ingestTotal)}
	for i := range w.queries {
		w.pre = append(w.pre, d.quiescentWant(&w.preQueries[i].spec, ingestPreload, ref))
		w.full = append(w.full, d.quiescentWant(&w.queries[i].spec, ingestTotal, ref))
	}
	return w
}

// readLoop is the burst reader: range ops over trailing windows of the
// committed rows and window sweeps, each checked against every epoch the
// query may have pinned.
func readLoop(d *telemetry, tbl *bpagg.Table, committed *atomic.Int64, done *atomic.Bool, traced bool, out *cycleResult) {
	for i := 0; !done.Load(); i++ {
		op := rangeOps[i%len(rangeOps)]
		n0 := int(committed.Load())
		q := tbl.Query()
		sample := traced && i%64 == 0
		if sample {
			q = q.WithStats()
		}
		s := time.Now()
		var (
			ok  bool
			dur time.Duration
		)
		switch op.kind {
		case "sum":
			lo, hi := n0-op.width, n0+op.ahead
			got := q.Range(lo, hi).Sum("reading")
			dur = time.Since(s)
			ok = d.checkRangeSum(lo, hi, got, epochs(n0, int(committed.Load())))
		case "min":
			lo, hi := n0-op.width, n0+op.ahead
			got, has := q.Range(lo, hi).Min("reading")
			dur = time.Since(s)
			ok = d.checkRangeMin(lo, hi, got, has, epochs(n0, int(committed.Load())))
		case "window":
			got := q.Window(op.width, op.width).Sum("reading")
			dur = time.Since(s)
			ok = d.checkWindowSum(op.width, op.width, got, epochs(n0, int(committed.Load())))
		}
		out.lat.add("range", float64(dur.Nanoseconds())/1e6)
		if sample {
			out.ops = append(out.ops, timedOp{s, dur})
			st := q.Stats()
			out.stats.SegmentsIndexServed += st.SegmentsIndexServed
			out.stats.RangeFringeWords += st.RangeFringeWords
			out.sampled++
		}
		if !ok {
			out.failed++
			if out.firstErr == nil {
				out.firstErr = fmt.Errorf("range %s over %d committed rows: answer matches no published epoch", op.kind, n0)
			}
			continue
		}
		out.answered++
	}
}

// timedOp is one sampled reader request.
type timedOp struct {
	start time.Time
	dur   time.Duration
}

// countWriter counts bytes written.
type countWriter struct{ n int64 }

func (w *countWriter) Write(p []byte) (int, error) { w.n += int64(len(p)); return len(p), nil }

// runIngest runs ingest-range: cycles until the measured time (bursts and
// quiescent phases) reaches the run length.
func runIngest(opt options, res *result) error {
	d := genTelemetry(opt.seed, ingestTotal)
	wants := newIngestWants(d)
	if opt.trace {
		return traceIngest(d, wants, opt, res)
	}

	var (
		cycles   []cycleResult
		measured time.Duration
		lat      = latencies{}
		batchMS  []float64
	)
	for measured < opt.seconds {
		c := ingestCycle(d, wants, false, false, len(cycles) == 0, nil)
		cycles = append(cycles, c)
		measured += c.burst + c.quiet
		lat.merge(c.lat)
		batchMS = append(batchMS, c.batchMS...)
		res.attempted += c.answered + c.failed + c.warmOK
		res.failed += c.failed
		if c.firstErr != nil {
			res.errorf("cycle %d: %v", len(cycles), c.firstErr)
		}
	}
	// qps is the median over cycles, for the reason windowed gives.
	var setups, rates []float64
	var bursts time.Duration
	for _, c := range cycles {
		setups = append(setups, c.setup.Seconds())
		rates = append(rates, float64(c.answered)/(c.burst+c.quiet).Seconds())
		bursts += c.burst
	}
	res.printf("%d cycles of %d preloaded + %d x %d appended rows; measured %.2f s", len(cycles), ingestPreload, ingestBatches, ingestBatch, measured.Seconds())
	res.printf("set-up (median s) %.4f; first range after preload (median) %.4f s", median(setups), medianOf(cycles, func(c cycleResult) float64 { return c.firstRange.Seconds() }))
	p90, err := percentile(batchMS, 0.90)
	res.printf("append batch n=%d p50 %.4f p90 %s ms", len(batchMS), median(batchMS), fmtPct(p90, err))
	res.metric("setup_s", median(setups), "s")
	res.metric("qps", median(rates), "1/s")
	res.latencyMetrics(lat, nil)
	res.metric("ingest_rows_per_s", float64(ingestBatch*ingestBatches*len(cycles))/bursts.Seconds(), "rows/s")
	res.metric("file_bytes_per_row", float64(cycles[0].fileBytes)/ingestTotal, "B")
	res.metric("heap_bytes_per_row", cycles[0].heapPerRow, "B")
	return nil
}

func medianOf(cs []cycleResult, f func(cycleResult) float64) float64 {
	var v []float64
	for _, c := range cs {
		v = append(v, f(c))
	}
	return median(v)
}

// traceIngest is the traced run of ingest-range: a writer-only cycle
// (append cost alone), untraced and traced cycles for half the run each
// (their qps ratio is the tracing overhead; the traced ones sample range
// ops with ExecStats and record append and range spans), and replays of
// the quiescent queries split into Column.Scan and aggregate.
func traceIngest(d *telemetry, w *ingestWants, opt options, res *result) error {
	tr := newTracer()
	alone := ingestCycle(d, w, true, false, true, nil)
	var plain, traced []cycleResult
	runCycles := func(isTraced bool) []cycleResult {
		var out []cycleResult
		var measured time.Duration
		for measured < opt.seconds/2 {
			c := ingestCycle(d, w, false, isTraced, false, tr)
			out = append(out, c)
			measured += c.burst + c.quiet
		}
		return out
	}
	plain = runCycles(false)
	rt0 := readRuntime()
	traced = runCycles(true)
	rt := runtimeDelta(rt0, readRuntime())
	var underReads []float64
	var rangeStats bpagg.ExecStats
	sampled, tracedAnswered := 0, 0
	for _, c := range append(append([]cycleResult{alone}, plain...), traced...) {
		res.attempted += c.answered + c.failed + c.warmOK
		res.failed += c.failed
		if c.firstErr != nil {
			res.errorf("cycle: %v", c.firstErr)
		}
	}
	for _, c := range traced {
		underReads = append(underReads, c.batchMS...)
		rangeStats.SegmentsIndexServed += c.stats.SegmentsIndexServed
		rangeStats.RangeFringeWords += c.stats.RangeFringeWords
		sampled += c.sampled
		tracedAnswered += c.answered
	}
	qps := func(cs []cycleResult) float64 {
		var n int
		var t time.Duration
		for _, c := range cs {
			n += c.answered
			t += c.burst + c.quiet
		}
		return float64(n) / t.Seconds()
	}
	qpsPlain, qpsTraced := qps(plain), qps(traced)
	res.printf("tracing overhead: traced qps %.1f vs untraced %.1f (ratio %.4f)", qpsTraced, qpsPlain, qpsTraced/qpsPlain)

	classes, err := replayQuiescent(d, w, tr)
	if err != nil {
		return err
	}
	if err := tr.dump(dumpPath(opt), map[string]any{
		"workload": opt.workload, "seed": opt.seed, "rows": ingestTotal,
		"qps_untraced": qpsPlain, "qps_traced": qpsTraced,
	}); err != nil {
		return err
	}
	res.printf("span dump: %s (%d spans)", dumpPath(opt), len(tr.spans))

	zeroLayers(res, "http.", "server.", "sqlmini.", "shard.", "catalog.")
	agg := append(durByName(tr.spans, "agg", "filter"), durByName(tr.spans, "agg", "rank")...)
	res.metric("engine.us_p50", median(durByName(tr.spans, "engine", "")), "us")
	res.metric("scan.ms_p50", median(durByName(tr.spans, "scan", ""))/1e3, "ms")
	res.metric("core.agg_ms_p50", median(agg)/1e3, "ms")
	res.metric("group.ms_p50", median(durByName(tr.spans, "engine", "group"))/1e3, "ms")
	all := classes[""]
	cells := float64(len(all)) * ingestTotal
	var tot bpagg.ExecStats
	var busy, engineNS float64
	for _, st := range all {
		tot.WordsCompared += st.WordsCompared
		tot.SegmentsScanned += st.SegmentsScanned
		tot.SegmentsPrunedNone += st.SegmentsPrunedNone
		tot.SegmentsPrunedAll += st.SegmentsPrunedAll
		tot.WordsTouched += st.WordsTouched
		tot.SegmentsCacheServed += st.SegmentsCacheServed
		tot.SegmentsAggregated += st.SegmentsAggregated
		busy += float64(st.WorkerBusyNanos)
	}
	for _, v := range durByName(tr.spans, "engine", "") {
		engineNS += v * 1e3
	}
	pruned := float64(tot.SegmentsPrunedNone + tot.SegmentsPrunedAll)
	res.metric("scan.words_compared_per_row", float64(tot.WordsCompared)/cells, "words/row")
	res.metric("scan.pruned_ratio", ratio(pruned, pruned+float64(tot.SegmentsScanned)), "ratio")
	res.metric("core.words_touched_per_row", float64(tot.WordsTouched)/cells, "words/row")
	res.metric("core.cache_served_ratio", ratio(float64(tot.SegmentsCacheServed), float64(tot.SegmentsAggregated)), "ratio")
	res.metric("core.radix_rounds", classes.mean("rank", func(s bpagg.ExecStats) uint64 { return s.RadixRounds }), "count")
	res.metric("group.bank_words", classes.mean("group", func(s bpagg.ExecStats) uint64 { return s.GroupBankWords }), "count")
	res.metric("group.hash_probes", classes.mean("group", func(s bpagg.ExecStats) uint64 { return s.HashProbes }), "count")
	res.metric("group.hash_growths", classes.mean("group", func(s bpagg.ExecStats) uint64 { return s.HashGrowths }), "count")
	res.metric("parallel.busy_ratio", ratio(busy, engineNS), "ratio")
	res.metric("runtime.sched_wait_us_p90", rt.schedP90us, "us")
	res.metric("runtime.gc_cpu_share", rt.gcShare, "ratio")
	res.metric("runtime.allocs_per_req", float64(rt.allocs)/float64(max(tracedAnswered, 1)), "count")
	res.metric("rangeidx.build_ms", medianOf(traced, func(c cycleResult) float64 { return float64(c.firstRange.Nanoseconds()) / 1e6 }), "ms")
	res.metric("rangeidx.index_served_segments", ratio(float64(rangeStats.SegmentsIndexServed), float64(sampled)), "count")
	res.metric("rangeidx.fringe_words", ratio(float64(rangeStats.RangeFringeWords), float64(sampled)), "count")
	res.metric("append.batch_ms_p50_alone", median(alone.batchMS), "ms")
	res.metric("append.read_contention_ratio", ratio(median(underReads), median(alone.batchMS)), "ratio")
	res.metric("append.allocs_per_batch", float64(alone.burstAllocs)/ingestBatches, "count")
	res.metric("append.heap_bytes_per_row", alone.heapPerRow, "B")
	res.metric("trace.qps_ratio", qpsTraced/qpsPlain, "ratio")
	return nil
}

// replayQuiescent builds a full-size table with no reader and replays
// each quiescent query through the root API (an "engine" span with
// ExecStats) and split into Column.Scan and aggregate. It returns the
// ExecStats per class ("" holds all).
func replayQuiescent(d *telemetry, w *ingestWants, tr *tracer) (classMap, error) {
	const reps = 20
	tbl := newTelemetryTable()
	tbl.AppendColumnar(d.slice(0, ingestTotal))
	cat := telemetryCatalog(tbl)
	classes := classMap{}
	for r := 0; r < reps; r++ {
		for i := range w.queries {
			q := &w.queries[i]
			req, first := int64(r*len(w.queries)+i), len(tr.spans)
			rec := bpagg.NewStatsCollector()
			e := tr.begin(req, -1, "engine")
			got := engineCall(cat, &q.spec, 1, rec)
			tr.end(e)
			if err := checkRows(w.full[i], got); err != nil {
				return nil, fmt.Errorf("replay %s: %w", q.name, err)
			}
			st := rec.Snapshot()
			classes[q.class] = append(classes[q.class], st)
			classes[""] = append(classes[""], st)
			sp := tr.begin(req, -1, "engine.split")
			splitCall(cat, &q.spec, 1, tr, req, sp)
			tr.end(sp)
			for j := first; j < len(tr.spans); j++ {
				tr.spans[j].Class = q.class
			}
		}
	}
	return classes, nil
}
