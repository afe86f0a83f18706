package main

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"time"

	"bpagg"
	"bpagg/internal/sqlmini"
)

// traceServe is the traced run of a serving workload. It runs the closed
// loop untraced and then traced for half the run each (their qps ratio is
// the tracing overhead), replays a sample of the traced requests down the
// stack — sqlmini.Parse, sqlmini.ExecuteContext, the equivalent root-API
// engine call, and that call split into Column.Scan and aggregate — and
// derives the per-layer metrics from the spans, the responses' ExecStats,
// Server.Totals and runtime/metrics.
func traceServe(spec serveSpec, data *serveData, ls *liveServer, setup setupRun, opt options, res *result) error {
	half := opt.seconds / 2
	runtime.GC()
	plain := closedLoop(ls, data.queries, half, opt.seed, false)
	runtime.GC()
	tot0 := ls.srv.Totals()
	rt0 := readRuntime()
	traced := closedLoop(ls, data.queries, half, opt.seed+1, true)
	rt1 := readRuntime()
	tot := statsSub(ls.srv.Totals(), tot0)
	rt := runtimeDelta(rt0, rt1)
	for _, lr := range []loopResult{plain, traced} {
		res.attempted += lr.attempted
		res.failed += lr.failed
		if lr.firstErr != nil {
			res.errorf("closed loop: %v", lr.firstErr)
		}
	}
	qpsPlain := float64(plain.answered) / plain.elapsed.Seconds()
	qpsTraced := float64(traced.answered) / traced.elapsed.Seconds()
	res.printf("tracing overhead: traced qps %.1f vs untraced %.1f (ratio %.4f)", qpsTraced, qpsPlain, qpsTraced/qpsPlain)

	tr := newTracer()
	if err := replaySample(spec, data, ls, traced.spans, opt.seconds/2, tr); err != nil {
		return err
	}
	if err := tr.dump(dumpPath(opt), map[string]any{
		"workload": opt.workload, "seed": opt.seed, "rows": data.rows, "threads": spec.threads,
		"qps_untraced": qpsPlain, "qps_traced": qpsTraced,
	}); err != nil {
		return err
	}
	res.printf("span dump: %s (%d spans)", dumpPath(opt), len(tr.spans))

	self := selfTimes(tr.spans)
	agg := append(durByName(tr.spans, "agg", "filter"), durByName(tr.spans, "agg", "rank")...)
	res.metric("http.transport_us_p50", median(selfByName(tr.spans, self, "http")), "us")
	res.metric("server.handler_self_us_p50", median(selfByName(tr.spans, self, "server")), "us")
	res.metric("sqlmini.parse_us_p50", median(durByName(tr.spans, "sqlmini.parse", "")), "us")
	res.metric("sqlmini.exec_self_us_p50", median(selfByName(tr.spans, self, "sqlmini.exec")), "us")
	res.metric("engine.us_p50", median(durByName(tr.spans, "engine", "")), "us")
	res.metric("scan.ms_p50", median(durByName(tr.spans, "scan", ""))/1e3, "ms")
	res.metric("core.agg_ms_p50", median(agg)/1e3, "ms")
	res.metric("group.ms_p50", median(durByName(tr.spans, "engine", "group"))/1e3, "ms")

	cells := float64(traced.answered) * float64(data.rows)
	pruned := float64(tot.SegmentsPrunedNone + tot.SegmentsPrunedAll)
	res.metric("scan.words_compared_per_row", float64(tot.WordsCompared)/cells, "words/row")
	res.metric("scan.pruned_ratio", ratio(pruned, pruned+float64(tot.SegmentsScanned)), "ratio")
	res.metric("core.words_touched_per_row", float64(tot.WordsTouched)/cells, "words/row")
	res.metric("core.cache_served_ratio", ratio(float64(tot.SegmentsCacheServed), float64(tot.SegmentsAggregated)), "ratio")

	perClass := classMap{}
	var busy, wall float64
	for _, r := range traced.spans {
		c := data.queries[r.query].class
		perClass[c] = append(perClass[c], r.stats)
		perClass[""] = append(perClass[""], r.stats)
		busy += float64(r.stats.WorkerBusyNanos)
		wall += r.elapsedMS * 1e6 * float64(max(spec.threads, 1))
	}
	res.metric("core.radix_rounds", perClass.mean("rank", func(s bpagg.ExecStats) uint64 { return s.RadixRounds }), "count")
	res.metric("group.bank_words", perClass.mean("group", func(s bpagg.ExecStats) uint64 { return s.GroupBankWords }), "count")
	res.metric("group.hash_probes", perClass.mean("group", func(s bpagg.ExecStats) uint64 { return s.HashProbes }), "count")
	res.metric("group.hash_growths", perClass.mean("group", func(s bpagg.ExecStats) uint64 { return s.HashGrowths }), "count")
	res.metric("shard.scanned", perClass.mean("", func(s bpagg.ExecStats) uint64 { return s.ShardsScanned }), "count")
	res.metric("shard.pruned", perClass.mean("", func(s bpagg.ExecStats) uint64 { return s.ShardsPruned }), "count")
	res.metric("rangeidx.index_served_segments", perClass.mean("range", func(s bpagg.ExecStats) uint64 { return s.SegmentsIndexServed }), "count")
	res.metric("rangeidx.fringe_words", perClass.mean("range", func(s bpagg.ExecStats) uint64 { return s.RangeFringeWords }), "count")
	res.metric("parallel.busy_ratio", ratio(busy, wall), "ratio")

	res.metric("runtime.sched_wait_us_p90", rt.schedP90us, "us")
	res.metric("runtime.gc_cpu_share", rt.gcShare, "ratio")
	res.metric("runtime.allocs_per_req", float64(rt.allocs)/float64(max(traced.attempted, 1)), "count")
	ctr := ls.srv.CountersSnapshot()
	res.metric("server.shed", float64(ctr.Shed), "count")
	res.metric("server.timed_out", float64(ctr.TimedOut), "count")

	allocs, bytes, err := handlerAllocs(ls, data.queries, spec.allocReps)
	if err != nil {
		return err
	}
	res.metric("server.allocs_per_req", allocs, "count")
	res.metric("server.resp_bytes", bytes, "B")
	parseAllocs, execAllocs, err := sqlAllocs(ls, data.queries, spec.threads, spec.allocReps)
	if err != nil {
		return err
	}
	res.metric("sqlmini.parse_allocs", parseAllocs, "count")
	res.metric("sqlmini.exec_allocs", execAllocs, "count")

	res.metric("rangeidx.build_ms", float64(setup.firstRange.Nanoseconds())/1e6, "ms")
	res.metric("catalog.build_s", setup.ingest.Seconds(), "s")
	res.metric("catalog.write_s", setup.write.Seconds(), "s")
	res.metric("catalog.read_s", setup.read.Seconds(), "s")
	res.metric("catalog.read_mb_per_s", float64(setup.fileBytes)/1e6/setup.read.Seconds(), "MB/s")
	res.metric("catalog.file_bytes_per_row", float64(setup.fileBytes)/float64(data.rows), "B")
	zeroLayers(res, "append.")
	res.metric("trace.qps_ratio", qpsTraced/qpsPlain, "ratio")
	return nil
}

// replaySample repeats a sample of the traced requests down the stack,
// round-robin over the mix, until budget is spent or every template has
// maxPerQuery samples. Each request's spans:
//
//	http (client) > server (elapsed_ms) > sqlmini.parse, sqlmini.exec > engine
//	engine.split > scan (one per predicate), agg
func replaySample(spec serveSpec, data *serveData, ls *liveServer, reqs []requestSpans, budget time.Duration, tr *tracer) error {
	const maxPerQuery = 40
	byQuery := make([][]int, len(data.queries))
	for i, r := range reqs {
		byQuery[r.query] = append(byQuery[r.query], i)
	}
	o := sqlmini.ExecOptions{Threads: spec.threads}
	deadline := time.Now().Add(budget)
	for k := 0; k < maxPerQuery && time.Now().Before(deadline); k++ {
		for qi := range data.queries {
			ids := byQuery[qi]
			if k >= len(ids) {
				continue
			}
			// Spread the sample over the traced phase, each request once.
			i := ids[k*max(1, len(ids)/maxPerQuery)]
			r, q := reqs[i], &data.queries[qi]
			req, first := int64(i), len(tr.spans)
			h := tr.add(req, -1, "http", "client", r.start, r.dur)
			srvDur := time.Duration(r.elapsedMS * 1e6)
			s := tr.add(req, h, "server", "server", r.start.Add((r.dur-srvDur)/2), srvDur)
			p := tr.begin(req, s, "sqlmini.parse")
			parsed, err := sqlmini.Parse(q.sql)
			tr.end(p)
			if err != nil {
				return err
			}
			e := tr.begin(req, s, "sqlmini.exec")
			_, err = sqlmini.ExecuteContext(context.Background(), ls.cat, parsed, o)
			tr.end(e)
			if err != nil {
				return err
			}
			g := tr.begin(req, e, "engine")
			engineCall(ls.cat, &q.spec, spec.threads, nil)
			tr.end(g)
			sp := tr.begin(req, -1, "engine.split")
			splitCall(ls.cat, &q.spec, spec.threads, tr, req, sp)
			tr.end(sp)
			for j := first; j < len(tr.spans); j++ {
				tr.spans[j].Class = q.class
			}
		}
	}
	return nil
}

// handlerAllocs measures allocations and answer size of bpaggd's handler
// alone, called through ServeHTTP with a recorder (no network).
func handlerAllocs(ls *liveServer, qs []query, reps int) (allocs, bytes float64, err error) {
	h := ls.srv.Handler()
	var total, size float64
	for i := range qs {
		q := &qs[i]
		var code int
		a := allocsPer(reps, func() {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/query", strings.NewReader(q.sql)))
			code = rec.Code
			size = float64(rec.Body.Len())
		})
		if code != http.StatusOK {
			return 0, 0, fmt.Errorf("%s: handler answered %d", q.name, code)
		}
		total += a
		bytes += size
	}
	return total / float64(len(qs)), bytes / float64(len(qs)), nil
}

// sqlAllocs measures allocations of sqlmini.Parse and ExecuteContext per
// call, averaged over the mix.
func sqlAllocs(ls *liveServer, qs []query, threads, reps int) (parse, exec float64, err error) {
	o := sqlmini.ExecOptions{Threads: threads}
	for i := range qs {
		q := &qs[i]
		parsed, err := sqlmini.Parse(q.sql)
		if err != nil {
			return 0, 0, err
		}
		parse += allocsPer(100, func() { sqlmini.Parse(q.sql) })
		exec += allocsPer(reps, func() {
			if _, e := sqlmini.ExecuteContext(context.Background(), ls.cat, parsed, o); e != nil {
				err = e
			}
		})
		if err != nil {
			return 0, 0, err
		}
	}
	n := float64(len(qs))
	return parse / n, exec / n, nil
}

// classMap keeps the response ExecStats of each request class; "" holds
// every request's.
type classMap map[string][]bpagg.ExecStats

// mean is the per-request mean of one counter over a class.
func (m classMap) mean(class string, f func(bpagg.ExecStats) uint64) float64 {
	all := m[class]
	if len(all) == 0 {
		return 0
	}
	var sum float64
	for _, s := range all {
		sum += float64(f(s))
	}
	return sum / float64(len(all))
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// statsSub is a - b for the counters the traced run reads.
func statsSub(a, b bpagg.ExecStats) bpagg.ExecStats {
	return bpagg.ExecStats{
		SegmentsScanned:     a.SegmentsScanned - b.SegmentsScanned,
		SegmentsPrunedNone:  a.SegmentsPrunedNone - b.SegmentsPrunedNone,
		SegmentsPrunedAll:   a.SegmentsPrunedAll - b.SegmentsPrunedAll,
		WordsCompared:       a.WordsCompared - b.WordsCompared,
		SegmentsAggregated:  a.SegmentsAggregated - b.SegmentsAggregated,
		WordsTouched:        a.WordsTouched - b.WordsTouched,
		SegmentsCacheServed: a.SegmentsCacheServed - b.SegmentsCacheServed,
	}
}
