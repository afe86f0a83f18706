package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"time"
)

// perLayer lists every metric a -trace 1 run reports, with its unit. A
// layer the workload bypasses reports 0 (LAYERS.md says which).
var perLayer = []metricDef{
	{"http.transport_us_p50", "us"},
	{"server.handler_self_us_p50", "us"},
	{"server.allocs_per_req", "count"},
	{"server.resp_bytes", "B"},
	{"server.shed", "count"},
	{"server.timed_out", "count"},
	{"sqlmini.parse_us_p50", "us"},
	{"sqlmini.parse_allocs", "count"},
	{"sqlmini.exec_self_us_p50", "us"},
	{"sqlmini.exec_allocs", "count"},
	{"engine.us_p50", "us"},
	{"scan.ms_p50", "ms"},
	{"scan.words_compared_per_row", "words/row"},
	{"scan.pruned_ratio", "ratio"},
	{"core.agg_ms_p50", "ms"},
	{"core.words_touched_per_row", "words/row"},
	{"core.cache_served_ratio", "ratio"},
	{"core.radix_rounds", "count"},
	{"group.ms_p50", "ms"},
	{"group.bank_words", "count"},
	{"group.hash_probes", "count"},
	{"group.hash_growths", "count"},
	{"parallel.busy_ratio", "ratio"},
	{"runtime.sched_wait_us_p90", "us"},
	{"runtime.gc_cpu_share", "ratio"},
	{"runtime.allocs_per_req", "count"},
	{"shard.scanned", "count"},
	{"shard.pruned", "count"},
	{"rangeidx.build_ms", "ms"},
	{"rangeidx.index_served_segments", "count"},
	{"rangeidx.fringe_words", "count"},
	{"append.batch_ms_p50_alone", "ms"},
	{"append.read_contention_ratio", "ratio"},
	{"append.allocs_per_batch", "count"},
	{"append.heap_bytes_per_row", "B"},
	{"catalog.build_s", "s"},
	{"catalog.write_s", "s"},
	{"catalog.read_s", "s"},
	{"catalog.read_mb_per_s", "MB/s"},
	{"catalog.file_bytes_per_row", "B"},
	{"trace.qps_ratio", "ratio"},
}

// span is one timed step of a request. Spans of one request share Req;
// Parent is the id of the span that caused it, or -1. Source says where
// the duration comes from: "client" (measured around the HTTP call),
// "server" (bpaggd's reported elapsed_ms), "replay" (measured around a
// call the benchmark repeats after the closed loop), or "stats" (the
// engine's own ExecStats timers, where no finer call is reachable).
type span struct {
	ID      int    `json:"id"`
	Req     int64  `json:"req"`
	Parent  int    `json:"parent"`
	Name    string `json:"name"`
	Class   string `json:"class,omitempty"`
	StartNS int64  `json:"start_ns"`
	DurNS   int64  `json:"dur_ns"`
	Source  string `json:"source"`
}

// tracer holds spans in memory until the run ends.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) add(req int64, parent int, name, source string, start time.Time, dur time.Duration) int {
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Req: req, Parent: parent, Name: name,
		StartNS: start.Sub(t.t0).Nanoseconds(), DurNS: dur.Nanoseconds(), Source: source})
	return id
}

// begin opens a replay span; end closes it.
func (t *tracer) begin(req int64, parent int, name string) int {
	return t.add(req, parent, name, "replay", time.Now(), 0)
}

func (t *tracer) end(id int) {
	s := &t.spans[id]
	s.DurNS = time.Since(t.t0).Nanoseconds() - s.StartNS
}

// synthetic records a child whose duration comes from engine counters;
// it is placed at its parent's start.
func (t *tracer) synthetic(req int64, parent int, name string, dur time.Duration) int {
	start := t.t0
	if parent >= 0 {
		start = t.t0.Add(time.Duration(t.spans[parent].StartNS))
	}
	return t.add(req, parent, name, "stats", start, dur)
}

// selfTimes returns each span's self time: its duration minus its
// children's. Replayed children run after their parent's interval, one
// after another, so the part of the parent they stand for is the sum of
// their durations; a negative remainder (a replay slower than the
// request it stands for) is clamped to 0.
func selfTimes(spans []span) []int64 {
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.DurNS
	}
	for _, s := range spans {
		if s.Parent >= 0 {
			self[s.Parent] -= s.DurNS
		}
	}
	for i := range self {
		self[i] = max(self[i], 0)
	}
	return self
}

// selfByName collects the self times of spans named name, in microseconds.
func selfByName(spans []span, self []int64, name string) []float64 {
	var out []float64
	for i, s := range spans {
		if s.Name == name {
			out = append(out, float64(self[i])/1e3)
		}
	}
	return out
}

// durByName collects durations of spans named name (of class, if set), in
// microseconds.
func durByName(spans []span, name, class string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name && (class == "" || s.Class == class) {
			out = append(out, float64(s.DurNS)/1e3)
		}
	}
	return out
}

// dump writes the spans and their self times as JSON.
func (t *tracer) dump(path string, meta map[string]any) error {
	self := selfTimes(t.spans)
	type row struct {
		span
		SelfNS int64 `json:"self_ns"`
	}
	rows := make([]row, len(t.spans))
	for i, s := range t.spans {
		rows[i] = row{s, self[i]}
	}
	b, err := json.MarshalIndent(map[string]any{"meta": meta, "spans": rows}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

func dumpPath(opt options) string {
	return filepath.Join(opt.dir, fmt.Sprintf("trace-%s-seed%d.json", opt.workload, opt.seed))
}

// --- Go runtime counters ---------------------------------------------------

// rtSample is a snapshot of the runtime/metrics the traced phases diff.
type rtSample struct {
	sched           *metrics.Float64Histogram
	gcCPU, totalCPU float64
	allocs          uint64
}

var rtNames = []string{
	"/sched/latencies:seconds",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/gc/heap/allocs:objects",
}

func readRuntime() rtSample {
	s := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		s[i].Name = n
	}
	metrics.Read(s)
	var out rtSample
	if s[0].Value.Kind() == metrics.KindFloat64Histogram {
		h := s[0].Value.Float64Histogram()
		out.sched = &metrics.Float64Histogram{Counts: append([]uint64(nil), h.Counts...), Buckets: h.Buckets}
	}
	if s[1].Value.Kind() == metrics.KindFloat64 {
		out.gcCPU = s[1].Value.Float64()
	}
	if s[2].Value.Kind() == metrics.KindFloat64 {
		out.totalCPU = s[2].Value.Float64()
	}
	if s[3].Value.Kind() == metrics.KindUint64 {
		out.allocs = s[3].Value.Uint64()
	}
	return out
}

// rtDelta is what the runtime did between two samples.
type rtDelta struct {
	schedP90us float64
	gcShare    float64
	allocs     uint64
}

func runtimeDelta(a, b rtSample) rtDelta {
	var d rtDelta
	if a.sched != nil && b.sched != nil {
		var total uint64
		counts := make([]uint64, len(b.sched.Counts))
		for i := range counts {
			counts[i] = b.sched.Counts[i] - a.sched.Counts[i]
			total += counts[i]
		}
		want := uint64(float64(total)*0.9 + 0.5)
		var seen uint64
		for i, c := range counts {
			seen += c
			if total > 0 && seen >= want {
				d.schedP90us = b.sched.Buckets[i+1] * 1e6 // upper bound of the bucket
				break
			}
		}
	}
	if cpu := b.totalCPU - a.totalCPU; cpu > 0 {
		d.gcShare = (b.gcCPU - a.gcCPU) / cpu
	}
	d.allocs = b.allocs - a.allocs
	return d
}

// mallocs counts heap allocations so far.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// allocsPer is the mean number of heap allocations of fn over n calls.
func allocsPer(n int, fn func()) float64 {
	fn() // first call may fill lazy state
	before := mallocs()
	for i := 0; i < n; i++ {
		fn()
	}
	return float64(mallocs()-before) / float64(n)
}

// zeroLayers reports 0 for every per-layer metric of a layer the
// workload bypasses; measured metrics overwrite them.
func zeroLayers(res *result, prefixes ...string) {
	for _, m := range perLayer {
		for _, p := range prefixes {
			if len(m.name) >= len(p) && m.name[:len(p)] == p {
				res.metrics[m.name] = metricValue{0, m.unit}
			}
		}
	}
}
