// Command perfbench is bpagg's end-to-end benchmark. It runs one named
// workload with inputs generated from a seed, checks every answer, and
// prints its metrics by name with their units; the last line of standard
// output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones (tracing off). With
// -trace 1 a separate traced run replays sampled requests down the layer
// stack and reports the per-layer metrics; its span dump is written under
// -dir. LAYERS.md maps every metric to the layer it measures.
//
// Run it from the repository root through run.py, which builds it:
//
//	python3 perfbench/run.py --workload serve-small --seed 1 --seconds 15 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// options are the command-line settings of one run.
type options struct {
	workload string
	seed     uint64
	seconds  time.Duration
	trace    bool
	dir      string // scratch files: the persisted catalog, the span dump
	commit   string
}

// endToEnd lists every metric a -trace 0 run reports, with its unit.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"qps", "1/s"},
	{"filter_p50_ms", "ms"},
	{"filter_p90_ms", "ms"},
	{"rank_p50_ms", "ms"},
	{"group_p50_ms", "ms"},
	{"range_p50_ms", "ms"},
	{"range_p90_ms", "ms"},
	{"ingest_rows_per_s", "rows/s"},
	{"file_bytes_per_row", "B"},
	{"heap_bytes_per_row", "B"},
}

type metricDef struct{ name, unit string }

var workloads = map[string]func(options, *result) error{
	"serve-small":    func(o options, r *result) error { return runServe(serveSmall, o, r) },
	"analytic-large": func(o options, r *result) error { return runServe(analyticLarge, o, r) },
	"ingest-range":   runIngest,
}

func main() {
	var (
		opt   options
		trace int
		secs  int
	)
	flag.StringVar(&opt.workload, "workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	flag.Uint64Var(&opt.seed, "seed", 1, "seed of the generated inputs")
	flag.IntVar(&secs, "seconds", 10, "length of the measured phase in seconds")
	flag.IntVar(&trace, "trace", 0, "1 for the traced run that reports per-layer metrics")
	flag.StringVar(&opt.dir, "dir", ".bench_build/perfbench-out", "directory for scratch files and span dumps")
	flag.StringVar(&opt.commit, "commit", "unknown", "commit of the code under test, for the host block")
	flag.Parse()
	opt.seconds = time.Duration(secs) * time.Second
	opt.trace = trace == 1
	run, ok := workloads[opt.workload]
	if !ok || secs < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload (one of %s), -seconds >= 1, -trace 0|1\n",
			strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	if err := os.MkdirAll(opt.dir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}

	fmt.Printf("host: nproc %d GOMAXPROCS %d %s %s/%s commit %s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH, opt.commit)
	fmt.Printf("workload %s seed %d seconds %d trace %v\n", opt.workload, opt.seed, secs, opt.trace)
	res := newResult()
	if err := run(opt, res); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	want := endToEnd
	if opt.trace {
		want = perLayer
	}
	if err := res.finish(want); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// result collects one run's counts and metrics.
type result struct {
	attempted, failed int
	errs              []string
	metrics           map[string]metricValue
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func newResult() *result { return &result{metrics: map[string]metricValue{}} }

func (r *result) printf(format string, args ...any) { fmt.Printf(format+"\n", args...) }

// errorf records a wrong answer or a failed check: the run then reports
// correct=false.
func (r *result) errorf(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	r.errs = append(r.errs, msg)
	fmt.Fprintln(os.Stderr, "perfbench: check failed:", msg)
}

func (r *result) metric(name string, v float64, unit string) {
	r.metrics[name] = metricValue{v, unit}
	fmt.Printf("  %-34s %14.6g %s\n", name, v, unit)
}

// latencyMetrics reports each class's p50 and p90 with its sample count,
// the p99s and the all-request percentiles as diagnostics only. With
// windows, a percentile is the median of its per-window values where
// enough windows allow it (see windowed), else it is pooled over the run.
func (r *result) latencyMetrics(lat latencies, win windowed) {
	for _, c := range classes {
		s := lat[c]
		p50, err50 := percentile(s, 0.50)
		p90, err90 := percentile(s, 0.90)
		p99, err99 := percentile(s, 0.99)
		w50, n50 := win.percentile(c, 0.50)
		w90, n90 := win.percentile(c, 0.90)
		fmt.Printf("  class %-6s n=%-7d p50 %s p90 %s p99 %s (ms); windows: p50 %.4f of %d, p90 %.4f of %d\n",
			c, len(s), fmtPct(p50, err50), fmtPct(p90, err90), fmtPct(p99, err99), w50, n50, w90, n90)
		if n50 > 0 {
			p50, err50 = w50, nil
		}
		if n90 > 0 {
			p90, err90 = w90, nil
		}
		if err50 != nil {
			r.errorf("%s p50: %v", c, err50)
			continue
		}
		r.metric(c+"_p50_ms", p50, "ms")
		if c == "filter" || c == "range" {
			if err90 != nil {
				r.errorf("%s p90: %v", c, err90)
				continue
			}
			r.metric(c+"_p90_ms", p90, "ms")
		}
	}
	all := lat.all()
	p50, e50 := percentile(all, 0.50)
	p90, e90 := percentile(all, 0.90)
	p99, e99 := percentile(all, 0.99)
	fmt.Printf("  diagnostic: all requests n=%d p50 %s p90 %s p99 %s (ms)\n", len(all), fmtPct(p50, e50), fmtPct(p90, e90), fmtPct(p99, e99))
}

func fmtPct(v float64, err error) string {
	if err != nil {
		return "n/a"
	}
	return fmt.Sprintf("%.4f", v)
}

// finish checks that exactly the wanted metrics were measured and prints
// the result line.
func (r *result) finish(want []metricDef) error {
	var missing []string
	out := map[string]metricValue{}
	for _, m := range want {
		v, ok := r.metrics[m.name]
		if !ok {
			missing = append(missing, m.name)
			continue
		}
		if v.Unit != m.unit {
			return fmt.Errorf("metric %s measured in %s, declared %s", m.name, v.Unit, m.unit)
		}
		out[m.name] = v
	}
	if len(missing) > 0 && len(r.errs) == 0 {
		return fmt.Errorf("metrics not measured: %s", strings.Join(missing, ", "))
	}
	if r.attempted < 1 {
		return fmt.Errorf("no operation attempted")
	}
	line, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{len(r.errs) == 0 && r.failed == 0, r.attempted, r.failed, out})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}
