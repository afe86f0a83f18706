package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie strictly above a percentile
// before the benchmark reports it: a p90 needs at least 100 samples, a
// p99 at least 1000.
const minBeyond = 10

// percentile returns the nearest-rank p-quantile (0 < p < 1) of the
// samples. It refuses when fewer than minBeyond samples lie beyond the
// percentile, because such a tail is set by a handful of requests.
func percentile(samples []float64, p float64) (float64, error) {
	n := len(samples)
	if n == 0 {
		return 0, fmt.Errorf("percentile p%g of no samples", p*100)
	}
	rank := int(math.Ceil(p * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if n-rank < minBeyond {
		return 0, fmt.Errorf("percentile p%g of %d samples has %d beyond it, need %d",
			p*100, n, n-rank, minBeyond)
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return s[rank-1], nil
}

// median is the middle of a set of repeated measurements (set-up times,
// per-cycle rates, replayed spans), where the tail rule does not apply:
// the middle value, or the mean of the two middle values; 0 for none.
func median(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// classes are the request classes every workload reports latency for.
var classes = []string{"filter", "rank", "group", "range"}

// latencies keeps per-class latency samples in milliseconds.
type latencies map[string][]float64

func (l latencies) add(class string, ms float64) { l[class] = append(l[class], ms) }

func (l latencies) merge(o latencies) {
	for c, s := range o {
		l[c] = append(l[c], s...)
	}
}

func (l latencies) all() []float64 {
	var out []float64
	for _, c := range classes {
		out = append(out, l[c]...)
	}
	return out
}

// The host's speed shifts from second to second (other tenants, CPU
// steal), and a stall inflates a pooled tail or a mean rate for the whole
// run. A closed loop therefore also keeps its samples per one-second
// window, and a statistic is the median over windows when enough windows
// hold enough samples for it.
const (
	window     = time.Second
	minWindows = 5
)

// windowed holds a closed loop's latency samples per window.
type windowed []latencies

func (w *windowed) add(at time.Duration, class string, ms float64) {
	i := int(at / window)
	for len(*w) <= i {
		*w = append(*w, latencies{})
	}
	(*w)[i].add(class, ms)
}

func (w *windowed) merge(o windowed) {
	for i, l := range o {
		for len(*w) <= i {
			*w = append(*w, latencies{})
		}
		(*w)[i].merge(l)
	}
}

// complete returns the windows that ended before elapsed.
func (w windowed) complete(elapsed time.Duration) windowed {
	return w[:min(len(w), int(elapsed/window))]
}

// rate is the median over the windows of answered requests per second.
// ok is false with fewer than minWindows windows, or fewer than
// minPerWindow requests in a typical window, where a per-window count is
// too coarse a measure.
func (w windowed) rate() (float64, bool) {
	const minPerWindow = 100
	if len(w) < minWindows {
		return 0, false
	}
	var per []float64
	for _, l := range w {
		per = append(per, float64(len(l.all()))/window.Seconds())
	}
	m := median(per)
	return m, m*window.Seconds() >= minPerWindow
}

// percentile is the median over the windows that hold enough samples for
// the class's p-quantile of that quantile; n is the number of such
// windows, 0 when fewer than minWindows qualify.
func (w windowed) percentile(class string, p float64) (v float64, n int) {
	var per []float64
	for _, l := range w {
		if x, err := percentile(l[class], p); err == nil {
			per = append(per, x)
		}
	}
	if len(per) < minWindows {
		return 0, 0
	}
	return median(per), len(per)
}
