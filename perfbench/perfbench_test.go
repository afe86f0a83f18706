package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"
	"time"

	"bpagg/internal/catalog"
)

func TestPercentileRefusesThinTail(t *testing.T) {
	s := make([]float64, 100)
	for i := range s {
		s[i] = float64(100 - i) // 100..1, unsorted input
	}
	if v, err := percentile(s, 0.90); err != nil || v != 90 {
		t.Fatalf("p90 of 1..100 = %v, %v; want 90", v, err)
	}
	if _, err := percentile(s[:99], 0.90); err == nil {
		t.Fatal("p90 of 99 samples has 9 beyond it; want a refusal")
	}
	if v, err := percentile(s[:20], 0.50); err != nil || v != 90 {
		t.Fatalf("p50 of 81..100 = %v, %v; want 90", v, err)
	}
	if _, err := percentile(s[:19], 0.50); err == nil {
		t.Fatal("p50 of 19 samples has 9 beyond it; want a refusal")
	}
	if _, err := percentile(nil, 0.50); err == nil {
		t.Fatal("p50 of no samples; want a refusal")
	}
}

func TestMedianOfRepeats(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Fatalf("median = %v, want 2", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Fatalf("median = %v, want 2.5", m)
	}
}

func TestGeneratorsDeterministicPerSeed(t *testing.T) {
	if !reflect.DeepEqual(smallColumns(7), smallColumns(7)) {
		t.Error("serve-small rows differ for one seed")
	}
	if reflect.DeepEqual(smallColumns(7), smallColumns(8)) {
		t.Error("serve-small rows equal for two seeds")
	}
	a := largeChunk(7, 1<<20, 4096, nil)
	if !reflect.DeepEqual(a, largeChunk(7, 1<<20, 4096, nil)) {
		t.Error("analytic-large chunk differs for one seed")
	}
	if reflect.DeepEqual(a, largeChunk(8, 1<<20, 4096, nil)) {
		t.Error("analytic-large chunk equal for two seeds")
	}
	if reflect.DeepEqual(a, largeChunk(7, 2<<20, 4096, nil)) {
		t.Error("analytic-large chunks at two offsets are equal")
	}
	if !reflect.DeepEqual(genTelemetry(7, 5000).cols, genTelemetry(7, 5000).cols) {
		t.Error("telemetry differs for one seed")
	}
	if reflect.DeepEqual(genTelemetry(7, 5000).cols, genTelemetry(8, 5000).cols) {
		t.Error("telemetry equal for two seeds")
	}
}

// TestCheckerRejectsCorruptedCell computes expected rows with plain loops
// and checks that the comparison catches one changed cell.
func TestCheckerRejectsCorruptedCell(t *testing.T) {
	cols := map[string][]uint64{"k": {1, 2, 1, 3}, "v": {10, 20, 30, 40}}
	specs, err := catalog.ParseSchema("k:uint(2), v:uint(8)")
	if err != nil {
		t.Fatal(err)
	}
	q := qspec{where: []pred{{"v", ">=", 20, 0}}, groupBy: "k", aggs: []agg{{"SUM", "v"}, {"COUNT", ""}}}
	e := newExpect(&q, nil)
	e.feed(cols, 0)
	want := e.rows(&catalog.Catalog{Specs: specs})
	if !reflect.DeepEqual(want, [][]string{{"1", "30", "1"}, {"2", "20", "1"}, {"3", "40", "1"}}) {
		t.Fatalf("expected rows = %v", want)
	}
	if err := checkRows(want, [][]string{{"1", "30", "1"}, {"2", "20", "1"}, {"3", "40", "1"}}); err != nil {
		t.Fatalf("correct answer rejected: %v", err)
	}
	if err := checkRows(want, [][]string{{"1", "30", "1"}, {"2", "21", "1"}, {"3", "40", "1"}}); err == nil {
		t.Fatal("corrupted cell accepted")
	}
	if err := checkRows(want, want[:2]); err == nil {
		t.Fatal("missing row accepted")
	}
}

// TestCheckerRejectsTornRangeSum: a range answer must match the data at
// some published batch boundary, never a row count in between.
func TestCheckerRejectsTornRangeSum(t *testing.T) {
	d := genTelemetry(3, ingestTotal)
	n0 := ingestPreload + 10*ingestBatch
	cands := epochs(n0, n0)
	lo, hi := n0-100003, n0+ingestBatch
	if !d.checkRangeSum(lo, hi, d.sum(lo, n0), cands) || !d.checkRangeSum(lo, hi, d.sum(lo, hi), cands) {
		t.Fatal("sum at a published boundary rejected")
	}
	if d.checkRangeSum(lo, hi, d.sum(lo, n0+100), cands) {
		t.Fatal("torn sum (mid-batch row count) accepted")
	}
	if d.checkRangeSum(lo, hi, d.sum(lo, n0)+1, cands) {
		t.Fatal("wrong sum accepted")
	}
	if !d.checkRangeMin(lo, hi, d.min(lo, n0), true, cands) {
		t.Fatal("min at a published boundary rejected")
	}
	if d.checkRangeMin(lo, hi, d.min(lo, n0)+1, true, cands) {
		t.Fatal("wrong min accepted")
	}
	const w = 65536
	var sweep []uint64
	for b := 0; b < n0; b += w {
		sweep = append(sweep, d.sum(b, min(b+w, n0)))
	}
	if !d.checkWindowSum(w, w, sweep, cands) {
		t.Fatal("window sweep at a published boundary rejected")
	}
	sweep[len(sweep)-1]++
	if d.checkWindowSum(w, w, sweep, cands) {
		t.Fatal("torn window sweep accepted")
	}
}

func TestSelfTimeSubtractsChildren(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Name: "http", DurNS: 100},
		{ID: 1, Parent: 0, Name: "server", DurNS: 80},
		{ID: 2, Parent: 1, Name: "sqlmini.parse", DurNS: 5},
		{ID: 3, Parent: 1, Name: "sqlmini.exec", DurNS: 60},
		{ID: 4, Parent: 3, Name: "engine", DurNS: 70}, // slower replay than its parent
	}
	got := selfTimes(spans)
	if want := []int64{20, 15, 5, 0, 70}; !reflect.DeepEqual(got, want) {
		t.Fatalf("self times = %v, want %v", got, want)
	}
	if s := selfByName(spans, got, "server"); !reflect.DeepEqual(s, []float64{0.015}) {
		t.Fatalf("server self = %v us", s)
	}
}

// TestMetricListsMatchBenchmarkJSON keeps the metric names and units the
// program reports in step with BENCHMARK.json at the repository root.
func TestMetricListsMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark:", err)
	}
	var doc struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, program %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s (%s), program %s (%s)", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, endToEnd)
	check("per_layer", doc.PerLayer, perLayer)
}

// TestWindowedStatistics: a stalled window moves neither the windowed
// percentile nor the windowed rate; sparse windows fall back to pooling.
func TestWindowedStatistics(t *testing.T) {
	var w windowed
	for i := 0; i < 6; i++ {
		ms := 1.0
		if i == 2 {
			ms = 50 // a stall
		}
		for j := 0; j < 200; j++ {
			w.add(time.Duration(i)*window+time.Duration(j), "filter", ms)
		}
	}
	if v, n := w.percentile("filter", 0.90); v != 1 || n != 6 {
		t.Fatalf("windowed p90 = %v over %d windows, want 1 over 6", v, n)
	}
	if r, ok := w.rate(); !ok || r != 200 {
		t.Fatalf("windowed rate = %v, %v; want 200", r, ok)
	}
	var sparse windowed
	for i := 0; i < 6; i++ {
		for j := 0; j < 10; j++ {
			sparse.add(time.Duration(i)*window, "rank", 1)
		}
	}
	if _, n := sparse.percentile("rank", 0.50); n != 0 {
		t.Fatalf("p50 from 10-sample windows used %d windows, want pooling", n)
	}
	if _, ok := sparse.rate(); ok {
		t.Fatal("rate from 10-request windows accepted")
	}
}
