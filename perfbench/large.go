package main

import (
	"fmt"
	"time"

	"bpagg"
	"bpagg/internal/catalog"
)

// analytic-large: the paper's regime. 4M rows of uniform values in a
// Table II-shaped denormalized table (widths and selectivities of
// internal/tpch, both layouts), sharded 16 x 256K, persisted and reloaded
// through the bpaggd start path and served with Exec.Threads 2. The
// packed table is about 50 MB, far beyond a 4 MiB L2, and uniform values
// give zone maps and segment caches nothing to skip.
var analyticLarge = serveSpec{
	name:      "analytic-large",
	setupReps: 5,
	threads:   2,
	allocReps: 3,
	prepare:   prepareLarge,
}

const (
	largeShardRows = 1 << 18
	largeShards    = 16
	largeRows      = largeShards * largeShardRows
	// largeLoadRows is the size of one AppendColumnar call: four shards,
	// so the load fans out over the workers.
	largeLoadRows = 4 * largeShardRows
)

// largeCols is the schema: name, bit width, layout. Filter widths are
// Table II's (shipdate 12, discount 10, quantity 10); aggregate widths are
// the real expressions' (revenue 24, price 24, qty 6).
var largeCols = []struct {
	name   string
	bits   int
	layout bpagg.Layout
}{
	{"l_shipdate", 12, bpagg.VBP},
	{"l_discount", 10, bpagg.HBP},
	{"l_quantity", 10, bpagg.VBP},
	{"revenue", 24, bpagg.VBP},
	{"price", 24, bpagg.HBP},
	{"qty", 6, bpagg.VBP},
	{"l_returnflag", 2, bpagg.VBP},
	{"partkey", 12, bpagg.HBP},
}

// Cutoffs realizing Table II selectivities on uniform columns: Q6's
// shipdate 0.30, discount 0.28, quantity 0.2262; Q1's shipdate 0.986.
const (
	q6Ship, q6Disc, q6Qty = 1229, 287, 232
	q1Ship                = 4039
)

// largeQueries is the analytic-large mix: five filter aggregates (Q6 and
// relatives, HBP extremes), a MEDIAN, three GROUP BYs (Q1's 4-aggregate
// one over a 2-bit key, a hash-tier one over a 12-bit key, a light one),
// and five rownum ranges, so the filter and range classes each collect
// enough samples for a p90 in one run. Each class has an odd number of
// templates, so its p50 falls inside one template's latency distribution
// rather than on the edge between two templates of different cost.
func largeQueries() []query {
	q6 := []pred{{"l_shipdate", "<", q6Ship, 0}, {"l_discount", "<", q6Disc, 0}, {"l_quantity", "<", q6Qty, 0}}
	q6sql := fmt.Sprintf("l_shipdate < %d AND l_discount < %d AND l_quantity < %d", q6Ship, q6Disc, q6Qty)
	return []query{
		{name: "q6-revenue", class: "filter",
			sql:  "SELECT SUM(revenue) WHERE " + q6sql,
			spec: qspec{where: q6, aggs: []agg{{"SUM", "revenue"}}}},
		{name: "price-extremes", class: "filter",
			sql:  fmt.Sprintf("SELECT MIN(price), MAX(price) WHERE l_quantity < %d", q6Qty),
			spec: qspec{where: []pred{{"l_quantity", "<", q6Qty, 0}}, aggs: []agg{{"MIN", "price"}, {"MAX", "price"}}}},
		{name: "late-revenue", class: "filter",
			sql:  fmt.Sprintf("SELECT SUM(revenue), COUNT(*) WHERE l_shipdate >= 2867 AND l_discount < %d", q6Disc),
			spec: qspec{where: []pred{{"l_shipdate", ">=", 2867, 0}, {"l_discount", "<", q6Disc, 0}}, aggs: []agg{{"SUM", "revenue"}, {"COUNT", ""}}}},
		{name: "small-orders", class: "filter",
			sql:  "SELECT AVG(price), MAX(revenue) WHERE l_discount BETWEEN 100 AND 386 AND qty < 16",
			spec: qspec{where: []pred{{"l_discount", "between", 100, 386}, {"qty", "<", 16, 0}}, aggs: []agg{{"AVG", "price"}, {"MAX", "revenue"}}}},
		{name: "early-discounts", class: "filter",
			sql:  fmt.Sprintf("SELECT COUNT(*), MIN(l_shipdate) WHERE l_discount < %d AND l_shipdate >= 1000", q6Disc),
			spec: qspec{where: []pred{{"l_discount", "<", q6Disc, 0}, {"l_shipdate", ">=", 1000, 0}}, aggs: []agg{{"COUNT", ""}, {"MIN", "l_shipdate"}}}},
		{name: "median-quantity", class: "rank",
			sql:  fmt.Sprintf("SELECT MEDIAN(l_quantity) WHERE l_discount < %d", q6Disc),
			spec: qspec{where: []pred{{"l_discount", "<", q6Disc, 0}}, aggs: []agg{{"MEDIAN", "l_quantity"}}}},
		{name: "q1-summary", class: "group",
			sql: fmt.Sprintf("SELECT SUM(qty), SUM(price), AVG(l_discount), COUNT(*) WHERE l_shipdate < %d GROUP BY l_returnflag", q1Ship),
			spec: qspec{where: []pred{{"l_shipdate", "<", q1Ship, 0}}, groupBy: "l_returnflag",
				aggs: []agg{{"SUM", "qty"}, {"SUM", "price"}, {"AVG", "l_discount"}, {"COUNT", ""}}}},
		{name: "by-partkey", class: "group",
			sql:  "SELECT COUNT(*), SUM(revenue) WHERE " + q6sql + " GROUP BY partkey",
			spec: qspec{where: q6, groupBy: "partkey", aggs: []agg{{"COUNT", ""}, {"SUM", "revenue"}}}},
		{name: "small-by-flag", class: "group",
			sql:  fmt.Sprintf("SELECT COUNT(*), SUM(qty) WHERE l_quantity < %d GROUP BY l_returnflag", q6Qty),
			spec: qspec{where: []pred{{"l_quantity", "<", q6Qty, 0}}, groupBy: "l_returnflag", aggs: []agg{{"COUNT", ""}, {"SUM", "qty"}}}},
		{name: "rows-wide", class: "range",
			sql:  "SELECT SUM(revenue), MIN(price) WHERE rownum BETWEEN 250003 AND 3900000",
			spec: qspec{rownum: &[2]int{250003, 3900000}, aggs: []agg{{"SUM", "revenue"}, {"MIN", "price"}}}},
		{name: "rows-head", class: "range",
			sql:  "SELECT COUNT(*), MAX(qty) WHERE rownum BETWEEN 0 AND 65535",
			spec: qspec{rownum: &[2]int{0, 65535}, aggs: []agg{{"COUNT", ""}, {"MAX", "qty"}}}},
		{name: "rows-tail", class: "range",
			sql:  "SELECT AVG(price), MAX(l_discount) WHERE rownum BETWEEN 4000000 AND 4194303",
			spec: qspec{rownum: &[2]int{4000000, 4194303}, aggs: []agg{{"AVG", "price"}, {"MAX", "l_discount"}}}},
		{name: "rows-narrow", class: "range",
			sql:  "SELECT MIN(qty), MAX(revenue) WHERE rownum BETWEEN 1234567 AND 1240000",
			spec: qspec{rownum: &[2]int{1234567, 1240000}, aggs: []agg{{"MIN", "qty"}, {"MAX", "revenue"}}}},
		{name: "rows-shard-span", class: "range",
			sql:  "SELECT SUM(qty), MIN(revenue) WHERE rownum BETWEEN 262100 AND 1048600",
			spec: qspec{rownum: &[2]int{262100, 1048600}, aggs: []agg{{"SUM", "qty"}, {"MIN", "revenue"}}}},
	}
}

// largeChunk fills buf with rows [off, off+n) of the seed's table. Each
// row's values depend only on the seed and the row's load, so every
// set-up regenerates the same table.
func largeChunk(seed uint64, off, n int, buf map[string][]uint64) map[string][]uint64 {
	if buf == nil {
		buf = map[string][]uint64{}
	}
	for _, c := range largeCols {
		if cap(buf[c.name]) < n {
			buf[c.name] = make([]uint64, n)
		}
		buf[c.name] = buf[c.name][:n]
	}
	rng := newSplitMix(seed ^ uint64(off)*0x9e3779b97f4a7c15)
	for _, c := range largeCols {
		col := buf[c.name]
		for i := range col {
			col[i] = rng.bits(c.bits)
		}
	}
	return buf
}

func largeSpecs() ([]catalog.Spec, error) {
	schema := ""
	for i, c := range largeCols {
		if i > 0 {
			schema += ", "
		}
		schema += fmt.Sprintf("%s:uint(%d):%s", c.name, c.bits, c.layout)
	}
	return catalog.ParseSchema(schema)
}

func prepareLarge(seed uint64) (*serveData, error) {
	specs, err := largeSpecs()
	if err != nil {
		return nil, err
	}
	bits := map[string]int{}
	for _, c := range largeCols {
		bits[c.name] = c.bits
	}
	qs := largeQueries()
	exps := make([]*expect, len(qs))
	for i := range qs {
		exps[i] = newExpect(&qs[i].spec, bits)
	}
	var buf map[string][]uint64
	for off := 0; off < largeRows; off += largeLoadRows {
		buf = largeChunk(seed, off, largeLoadRows, buf)
		for _, e := range exps {
			e.feed(buf, off)
		}
	}
	// All columns are plain uints, so the schema alone renders them.
	ref := &catalog.Catalog{Specs: specs}
	for i := range qs {
		qs[i].want = exps[i].rows(ref)
	}
	exps = nil

	d := &serveData{rows: largeRows, queries: qs}
	d.build = func() (*catalog.Catalog, time.Duration, error) {
		st := bpagg.NewShardedTable(largeShardRows)
		for _, c := range largeCols {
			st.AddColumn(c.name, c.layout, c.bits)
		}
		var ingest time.Duration
		for off := 0; off < largeRows; off += largeLoadRows {
			buf = largeChunk(seed, off, largeLoadRows, buf)
			t := time.Now()
			st.AppendColumnar(buf)
			ingest += time.Since(t)
		}
		return &catalog.Catalog{Specs: specs, Sharded: st}, ingest, nil
	}
	d.release = func() { buf = nil }
	return d, nil
}
