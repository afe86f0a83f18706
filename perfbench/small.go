package main

import (
	"bytes"
	"fmt"
	"sort"
	"strconv"
	"time"

	"bpagg"
	"bpagg/internal/catalog"
)

// serve-small: a dashboard's many small queries against a 16,384-row flat
// catalog loaded from CSV and served by bpaggd with its default config.
var serveSmall = serveSpec{
	name:      "serve-small",
	setupReps: 41,
	threads:   1,
	allocReps: 50,
	prepare:   prepareSmall,
}

const (
	smallRows   = 16384
	smallSchema = "region:string, price:decimal(2,10000), delta:int(-5000,5000):hbp, qty:uint(6):hbp, cat:uint(4), day:uint(10)"
)

var regions = []string{"APAC", "CN", "EU", "LATAM", "MEA", "NA", "NORDIC", "OCE"}

// smallColumns generates the serve-small rows as codes: a dictionary
// region, a cent-scaled price, a signed delta, uints, and a day column
// that rises with the row number, so zone maps and segment caches act.
func smallColumns(seed uint64) map[string][]uint64 {
	rng := newSplitMix(seed)
	cols := map[string][]uint64{}
	for _, c := range []string{"region", "price", "delta", "qty", "cat", "day"} {
		cols[c] = make([]uint64, smallRows)
	}
	for i := 0; i < smallRows; i++ {
		cols["region"][i] = uint64(rng.intn(len(regions)))
		cols["price"][i] = uint64(rng.intn(1000001)) // cents, 0..10000.00
		cols["delta"][i] = uint64(rng.intn(10001))   // -5000..5000 offset by 5000
		cols["qty"][i] = rng.bits(6)
		cols["cat"][i] = rng.bits(4)
		cols["day"][i] = uint64(i * 1024 / smallRows)
	}
	return cols
}

// smallCSV renders the rows in each column's domain.
func smallCSV(cols map[string][]uint64) []byte {
	var b bytes.Buffer
	b.WriteString("region,price,delta,qty,cat,day\n")
	for i := 0; i < smallRows; i++ {
		b.WriteString(regions[cols["region"][i]])
		b.WriteByte(',')
		b.WriteString(strconv.FormatFloat(float64(cols["price"][i])/100, 'f', 2, 64))
		b.WriteByte(',')
		b.WriteString(strconv.FormatInt(int64(cols["delta"][i])-5000, 10))
		for _, c := range []string{"qty", "cat", "day"} {
			b.WriteByte(',')
			b.WriteString(strconv.FormatUint(cols[c][i], 10))
		}
		b.WriteByte('\n')
	}
	return b.Bytes()
}

func regionCode(name string) uint64 { return uint64(sort.SearchStrings(regions, name)) }

// smallQueries is the serve-small mix: mostly filter aggregates, one
// MEDIAN, one 16-group GROUP BY and one rownum range. The filter class
// has an odd number of templates, so its p50 falls inside one template's
// latency distribution rather than on the edge between two.
func smallQueries() []query {
	return []query{
		{name: "sum-qty", class: "filter", sql: "SELECT SUM(price), COUNT(*) WHERE qty < 24",
			spec: qspec{where: []pred{{"qty", "<", 24, 0}}, aggs: []agg{{"SUM", "price"}, {"COUNT", ""}}}},
		{name: "avg-eu-recent", class: "filter", sql: "SELECT AVG(price) WHERE region = 'EU' AND day >= 800",
			spec: qspec{where: []pred{{"region", "=", regionCode("EU"), 0}, {"day", ">=", 800, 0}}, aggs: []agg{{"AVG", "price"}}}},
		{name: "delta-extremes", class: "filter", sql: "SELECT MIN(delta), MAX(delta) WHERE day BETWEEN 100 AND 199",
			spec: qspec{where: []pred{{"day", "between", 100, 199}}, aggs: []agg{{"MIN", "delta"}, {"MAX", "delta"}}}},
		{name: "cat-cheap", class: "filter", sql: "SELECT SUM(qty) WHERE cat = 3 AND price < 2500.00",
			spec: qspec{where: []pred{{"cat", "=", 3, 0}, {"price", "<", 250000, 0}}, aggs: []agg{{"SUM", "qty"}}}},
		{name: "gainers", class: "filter", sql: "SELECT COUNT(*), SUM(delta) WHERE delta > 0 AND day < 512",
			spec: qspec{where: []pred{{"delta", ">", 5000, 0}, {"day", "<", 512, 0}}, aggs: []agg{{"COUNT", ""}, {"SUM", "delta"}}}},
		{name: "na-top", class: "filter", sql: "SELECT MAX(price) WHERE region = 'NA' AND qty >= 32",
			spec: qspec{where: []pred{{"region", "=", regionCode("NA"), 0}, {"qty", ">=", 32, 0}}, aggs: []agg{{"MAX", "price"}}}},
		{name: "apac-losers", class: "filter", sql: "SELECT COUNT(*), MIN(price) WHERE region = 'APAC' AND delta < -2500",
			spec: qspec{where: []pred{{"region", "=", regionCode("APAC"), 0}, {"delta", "<", 2500, 0}}, aggs: []agg{{"COUNT", ""}, {"MIN", "price"}}}},
		{name: "median-price", class: "rank", sql: "SELECT MEDIAN(price) WHERE day >= 512",
			spec: qspec{where: []pred{{"day", ">=", 512, 0}}, aggs: []agg{{"MEDIAN", "price"}}}},
		{name: "by-cat", class: "group", sql: "SELECT SUM(qty), MAX(price) GROUP BY cat",
			spec: qspec{groupBy: "cat", aggs: []agg{{"SUM", "qty"}, {"MAX", "price"}}}},
		{name: "rows-window", class: "range", sql: "SELECT SUM(price), MIN(delta) WHERE rownum BETWEEN 1000 AND 9999",
			spec: qspec{rownum: &[2]int{1000, 9999}, aggs: []agg{{"SUM", "price"}, {"MIN", "delta"}}}},
	}
}

func prepareSmall(seed uint64) (*serveData, error) {
	specs, err := catalog.ParseSchema(smallSchema)
	if err != nil {
		return nil, err
	}
	cols := smallColumns(seed)
	csv := smallCSV(cols)
	// A throwaway load gives the formatter the expected cells are
	// rendered with (dictionary and decimal domains).
	ref, err := catalog.LoadCSV(bytes.NewReader(csv), specs)
	if err != nil {
		return nil, fmt.Errorf("catalog.LoadCSV: %w", err)
	}
	qs := smallQueries()
	bits := map[string]int{"price": bpagg.Decimal{Scale: 2, Max: 10000}.Bits()}
	for i := range qs {
		e := newExpect(&qs[i].spec, bits)
		e.feed(cols, 0)
		qs[i].want = e.rows(ref)
	}
	d := &serveData{rows: smallRows, queries: qs}
	d.build = func() (*catalog.Catalog, time.Duration, error) {
		t := time.Now()
		cat, err := catalog.LoadCSV(bytes.NewReader(csv), specs)
		if err != nil {
			return nil, 0, fmt.Errorf("catalog.LoadCSV: %w", err)
		}
		return cat, time.Since(t), nil
	}
	d.release = func() { csv = nil }
	return d, nil
}
