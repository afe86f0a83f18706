package main

import (
	"fmt"
	"sort"
	"strconv"
	"time"

	"bpagg"
	"bpagg/internal/catalog"
)

// qspec is the structure of one request of a serving mix: the benchmark
// computes its expected rows from the generated values and replays it
// through the root bpagg API. Its SQL text is written beside it.
type qspec struct {
	where   []pred
	aggs    []agg
	groupBy string // single grouping column, or ""
	rownum  *[2]int
}

// pred is one conjunct of a WHERE clause in code space.
type pred struct {
	col  string
	op   string // "<", "<=", ">", ">=", "=", "between"
	a, b uint64
}

func (p pred) match(v uint64) bool {
	switch p.op {
	case "<":
		return v < p.a
	case "<=":
		return v <= p.a
	case ">":
		return v > p.a
	case ">=":
		return v >= p.a
	case "=":
		return v == p.a
	case "between":
		return v >= p.a && v <= p.b
	}
	panic("perfbench: unknown operator " + p.op)
}

func (p pred) engine() bpagg.Predicate {
	switch p.op {
	case "<":
		return bpagg.Less(p.a)
	case "<=":
		return bpagg.LessEq(p.a)
	case ">":
		return bpagg.Greater(p.a)
	case ">=":
		return bpagg.GreaterEq(p.a)
	case "=":
		return bpagg.Equal(p.a)
	case "between":
		return bpagg.Between(p.a, p.b)
	}
	panic("perfbench: unknown operator " + p.op)
}

// agg is one aggregate of the select list: COUNT(*) has an empty col.
type agg struct{ fn, col string }

// --- Expected answers ---------------------------------------------------

// groupAcc accumulates one group's (or the whole query's) aggregates with
// plain loops: exact sums, extremes and a value histogram for MEDIAN.
type groupAcc struct {
	count      uint64
	sums       []uint64
	mins, maxs []uint64
	hist       [][]uint32
}

// expect evaluates a qspec over generated rows fed chunk by chunk, in row
// order, so a large table never has to exist twice in memory.
type expect struct {
	q      *qspec
	bits   map[string]int
	groups map[uint64]*groupAcc
}

func newExpect(q *qspec, bits map[string]int) *expect {
	return &expect{q: q, bits: bits, groups: map[uint64]*groupAcc{}}
}

func (e *expect) acc(key uint64) *groupAcc {
	g := e.groups[key]
	if g == nil {
		n := len(e.q.aggs)
		g = &groupAcc{sums: make([]uint64, n), mins: make([]uint64, n), maxs: make([]uint64, n), hist: make([][]uint32, n)}
		for i, a := range e.q.aggs {
			g.mins[i] = ^uint64(0)
			if a.fn == "MEDIAN" {
				g.hist[i] = make([]uint32, 1<<e.bits[a.col])
			}
		}
		e.groups[key] = g
	}
	return g
}

// feed adds rows [base, base+len) given as per-column code slices.
func (e *expect) feed(cols map[string][]uint64, base int) {
	n := 0
	for _, c := range cols {
		n = len(c)
		break
	}
	whereCols := make([][]uint64, len(e.q.where))
	for i, p := range e.q.where {
		whereCols[i] = cols[p.col]
	}
	aggCols := make([][]uint64, len(e.q.aggs))
	for i, a := range e.q.aggs {
		aggCols[i] = cols[a.col]
	}
	var gcol []uint64
	if e.q.groupBy != "" {
		gcol = cols[e.q.groupBy]
	}
	var single *groupAcc
	if gcol == nil {
		single = e.acc(0)
	}
rows:
	for r := 0; r < n; r++ {
		if rn := e.q.rownum; rn != nil && (base+r < rn[0] || base+r > rn[1]) {
			continue
		}
		for i, p := range e.q.where {
			if !p.match(whereCols[i][r]) {
				continue rows
			}
		}
		g := single
		if gcol != nil {
			g = e.acc(gcol[r])
		}
		g.count++
		for i, a := range e.q.aggs {
			if a.col == "" {
				continue
			}
			v := aggCols[i][r]
			switch a.fn {
			case "SUM", "AVG":
				g.sums[i] += v
			case "MIN", "MAX":
				g.mins[i] = min(g.mins[i], v)
				g.maxs[i] = max(g.maxs[i], v)
			case "MEDIAN":
				g.hist[i][v]++
			}
		}
	}
}

// rows renders the expected result the way sqlmini does: one row, or one
// row per non-empty group in ascending key order led by the key.
func (e *expect) rows(cat *catalog.Catalog) [][]string {
	var keys []uint64
	for k, g := range e.groups {
		if g.count > 0 || e.q.groupBy == "" {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	var out [][]string
	for _, k := range keys {
		g := e.groups[k]
		var row []string
		if e.q.groupBy != "" {
			row = append(row, cat.FormatValue(e.q.groupBy, k))
		}
		for i, a := range e.q.aggs {
			row = append(row, renderCell(cat, a, g, i))
		}
		out = append(out, row)
	}
	return out
}

func renderCell(cat *catalog.Catalog, a agg, g *groupAcc, i int) string {
	switch a.fn {
	case "COUNT":
		return strconv.FormatUint(g.count, 10)
	case "SUM":
		return cat.FormatSum(a.col, g.sums[i], g.count)
	case "AVG":
		return cat.FormatAvg(a.col, g.sums[i], g.count)
	}
	if g.count == 0 {
		return "NULL"
	}
	switch a.fn {
	case "MIN":
		return cat.FormatValue(a.col, g.mins[i])
	case "MAX":
		return cat.FormatValue(a.col, g.maxs[i])
	case "MEDIAN":
		// Lower median: the value at 1-based rank (count+1)/2.
		rank, seen := (g.count+1)/2, uint64(0)
		for v, c := range g.hist[i] {
			seen += uint64(c)
			if seen >= rank {
				return cat.FormatValue(a.col, uint64(v))
			}
		}
	}
	panic("perfbench: cannot render " + a.fn)
}

// checkRows compares an answer with the expected rows cell by cell.
func checkRows(want, got [][]string) error {
	if len(got) != len(want) {
		return fmt.Errorf("wrong answer: %d rows, want %d", len(got), len(want))
	}
	for i := range want {
		if len(got[i]) != len(want[i]) {
			return fmt.Errorf("wrong answer: row %d has %d cells, want %d", i, len(got[i]), len(want[i]))
		}
		for j := range want[i] {
			if got[i][j] != want[i][j] {
				return fmt.Errorf("wrong answer: row %d cell %d = %q, want %q", i, j, got[i][j], want[i][j])
			}
		}
	}
	return nil
}

// --- Root-API replays ---------------------------------------------------

// scalarQuery is the aggregate surface shared by Query, RangeQuery,
// ShardedQuery and ShardedRangeQuery.
type scalarQuery interface {
	CountRows() uint64
	Sum(string) uint64
	Min(string) (uint64, bool)
	Max(string) (uint64, bool)
	Avg(string) (float64, bool)
	Median(string) (uint64, bool)
}

// groupedQuery is the surface shared by Grouped and ShardedGrouped.
type groupedQuery interface {
	Keys() []uint64
	Count() []uint64
	Sum(string) []uint64
	Min(string) []uint64
	Max(string) []uint64
	Avg(string) []float64
}

var sink uint64

// runScalar evaluates the aggregates and renders them as sqlmini renders
// plain uint columns (AVG with four decimals, an empty MIN/MAX/MEDIAN as
// NULL).
func runScalar(q scalarQuery, aggs []agg) []string {
	row := make([]string, len(aggs))
	for i, a := range aggs {
		var (
			v  uint64
			ok = true
		)
		switch a.fn {
		case "COUNT":
			v = q.CountRows()
		case "SUM":
			v = q.Sum(a.col)
		case "AVG":
			var f float64
			if f, ok = q.Avg(a.col); ok {
				row[i] = strconv.FormatFloat(f, 'f', 4, 64)
				continue
			}
		case "MIN":
			v, ok = q.Min(a.col)
		case "MAX":
			v, ok = q.Max(a.col)
		case "MEDIAN":
			v, ok = q.Median(a.col)
		}
		row[i] = "NULL"
		if ok {
			row[i] = strconv.FormatUint(v, 10)
		}
	}
	return row
}

// runGrouped evaluates grouped aggregates, one row per group led by the
// key, rendered like runScalar.
func runGrouped(g groupedQuery, aggs []agg) [][]string {
	keys := g.Keys()
	rows := make([][]string, len(keys))
	for i, k := range keys {
		rows[i] = []string{strconv.FormatUint(k, 10)}
	}
	for _, a := range aggs {
		var vs []uint64
		switch a.fn {
		case "COUNT":
			vs = g.Count()
		case "SUM":
			vs = g.Sum(a.col)
		case "MIN":
			vs = g.Min(a.col)
		case "MAX":
			vs = g.Max(a.col)
		case "AVG":
			for i, f := range g.Avg(a.col) {
				rows[i] = append(rows[i], strconv.FormatFloat(f, 'f', 4, 64))
			}
			continue
		default:
			panic("perfbench: grouped " + a.fn)
		}
		for i, v := range vs {
			rows[i] = append(rows[i], strconv.FormatUint(v, 10))
		}
	}
	return rows
}

// engineCall runs q through the root API the way sqlmini routes it:
// Where clauses, then Range for a rownum restriction or GroupBy, then the
// aggregates. It returns the rows rendered as for plain uint columns.
// rec, when non-nil, collects ExecStats.
func engineCall(cat *catalog.Catalog, q *qspec, threads int, rec *bpagg.StatsCollector) [][]string {
	var opts []bpagg.ExecOption
	if threads > 1 {
		opts = append(opts, bpagg.Parallel(threads))
	}
	if rec != nil {
		opts = append(opts, bpagg.CollectStats(rec))
	}
	if cat.Sharded != nil {
		sq := cat.Sharded.Query().With(opts...)
		for _, p := range q.where {
			sq = sq.Where(p.col, p.engine())
		}
		switch {
		case q.rownum != nil:
			return [][]string{runScalar(sq.Range(q.rownum[0], q.rownum[1]+1), q.aggs)}
		case q.groupBy != "":
			return runGrouped(sq.GroupBy(q.groupBy), q.aggs)
		default:
			return [][]string{runScalar(sq, q.aggs)}
		}
	}
	fq := cat.Table.Query().With(opts...)
	for _, p := range q.where {
		fq = fq.Where(p.col, p.engine())
	}
	switch {
	case q.rownum != nil:
		return [][]string{runScalar(fq.Range(q.rownum[0], q.rownum[1]+1), q.aggs)}
	case q.groupBy != "":
		return runGrouped(fq.GroupBy(q.groupBy), q.aggs)
	default:
		return [][]string{runScalar(fq, q.aggs)}
	}
}

// splitCall replays q in two phases under span parent: one Column.Scan
// per predicate, then each aggregate on the prebuilt bitmap (a grouped or
// range query's aggregate phase is the engine's GroupBy or Range call).
// A sharded catalog exposes no per-shard columns, so there the two child
// spans carry the engine's own ScanNanos and AggNanos for the call.
func splitCall(cat *catalog.Catalog, q *qspec, threads int, tr *tracer, req int64, parent int) {
	if cat.Sharded != nil {
		rec := bpagg.NewStatsCollector()
		engineCall(cat, q, threads, rec)
		st := rec.Snapshot()
		tr.synthetic(req, parent, "scan", time.Duration(st.ScanNanos))
		tr.synthetic(req, parent, "agg", time.Duration(st.AggNanos))
		return
	}
	tbl := cat.Table
	var sel *bpagg.Bitmap
	for _, p := range q.where {
		s := tr.begin(req, parent, "scan")
		b := tbl.Column(p.col).Scan(p.engine())
		tr.end(s)
		if sel == nil {
			sel = b
		} else {
			sel.And(b)
		}
	}
	s := tr.begin(req, parent, "agg")
	defer tr.end(s)
	if q.rownum != nil || q.groupBy != "" {
		engineCall(cat, q, threads, nil)
		return
	}
	if sel == nil {
		sel = bpagg.NewBitmap(tbl.Rows()).Not()
	}
	var opts []bpagg.ExecOption
	if threads > 1 {
		opts = append(opts, bpagg.Parallel(threads))
	}
	for _, a := range q.aggs {
		if a.col == "" {
			sink += uint64(sel.Count())
			continue
		}
		c := tbl.Column(a.col)
		var v uint64
		switch a.fn {
		case "SUM", "AVG":
			v = c.Sum(sel, opts...)
		case "MIN":
			v, _ = c.Min(sel, opts...)
		case "MAX":
			v, _ = c.Max(sel, opts...)
		case "MEDIAN":
			v, _ = c.Median(sel, opts...)
		}
		sink += v
	}
}
