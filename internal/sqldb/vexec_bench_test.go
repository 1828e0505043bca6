package sqldb_test

// Layer microbenchmark for the vectorized grouped scan (vexec.go), the
// layer under the benchmark's sqldb.exec_ms: one SeeDB-shaped query —
// one dimension, optionally the combined target/reference flag, eight
// SUM/COUNT aggregates — per group-key coding, and per WHERE shape on
// the dictionary dimension, over the load harness's own table; and the
// engine's UNION ALL phase statement over 1, 3 and 7 dimensions, whose
// differences are the marginal cost of a branch. An external test
// package because dataset imports sqldb.
//
//	go test ./internal/sqldb -run '^$' -bench GroupedScan -benchmem

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"seedb/internal/dataset"
	"seedb/internal/sqldb"
)

const (
	benchRows = 100_000
	benchAggs = "SUM(sessions), COUNT(sessions), SUM(price), COUNT(price), " +
		"SUM(revenue), COUNT(revenue), SUM(score), COUNT(score)"
	benchFlag = "CASE WHEN price > 22.50 AND sessions < 100 THEN 1 ELSE 0 END"
)

// benchWheres are the WHERE shapes of the where/* sub-benchmarks: a
// conjunction of kernels (the load harness's own range predicate), a
// disjunction of three leaves, and residual conjuncts alone.
var benchWheres = []struct{ name, pred string }{
	{"kernels", "price > 22.50 AND sessions < 100"},
	{"disjunction", "quantity IN (1, 7, 49) OR price BETWEEN 20 AND 22 OR score IS NULL"},
	{"residual", "quantity * 2 > 40 AND ABS(price) > 20"},
}

// benchTable is dataset.TrafficSpec plus one derived column: account =
// 1e6·quantity, an int dimension with quantity's ~50 values spread over
// a span far beyond the dense id space — TrafficSpec's own ints are all
// narrow enough to be range-coded.
func benchTable(b *testing.B) *sqldb.DB {
	b.Helper()
	spec := dataset.TrafficSpec().WithRows(benchRows).WithSeed(1)
	spec.Columns = append(spec.Columns,
		dataset.SynthColumn{Name: "account", Type: "int", Parent: "quantity", Scale: 1e6})
	db := sqldb.NewDB()
	if _, err := dataset.BuildSynth(db, spec, sqldb.LayoutCol); err != nil {
		b.Fatal(err)
	}
	return db
}

var benchSink *sqldb.Result

func BenchmarkGroupedScan(b *testing.B) {
	db := benchTable(b)
	dims := []struct{ name, col string }{
		{"dict", "city"},          // dictionary codes, ~190 groups
		{"bool", "active"},        // tri-state bool
		{"int_small", "quantity"}, // range-coded int, NULLs
		{"int_wide", "account"},   // runtime value dictionary over ints
		{"float", "price"},        // runtime value dictionary over floats, ~4k groups
	}
	for _, d := range dims {
		for _, flag := range []bool{true, false} {
			keys, name := d.col, d.name+"/noflag"
			if flag {
				keys, name = d.col+", "+benchFlag, d.name+"/flag"
			}
			sql := fmt.Sprintf("SELECT %s, %s FROM traffic GROUP BY %s", keys, benchAggs, keys)
			b.Run(name, func(b *testing.B) { benchQuery(b, db, sql) })
		}
	}
	for _, w := range benchWheres {
		sql := fmt.Sprintf("SELECT city, %s FROM traffic WHERE %s GROUP BY city", benchAggs, w.pred)
		b.Run("where/"+w.name, func(b *testing.B) { benchQuery(b, db, sql) })
	}
	for _, n := range []int{1, 3, 7} {
		b.Run(fmt.Sprintf("union/%d", n), func(b *testing.B) { benchQuery(b, db, unionSQL(db, benchUnionDims[:n])) })
	}
}

// benchUnionDims are the TrafficSpec dimensions the union/N
// sub-benchmarks take as branches, the first N of them.
var benchUnionDims = []string{"region", "state", "city", "device", "plan", "active", "quantity"}

// unionSQL is the engine's phase statement over dims: one UNION ALL
// branch per dimension with its index, one key column per column type
// (NULL in the branches of other types), the flag and the eight
// aggregates.
func unionSQL(db *sqldb.DB, dims []string) string {
	tab, _ := db.Table("traffic")
	keyCol, types := make([]int, len(dims)), []sqldb.ColumnType{}
	for i, d := range dims {
		idx, _ := tab.Schema().Lookup(d)
		typ := tab.Schema().Column(idx).Type
		if keyCol[i] = slices.Index(types, typ); keyCol[i] < 0 {
			keyCol[i], types = len(types), append(types, typ)
		}
	}
	var branches []string
	for i, d := range dims {
		keys := make([]string, len(types))
		for k := range keys {
			keys[k] = "NULL"
		}
		keys[keyCol[i]] = d
		branches = append(branches, fmt.Sprintf("SELECT %d, %s, %s, %s FROM traffic GROUP BY %s, %s",
			i, strings.Join(keys, ", "), benchFlag, benchAggs, d, benchFlag))
	}
	return strings.Join(branches, " UNION ALL ")
}

// benchQuery runs sql b.N times on the fast path with two workers.
func benchQuery(b *testing.B, db *sqldb.DB, sql string) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := db.QueryOpts(sql, sqldb.ExecOptions{Workers: 2})
		if err != nil {
			b.Fatal(err)
		}
		if !res.Stats.Vectorized {
			b.Fatalf("not vectorized: %s", res.Stats.FallbackReason)
		}
		benchSink = res
	}
	b.ReportMetric(float64(benchRows)*float64(b.N)/b.Elapsed().Seconds(), "rows/s")
}
