package core

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"testing"

	"seedb/internal/dataset"
	"seedb/internal/distance"
	"seedb/internal/sqldb"
)

// goldenPath pins the engine's ranked output over goldenMatrix.
// Regenerate with UPDATE_GOLDEN=1 after an intentional ranking change.
var goldenPath = filepath.Join("testdata", "recommend_golden.txt")

// trafficViews restricts the traffic table's view space to five
// dimensions that between them cover a ~190-group string dimension with
// NULLs (city), an INT dimension (quantity), a BOOL one (active) and two
// small string ones, over one measure with NULLs (score) and one without.
var (
	trafficDims     = []string{"city", "quantity", "active", "plan", "device"}
	trafficMeasures = []string{"revenue", "score"}
	allAggs         = []AggFunc{AggAvg, AggSum, AggCount, AggMin, AggMax}
)

// buildTraffic loads dataset.TrafficSpec at the given size into an
// embedded engine.
func buildTraffic(t testing.TB, layout sqldb.Layout, rows int) *Engine {
	t.Helper()
	db := sqldb.NewDB()
	if _, err := dataset.BuildSynth(db, dataset.TrafficSpec().WithRows(rows), layout); err != nil {
		t.Fatal(err)
	}
	return newTestEngine(db)
}

// goldenConfig is one (strategy, pruning) point of the matrix; sweep
// points run under every distance function, the rest under EMD only.
type goldenConfig struct {
	strategy Strategy
	pruning  PruningScheme
	sweep    bool
}

var goldenConfigs = []goldenConfig{
	{NoOpt, NoPruning, false}, {Sharing, NoPruning, true},
	{Comb, NoPruning, false}, {Comb, CIPruning, true}, {Comb, MABPruning, false},
	{CombEarly, CIPruning, false}, {CombEarly, MABPruning, false},
}

var goldenPredicates = []string{"plan = 'pro'", "region = 'emea' AND quantity > 25"}

// goldenMatrix runs every request of the matrix — layout × predicate ×
// reference × (strategy, pruning) × distance uncached, then the EMD
// points again with the cache on — and renders one record per run: the
// uncached run's cost counters, the top-k with utility bits and Partial,
// and a digest of every view's full Recommendation. Cached runs leave the
// counters out: which entries a cache admits depends on timing. Column
// stores run under colGroupBy; row stores under their default.
func goldenMatrix(t *testing.T, layouts []sqldb.Layout, colGroupBy GroupByStrategy) string {
	ctx := context.Background()
	var b strings.Builder
	for _, layout := range layouts {
		groupBy := GroupByAuto
		if layout == sqldb.LayoutCol {
			groupBy = colGroupBy
		}
		e := buildTraffic(t, layout, 2000)
		for _, cached := range []bool{false, true} {
			for pi, pred := range goldenPredicates {
				for _, ref := range []RefMode{RefAll, RefComplement} {
					for _, gc := range goldenConfigs {
						for _, dist := range distance.Funcs() {
							if dist != distance.EMD && (cached || !gc.sweep) {
								continue
							}
							req := Request{
								Table: "traffic", TargetWhere: pred, Reference: ref,
								Dimensions: trafficDims, Measures: trafficMeasures, Aggs: allAggs,
							}
							res, err := e.Recommend(ctx, req, Options{
								Strategy: gc.strategy, Pruning: gc.pruning, Distance: dist,
								K: 5, KeepAllViews: true, Parallelism: 3, ScanParallelism: 2,
								EnableCache: cached, GroupBy: groupBy,
							})
							if err != nil {
								t.Fatal(err)
							}
							fmt.Fprintf(&b, "run %s p%d %s %s/%s %s cache=%t\n",
								layout, pi, ref, gc.strategy, gc.pruning, dist, cached)
							if !cached {
								m := res.Metrics
								fmt.Fprintf(&b, "  cost queries=%d rows=%d pruned=%d\n",
									m.QueriesExecuted, m.RowsScanned, m.PrunedViews)
							}
							writeRecs(&b, res)
						}
					}
				}
			}
		}
	}
	return b.String()
}

// writeRecs renders a result's top-k readably and digests AllViews.
func writeRecs(b *strings.Builder, res *Result) {
	for i, rec := range res.Recommendations {
		p := ""
		if rec.Partial {
			p = " partial"
		}
		fmt.Fprintf(b, "  %d %s %016x%s\n", i+1, rec.View, math.Float64bits(rec.Utility), p)
	}
	fmt.Fprintf(b, "  all %016x\n", digestRecs(res.AllViews))
}

// digestRecs hashes every field of every recommendation, floats by bits
// and agg maps in key order.
func digestRecs(recs []Recommendation) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	f := func(x float64) {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(x))
		h.Write(buf[:])
	}
	s := func(x string) { fmt.Fprintf(h, "%d:%s", len(x), x) }
	m := func(agg map[string]float64) {
		keys := make([]string, 0, len(agg))
		for k := range agg {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		s(fmt.Sprint(len(keys)))
		for _, k := range keys {
			s(k)
			f(agg[k])
		}
	}
	for _, rec := range recs {
		s(rec.View.Key())
		f(rec.Utility)
		s(fmt.Sprint(rec.Partial, len(rec.Groups), len(rec.Target), len(rec.Reference)))
		for _, g := range rec.Groups {
			s(g)
		}
		for _, x := range rec.Target {
			f(x)
		}
		for _, x := range rec.Reference {
			f(x)
		}
		m(rec.TargetAgg)
		m(rec.ReferenceAgg)
	}
	return h.Sum64()
}

// TestRecommendGolden pins ranked views, utility bits, Partial and the
// uncached cost counters across the configuration matrix, so a change to
// how the engine merges or scores partial results has to reproduce every
// float exactly or regenerate the file on purpose. Bits are pinned on
// amd64, where the compiler never fuses a multiply and an add into one
// rounding; other architectures may legitimately differ in final ulps.
//
// The file's column-store records pin GroupBySingle, one query per
// dimension. The column-store default, GroupByUnion, must reproduce
// every one of them but the query count (see checkUnionTwins).
func TestRecommendGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("utility bits are pinned on amd64")
	}
	got := goldenMatrix(t, []sqldb.Layout{sqldb.LayoutRow, sqldb.LayoutCol}, GroupBySingle)
	checkCachedTwins(t, got)
	checkUnionTwins(t, got, goldenMatrix(t, []sqldb.Layout{sqldb.LayoutCol}, GroupByAuto))
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("reading golden (regenerate with UPDATE_GOLDEN=1): %v", err)
	}
	if bytes.Equal([]byte(got), want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	run, diffs := "", 0
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if strings.HasPrefix(w, "run ") {
			run = w
		}
		if g != w {
			if diffs++; diffs <= 10 {
				t.Errorf("%s\n  got  %q\n  want %q", run, g, w)
			}
		}
	}
	t.Errorf("%d golden lines differ; if intentional, regenerate with UPDATE_GOLDEN=1", diffs)
}

// checkUnionTwins requires every record of the column-store default
// plan (union) to equal its GroupBySingle twin in golden — ranked views,
// utility bits, digests, rows scanned and views pruned — and to run no
// more queries: one statement per phase replaces one per dimension, and
// each view's cells fold the same rows in the same order.
func checkUnionTwins(t *testing.T, golden, union string) {
	t.Helper()
	single := map[string]string{}
	for _, rec := range strings.Split(golden, "run ")[1:] {
		head, body, _ := strings.Cut(rec, "\n")
		single[head] = body
	}
	recs := strings.Split(union, "run ")[1:]
	if len(recs) == 0 {
		t.Fatal("union matrix rendered no records")
	}
	for _, rec := range recs {
		head, body, _ := strings.Cut(rec, "\n")
		want, ok := single[head]
		if !ok {
			t.Errorf("run %s: no GroupBySingle twin", head)
			continue
		}
		var gq, wq int
		var gRest, wRest string
		if strings.HasPrefix(body, "  cost ") {
			fmt.Sscanf(body, "  cost queries=%d", &gq)
			fmt.Sscanf(want, "  cost queries=%d", &wq)
			_, gRest, _ = strings.Cut(body, " rows=")
			_, wRest, _ = strings.Cut(want, " rows=")
		} else {
			gRest, wRest = body, want
		}
		if gRest != wRest || gq > wq {
			t.Errorf("run %s: union plan differs from GroupBySingle\n  got  %q\n  want %q", head, body, want)
		}
	}
}

// checkCachedTwins requires every cache=true record of a golden matrix to
// equal its cache=false twin, cost line aside: the cache may change what
// a request costs, never what it returns.
func checkCachedTwins(t *testing.T, golden string) {
	t.Helper()
	uncached := map[string]string{}
	var cached [][2]string
	for _, rec := range strings.Split(golden, "run ")[1:] {
		head, body, _ := strings.Cut(rec, "\n")
		if strings.HasPrefix(body, "  cost ") {
			_, body, _ = strings.Cut(body, "\n")
		}
		if twin, ok := strings.CutSuffix(head, " cache=true"); ok {
			cached = append(cached, [2]string{twin, body})
		} else {
			uncached[strings.TrimSuffix(head, " cache=false")] = body
		}
	}
	for _, c := range cached {
		if want, ok := uncached[c[0]]; !ok || c[1] != want {
			t.Errorf("run %s: cache=true differs from cache=false\n  got  %q\n  want %q", c[0], c[1], want)
		}
	}
}
