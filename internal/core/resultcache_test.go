package core

import (
	"context"
	"encoding/json"
	"math"
	"reflect"
	"sync"
	"testing"

	"seedb/internal/backend"
	"seedb/internal/sqldb"
)

// sameRecommendations compares two recommendation lists view-by-view
// with a floating-point tolerance on utilities and distributions.
func sameRecommendations(t *testing.T, a, b []Recommendation, tol float64) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("recommendation counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].View != b[i].View {
			t.Fatalf("rank %d: view %v vs %v", i, a[i].View, b[i].View)
		}
		if math.Abs(a[i].Utility-b[i].Utility) > tol {
			t.Fatalf("rank %d (%v): utility %v vs %v", i, a[i].View, a[i].Utility, b[i].Utility)
		}
		if len(a[i].Groups) != len(b[i].Groups) {
			t.Fatalf("rank %d: group counts differ", i)
		}
		for j := range a[i].Target {
			if math.Abs(a[i].Target[j]-b[i].Target[j]) > tol ||
				math.Abs(a[i].Reference[j]-b[i].Reference[j]) > tol {
				t.Fatalf("rank %d group %d: distributions differ", i, j)
			}
		}
	}
}

func TestRequestCacheKeyListBoundaries(t *testing.T) {
	// Attribute lists must keep their element boundaries and their list
	// membership in the key: none of these requests may share a key.
	base := Request{Table: "t", TargetWhere: "x = 1"}
	opts := Options{}.withDefaults(sqldb.LayoutCol, 4)
	variants := []Request{
		{Table: "t", TargetWhere: "x = 1", Dimensions: []string{"a,b"}},
		{Table: "t", TargetWhere: "x = 1", Dimensions: []string{"a", "b"}},
		{Table: "t", TargetWhere: "x = 1", Dimensions: []string{"a"}, Measures: []string{"b"}},
		{Table: "t", TargetWhere: "x = 1", Measures: []string{"a", "b"}},
	}
	seen := map[string]int{}
	for i, req := range variants {
		k := requestCacheKey(req, opts, "1.1.1")
		if j, dup := seen[k]; dup {
			t.Errorf("variants %d and %d share request key %q", j, i, k)
		}
		seen[k] = i
	}
	if k := requestCacheKey(base, opts, "1.1.1"); func() bool { _, dup := seen[k]; return dup }() {
		t.Errorf("empty-list request collides with a variant key")
	}
}

func TestCacheWarmRequestIssuesZeroQueries(t *testing.T) {
	eng, req := buildCensus(t, sqldb.LayoutCol, 4000)
	ctx := context.Background()
	opts := Options{K: 5, EnableCache: true}

	cold, err := eng.Recommend(ctx, req, opts)
	if err != nil {
		t.Fatal(err)
	}
	if cold.Metrics.QueriesExecuted == 0 || cold.Metrics.ServedFromCache {
		t.Fatalf("cold run: %+v", cold.Metrics)
	}

	before := eng.Cache().Stats()
	warm, err := eng.Recommend(ctx, req, opts)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Metrics.QueriesExecuted != 0 {
		t.Fatalf("warm run executed %d queries, want 0", warm.Metrics.QueriesExecuted)
	}
	// One lookup, no fill: the stale alias is written by computations and
	// read by outages, never touched by a hit.
	after := eng.Cache().Stats()
	if lookups := (after.Hits + after.Misses) - (before.Hits + before.Misses); lookups != 1 || after.Entries != before.Entries {
		t.Fatalf("warm run made %d cache lookups (want 1), entries %d -> %d", lookups, before.Entries, after.Entries)
	}
	if warm.Metrics.RowsScanned != 0 || !warm.Metrics.ServedFromCache || warm.Metrics.CacheHits == 0 {
		t.Fatalf("warm metrics: %+v", warm.Metrics)
	}
	sameRecommendations(t, cold.Recommendations, warm.Recommendations, 0)
}

// TestCacheHitParityAcrossCostKnobs pins the cost-knob canonicalization:
// ScanParallelism changes how a query executes, never what it returns,
// so requests differing only in it must share one cache entry
// (mirroring the PR 3 pruning-option canonicalization for single-pass
// plans).
func TestCacheHitParityAcrossCostKnobs(t *testing.T) {
	eng, req := buildCensus(t, sqldb.LayoutCol, 3000)
	ctx := context.Background()

	cold, err := eng.Recommend(ctx, req, Options{
		Strategy: Sharing, K: 4, EnableCache: true, ScanParallelism: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if cold.Metrics.ServedFromCache {
		t.Fatalf("first request must be cold: %+v", cold.Metrics)
	}

	variants := []Options{
		{Strategy: Sharing, K: 4, EnableCache: true, ScanParallelism: 4},
		{Strategy: Sharing, K: 4, EnableCache: true, ScanParallelism: 7},
		{Strategy: Sharing, K: 4, EnableCache: true},
	}
	for i, opts := range variants {
		warm, err := eng.Recommend(ctx, req, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !warm.Metrics.ServedFromCache || warm.Metrics.QueriesExecuted != 0 {
			t.Errorf("variant %d (%+v): not served from cache: %+v", i, opts, warm.Metrics)
		}
		sameRecommendations(t, cold.Recommendations, warm.Recommendations, 0)
	}
}

// TestCacheMatchesUncachedAcrossStrategies also pins what a cold cached
// request leaves behind in a fresh cache: one q entry per executed query,
// the r entry and its s alias, and nothing else.
func TestCacheMatchesUncachedAcrossStrategies(t *testing.T) {
	ctx := context.Background()
	for _, tc := range []struct {
		name    string
		strat   Strategy
		pruning PruningScheme
	}{
		{"NO_OPT", NoOpt, NoPruning}, {"SHARING", Sharing, NoPruning},
		{"COMB", Comb, NoPruning}, {"COMB+CI", Comb, CIPruning},
		{"COMB_EARLY", CombEarly, NoPruning},
	} {
		for _, layout := range []sqldb.Layout{sqldb.LayoutRow, sqldb.LayoutCol} {
			t.Run(tc.name+"/"+layout.String(), func(t *testing.T) {
				engPlain, req := buildCensus(t, layout, 3000)
				engCached, _ := buildCensus(t, layout, 3000)
				opts := Options{K: 5, Strategy: tc.strat, Pruning: tc.pruning}

				plain, err := engPlain.Recommend(ctx, req, opts)
				if err != nil {
					t.Fatal(err)
				}
				opts.EnableCache = true
				cold, err := engCached.Recommend(ctx, req, opts)
				if err != nil {
					t.Fatal(err)
				}
				// A cold cached run sees an empty cache, so it issues the
				// exact same queries and must produce identical output.
				sameRecommendations(t, plain.Recommendations, cold.Recommendations, 0)
				if cold.Metrics.QueriesExecuted != plain.Metrics.QueriesExecuted {
					t.Fatalf("cold cached run executed %d queries, uncached %d",
						cold.Metrics.QueriesExecuted, plain.Metrics.QueriesExecuted)
				}
				if got, want := engCached.Cache().Len(), cold.Metrics.QueriesExecuted+2; got != want {
					t.Fatalf("cold cached run left %d cache entries, want %d (q per query, r, s)", got, want)
				}

				warm, err := engCached.Recommend(ctx, req, opts)
				if err != nil {
					t.Fatal(err)
				}
				if warm.Metrics.QueriesExecuted != 0 || !warm.Metrics.ServedFromCache {
					t.Fatalf("warm metrics: %+v", warm.Metrics)
				}
				sameRecommendations(t, plain.Recommendations, warm.Recommendations, 0)
			})
		}
	}
}

func TestCacheInvalidationOnAppend(t *testing.T) {
	eng, req := buildCensus(t, sqldb.LayoutCol, 2000)
	ctx := context.Background()
	opts := Options{K: 3, EnableCache: true}

	if _, err := eng.Recommend(ctx, req, opts); err != nil {
		t.Fatal(err)
	}
	// Appending a row bumps the table generation: the next request must
	// recompute rather than serve the stale entry.
	tab, _ := embeddedDB(eng).Table(req.Table)
	row := make([]sqldb.Value, tab.Schema().NumColumns())
	err := tab.ScanRange(0, 1, nil, func(rv sqldb.RowView) error {
		for i := range row {
			row[i] = rv.Value(i)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := tab.AppendRow(row); err != nil {
		t.Fatal(err)
	}

	res, err := eng.Recommend(ctx, req, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.ServedFromCache || res.Metrics.QueriesExecuted == 0 {
		t.Fatalf("request after append served stale cache: %+v", res.Metrics)
	}
}

func TestCachedResultsAreIsolated(t *testing.T) {
	eng, req := buildCensus(t, sqldb.LayoutCol, 2000)
	ctx := context.Background()
	opts := Options{K: 3, EnableCache: true}

	first, err := eng.Recommend(ctx, req, opts)
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt everything the caller can reach.
	want := first.Recommendations[0].Target[0]
	first.Recommendations[0].Target[0] = 12345
	first.Recommendations[0].Groups[0] = "corrupted"
	for k := range first.Recommendations[0].TargetAgg {
		first.Recommendations[0].TargetAgg[k] = -1
	}

	second, err := eng.Recommend(ctx, req, opts)
	if err != nil {
		t.Fatal(err)
	}
	if second.Recommendations[0].Target[0] != want {
		t.Fatal("caller mutation leaked into the cache")
	}
	if second.Recommendations[0].Groups[0] == "corrupted" {
		t.Fatal("caller mutation of groups leaked into the cache")
	}
}

// TestCacheKeyCoversEveryField guards cache-key completeness: every
// field of Options and Request must either change the request key when
// it changes, or be named in keyExemptOptions — and an exempt field must
// really not reach the key. A new result-affecting option therefore
// cannot silently share entries with requests that differ in it.
func TestCacheKeyCoversEveryField(t *testing.T) {
	base := requestCacheKey(Request{}, Options{}, "v")
	perturb := func(f reflect.Value) {
		switch f.Kind() {
		case reflect.Bool:
			f.SetBool(true)
		case reflect.Int, reflect.Int64:
			f.SetInt(7)
		case reflect.Float64:
			f.SetFloat(0.5)
		case reflect.String:
			f.SetString("x")
		case reflect.Slice:
			s := reflect.MakeSlice(f.Type(), 1, 1)
			s.Index(0).SetString("x")
			f.Set(s)
		default:
			t.Fatalf("field kind %v: teach this test to perturb it", f.Kind())
		}
	}
	seen := map[string]bool{}
	ot := reflect.TypeOf(Options{})
	for i := 0; i < ot.NumField(); i++ {
		name := ot.Field(i).Name
		seen[name] = true
		var opts Options
		perturb(reflect.ValueOf(&opts).Elem().Field(i))
		changed := requestCacheKey(Request{}, opts, "v") != base
		_, exempt := keyExemptOptions[name]
		switch {
		case exempt && changed:
			t.Errorf("Options.%s is listed as key-exempt but reaches the key", name)
		case !exempt && !changed:
			t.Errorf("Options.%s neither reaches requestCacheKey nor is listed in keyExemptOptions", name)
		}
	}
	for name := range keyExemptOptions {
		if !seen[name] {
			t.Errorf("keyExemptOptions names %q, which is not an Options field", name)
		}
	}
	rt := reflect.TypeOf(Request{})
	for i := 0; i < rt.NumField(); i++ {
		var req Request
		perturb(reflect.ValueOf(&req).Elem().Field(i))
		if requestCacheKey(req, Options{}, "v") == base {
			t.Errorf("Request.%s does not reach requestCacheKey", rt.Field(i).Name)
		}
	}
}

// ingestBetween is a backend whose table gains a row between the
// engine's one introspection read (TableInfo) and its first Exec — a
// Recommend overlapping an ingest, made deterministic.
type ingestBetween struct {
	backend.Backend
	sawInfo bool // set before any Exec goroutine starts
	once    sync.Once
	fired   bool
	ingest  func()
}

func (b *ingestBetween) TableInfo(ctx context.Context, table string) (backend.TableInfo, error) {
	b.sawInfo = true
	return b.Backend.TableInfo(ctx, table)
}

func (b *ingestBetween) Exec(ctx context.Context, query string, opts backend.ExecOptions) (*backend.Rows, backend.ExecStats, error) {
	if b.sawInfo {
		b.once.Do(func() {
			b.fired = true
			b.ingest()
		})
	}
	return b.Backend.Exec(ctx, query, opts)
}

// TestRecommendOverlappingIngestIsNotCachedUnderNewVersion: a request
// whose introspection and scans straddle an append must not leave a
// scan of the old rows cached under the new version — the next request
// at that version has to see the appended row.
func TestRecommendOverlappingIngestIsNotCachedUnderNewVersion(t *testing.T) {
	db := sqldb.NewDB()
	tab, err := db.CreateTable("t", sqldb.MustSchema(
		sqldb.Column{Name: "d", Type: sqldb.TypeString},
		sqldb.Column{Name: "m", Type: sqldb.TypeFloat},
	), sqldb.LayoutCol)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		if err := tab.AppendRow([]sqldb.Value{sqldb.Str([]string{"a", "b"}[i%2]), sqldb.Float(float64(i%9 + 1))}); err != nil {
			t.Fatal(err)
		}
	}
	be := &ingestBetween{Backend: backend.NewEmbedded(db)}
	be.ingest = func() {
		if err := tab.AppendRow([]sqldb.Value{sqldb.Str("fresh"), sqldb.Float(5)}); err != nil {
			t.Error(err)
		}
	}
	eng := NewEngine(be)
	req := Request{Table: "t", TargetWhere: "m > 0", Dimensions: []string{"d"}, Measures: []string{"m"}}
	// Phased execution scans [0, rows) as read from TableInfo, so a row
	// count read before the append really does miss the new row.
	opts := Options{Strategy: Comb, Pruning: NoPruning, K: 1, EnableCache: true}
	ctx := context.Background()

	if _, err := eng.Recommend(ctx, req, opts); err != nil {
		t.Fatal(err)
	}
	if !be.fired {
		t.Fatal("fixture never appended: no Exec followed the engine's TableInfo")
	}
	sawFresh := func(res *Result) bool {
		for _, g := range res.Recommendations[0].Groups {
			if g == "fresh" {
				return true
			}
		}
		return false
	}
	after, err := eng.Recommend(ctx, req, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !sawFresh(after) {
		t.Fatalf("request at the post-append version misses the appended row (served_from_cache=%t): groups %v",
			after.Metrics.ServedFromCache, after.Recommendations[0].Groups)
	}
	// With the data at rest the same request is admitted and replays.
	warm, err := eng.Recommend(ctx, req, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !warm.Metrics.ServedFromCache || !sawFresh(warm) {
		t.Fatalf("stable-version repeat: served_from_cache=%t groups %v",
			warm.Metrics.ServedFromCache, warm.Recommendations[0].Groups)
	}
}

// TestEncodedRecommendationsOncePerEntry pins the encoding slot: every
// copy of one r entry — the computing caller and later hits — shares
// one encoding of the recommendations as computed, so a caller's
// mutation cannot reach it, while an uncached result encodes per call.
func TestEncodedRecommendationsOncePerEntry(t *testing.T) {
	eng, req := buildCensus(t, sqldb.LayoutCol, 2000)
	ctx := context.Background()
	calls := 0
	encode := func(recs []Recommendation) ([]byte, error) {
		calls++
		return []byte(recs[0].Groups[0]), nil
	}
	opts := Options{K: 3, EnableCache: true}
	cold, err := eng.Recommend(ctx, req, opts)
	if err != nil {
		t.Fatal(err)
	}
	want := cold.Recommendations[0].Groups[0]
	cold.Recommendations[0].Groups[0] = "corrupted"
	for i := 0; i < 3; i++ {
		res := cold
		if i > 0 {
			if res, err = eng.Recommend(ctx, req, opts); err != nil {
				t.Fatal(err)
			}
		}
		b, err := res.EncodedRecommendations(encode)
		if err != nil || string(b) != want {
			t.Fatalf("call %d: encoded %q, %v; want %q", i, b, err, want)
		}
	}
	if calls != 1 {
		t.Fatalf("cached entry encoded %d times, want 1", calls)
	}

	opts.EnableCache = false
	res, err := eng.Recommend(ctx, req, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := res.EncodedRecommendations(encode); err != nil {
			t.Fatal(err)
		}
	}
	if calls != 3 {
		t.Fatalf("uncached result encoded %d times over two calls, want 2", calls-1)
	}
}

// TestEncodedSizeBoundCoversTheEncoding holds encodedSizeBound above
// the JSON encoding of the wire's recommendation object (server's
// RecommendedView) for the costliest inputs: names and groups that
// escape byte by byte, and floats and ranks at their longest.
func TestEncodedSizeBoundCoversTheEncoding(t *testing.T) {
	type wireView struct {
		Rank      int       `json:"rank"`
		Dimension string    `json:"dimension"`
		Measure   string    `json:"measure"`
		Aggregate string    `json:"aggregate"`
		Utility   float64   `json:"utility"`
		Partial   bool      `json:"partial"`
		Groups    []string  `json:"groups"`
		Target    []float64 `json:"target"`
		Reference []float64 `json:"reference"`
	}
	hostile := "<\x01\xff&>"
	long := -0.0000012345678901234567
	rec := Recommendation{
		View:      View{Dimension: hostile, Measure: hostile, Agg: AggFunc(hostile)},
		Utility:   long,
		Partial:   true,
		Groups:    []string{hostile, "", "a"},
		Target:    []float64{long, -1.2345678901234567e-308, 1.2345678901234567e20},
		Reference: []float64{long, long, long},
	}
	for _, recs := range [][]Recommendation{nil, {rec}, {rec, rec, rec}} {
		views := []wireView{}
		for i, r := range recs {
			views = append(views, wireView{
				Rank: math.MinInt64 + i, Dimension: r.View.Dimension, Measure: r.View.Measure,
				Aggregate: string(r.View.Agg), Utility: r.Utility, Partial: r.Partial,
				Groups: r.Groups, Target: r.Target, Reference: r.Reference,
			})
		}
		b, err := json.Marshal(views)
		if err != nil {
			t.Fatal(err)
		}
		if bound := encodedSizeBound(recs); int64(len(b)) > bound {
			t.Errorf("%d views encode to %d bytes, bound %d", len(recs), len(b), bound)
		}
	}
}
