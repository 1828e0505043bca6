package core

import (
	"context"
	"reflect"
	"sync/atomic"
	"testing"

	"seedb/internal/backend"
	"seedb/internal/backend/sqlbe"
	"seedb/internal/cache"
	"seedb/internal/sqldb"
	"seedb/internal/sqldriver"
)

// TestExecTotalsCoverEveryStat replaces the hand-maintained fold lists:
// each backend.ExecStats field, set non-zero on its own, must change
// what ExecTotals.Add records, survive Metrics.Merge, and be cleared by
// resetInvocationCost. A counter added to the record without a fold
// fails here instead of reading zero on every dashboard.
func TestExecTotalsCoverEveryStat(t *testing.T) {
	var base ExecTotals
	base.Add(backend.ExecStats{})
	st := reflect.TypeOf(backend.ExecStats{})
	for i := 0; i < st.NumField(); i++ {
		name := st.Field(i).Name
		var stats backend.ExecStats
		switch f := reflect.ValueOf(&stats).Elem().Field(i); f.Kind() {
		case reflect.Bool:
			f.SetBool(true)
		case reflect.Int, reflect.Int64:
			f.SetInt(7)
		case reflect.String:
			f.SetString("x")
		case reflect.Slice:
			f.Set(reflect.ValueOf([]int{3}))
		default:
			t.Fatalf("ExecStats.%s has kind %v: teach this test to set it", name, f.Kind())
		}
		var one ExecTotals
		one.Add(stats)
		if reflect.DeepEqual(one, base) {
			t.Errorf("ExecStats.%s does not reach ExecTotals.Add", name)
		}
		var m Metrics
		m.Merge(Metrics{ExecTotals: one})
		if !reflect.DeepEqual(m.ExecTotals, one) {
			t.Errorf("ExecStats.%s: Merge into zero = %+v, want %+v", name, m.ExecTotals, one)
		}
		m.resetInvocationCost()
		if !reflect.DeepEqual(m, Metrics{}) {
			t.Errorf("ExecStats.%s: resetInvocationCost left %+v", name, m)
		}
	}
	// And every ExecTotals field is reachable from some execution, so
	// Merge has no line Add can never feed.
	var all ExecTotals
	all.Add(backend.ExecStats{})
	all.Add(backend.ExecStats{RowsScanned: 1, Groups: 1, Vectorized: true, Workers: 1, SelectionKernels: 1,
		ResidualPredicates: 1, ShardFanout: 1, ShardStragglerMax: 1, NetRetries: 1,
		ShardsDegraded: 1, DegradedShards: []int{0}})
	av := reflect.ValueOf(all)
	for i := 0; i < av.NumField(); i++ {
		if av.Field(i).IsZero() {
			t.Errorf("ExecTotals.%s stays zero whatever Add is given", av.Type().Field(i).Name)
		}
	}
}

// countingBackend counts the introspection calls that, through a shard
// router, each fan out to every child.
type countingBackend struct {
	backend.Backend
	infos, stats atomic.Int64
}

func (c *countingBackend) TableInfo(ctx context.Context, table string) (backend.TableInfo, error) {
	c.infos.Add(1)
	return c.Backend.TableInfo(ctx, table)
}

func (c *countingBackend) TableStats(ctx context.Context, table string) (*backend.TableStats, error) {
	c.stats.Add(1)
	return c.Backend.TableStats(ctx, table)
}

// TestRecommendFetchesMetadataOnce: one TableInfo and at most one
// TableStats per Recommend, cold and warm — view enumeration and the
// bin-packer reuse what the engine already fetched, and a warm request
// finds the statistics in the cache.
func TestRecommendFetchesMetadataOnce(t *testing.T) {
	for _, tc := range []struct {
		name      string
		layout    sqldb.Layout
		derive    bool // leave dimensions/measures to table statistics
		wantStats int64
	}{
		// Row layout bin-packs, which needs cardinalities; deriving the
		// view space needs the same statistics.
		{"derived views, bin-packed", sqldb.LayoutRow, true, 1},
		{"listed views, bin-packed", sqldb.LayoutRow, false, 1},
		{"listed views, single group-bys", sqldb.LayoutCol, false, 0},
	} {
		eng, req := buildCensus(t, tc.layout, 600)
		if tc.derive {
			req.Dimensions, req.Measures = nil, nil
		}
		be := &countingBackend{Backend: eng.Backend()}
		eng = NewEngine(be)
		opts := Options{Strategy: Sharing, K: 3, EnableCache: true}
		for _, run := range []string{"cold", "warm"} {
			be.infos.Store(0)
			be.stats.Store(0)
			res, err := eng.Recommend(context.Background(), req, opts)
			if err != nil {
				t.Fatalf("%s, %s: %v", tc.name, run, err)
			}
			if warm := run == "warm"; res.Metrics.ServedFromCache != warm {
				t.Fatalf("%s, %s: served_from_cache = %t", tc.name, run, res.Metrics.ServedFromCache)
			}
			want := tc.wantStats
			if run == "warm" {
				// The t entry answers view derivation; a whole-request
				// hit never reaches the bin-packer.
				want = 0
			}
			if got := be.infos.Load(); got != 1 {
				t.Errorf("%s, %s: %d TableInfo calls, want 1", tc.name, run, got)
			}
			if got := be.stats.Load(); got != want {
				t.Errorf("%s, %s: %d TableStats calls, want %d", tc.name, run, got, want)
			}
		}
	}
}

// TestStatsMemoInvalidatesOnBump: over the database/sql backend, whose
// version advances only on BumpVersion, the engine keeps serving the
// statistics it holds for a version after the store changes underneath,
// and reads fresh ones once the operator signals the change.
func TestStatsMemoInvalidatesOnBump(t *testing.T) {
	db := sqldb.NewDB()
	tab, err := db.CreateTable("sales", sqldb.MustSchema(
		sqldb.Column{Name: "region", Type: sqldb.TypeString},
		sqldb.Column{Name: "qty", Type: sqldb.TypeInt},
		sqldb.Column{Name: "price", Type: sqldb.TypeFloat},
	), sqldb.LayoutCol)
	if err != nil {
		t.Fatal(err)
	}
	appendRow := func(region string, qty int64) {
		if err := tab.Append([][]sqldb.Value{{sqldb.Str(region), sqldb.Int(qty), sqldb.Float(float64(qty) + 0.5)}}); err != nil {
			t.Fatal(err)
		}
	}
	for i, region := range []string{"east", "west", "east", "west"} {
		appendRow(region, int64(i+1))
	}
	sqlBE := sqlbe.New(sqldriver.Open(db), sqlbe.Options{})
	be := &countingBackend{Backend: sqlBE}
	eng := NewEngine(be)
	eng.SetCache(cache.New(0))
	req := Request{Table: "sales", TargetWhere: "qty > 1"}

	// recommend runs one uncached request and returns the statistics the
	// engine holds for the version it read, and how many TableStats
	// calls reached the backend.
	recommend := func() (*backend.TableStats, int64) {
		t.Helper()
		be.stats.Store(0)
		if _, err := eng.Recommend(context.Background(), req, Options{Strategy: Sharing, K: 1}); err != nil {
			t.Fatal(err)
		}
		ti, err := sqlBE.TableInfo(context.Background(), "sales")
		if err != nil {
			t.Fatal(err)
		}
		v, ok := eng.Cache().Get(cache.StatsKey("sales", sqlBE.Name()+"|"+ti.Version, false))
		if !ok {
			t.Fatal("no statistics held for the current version")
		}
		return v.(*backend.TableStats), be.stats.Load()
	}
	regions := func(ts *backend.TableStats) int {
		c, _ := ts.Column("region")
		return c.Distinct
	}

	if ts, calls := recommend(); ts.Rows != 4 || regions(ts) != 2 || calls != 1 {
		t.Fatalf("first request: rows %d, regions %d, %d stats calls", ts.Rows, regions(ts), calls)
	}
	appendRow("north", 9)
	// The held statistics still describe the old version until the
	// operator signals a change...
	if ts, calls := recommend(); ts.Rows != 4 || regions(ts) != 2 || calls != 0 {
		t.Errorf("same version: rows %d, regions %d, %d stats calls; want 4, 2, 0", ts.Rows, regions(ts), calls)
	}
	// ...after which the engine reads fresh ones.
	sqlBE.BumpVersion()
	if ts, calls := recommend(); ts.Rows != 5 || regions(ts) != 3 || calls != 1 {
		t.Errorf("after bump: rows %d, regions %d, %d stats calls; want 5, 3, 1", ts.Rows, regions(ts), calls)
	}
}
