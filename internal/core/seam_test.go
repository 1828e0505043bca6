package core

import (
	"context"
	"reflect"
	"sync/atomic"
	"testing"

	"seedb/internal/backend"
	"seedb/internal/sqldb"
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
// bin-packer reuse what the engine already fetched.
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
			if run == "warm" && !tc.derive {
				want = 0 // a whole-request hit never reaches the bin-packer
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
