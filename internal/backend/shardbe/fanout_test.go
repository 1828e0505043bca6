package shardbe

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"seedb/internal/backend"
	"seedb/internal/backend/faultbe"
	"seedb/internal/core"
	"seedb/internal/sqldb"
)

// panicky is a child whose Exec panics, modelling a backend bug.
type panicky struct{ backend.Backend }

func (panicky) Exec(context.Context, string, backend.ExecOptions) (*backend.Rows, backend.ExecStats, error) {
	panic("child bug")
}

// TestChildPanicIsAnError: a child whose Exec panics fails the call with
// an error naming the panic on every path that executes a child — the
// fan-out and TableStats' distinct scans — and an engine recommending over the router gets that error back. Neither
// path runs under a recover of the caller's, so an uncontained panic
// would take the process down.
func TestChildPanicIsAnError(t *testing.T) {
	bes := salesChildren(t, 3)
	bes[1] = panicky{bes[1]}
	ctx := context.Background()
	const want = "child panicked: child bug"
	r, err := New(bes, Options{})
	if err != nil {
		t.Fatal(err)
	}
	_, _, err = r.Exec(ctx, "SELECT region, COUNT(*) FROM sales GROUP BY region", backend.ExecOptions{})
	if err == nil || !strings.Contains(err.Error(), want) || !strings.Contains(err.Error(), "shard 1") {
		t.Errorf("Exec error = %v, want shard 1's %q", err, want)
	}
	if _, err := r.TableStats(ctx, "sales"); err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("TableStats error = %v, want %q", err, want)
	}
	// Explicit dimensions and measures on a column store need no
	// statistics, so the request reaches the fan-out.
	_, err = core.NewEngine(r).Recommend(ctx,
		core.Request{Table: "sales", TargetWhere: "region = 'east'", Dimensions: []string{"region"}, Measures: []string{"price"}},
		core.Options{Strategy: core.Sharing})
	if err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("Recommend error = %v, want %q", err, want)
	}
}

// routerOwned lists the ExecStats fields a router sets itself instead of
// folding them from its children, each with the reason.
var routerOwned = map[string]string{
	"Groups":            "the merged result's group count; Exec takes it from the merge",
	"ShardFanout":       "counts this router's own child executions",
	"ShardStragglerMax": "the slowest child as this router timed it, which includes any nested straggler",
	"DegradedShards":    "indexes this router's children; a child's own list indexes the child's children",
}

// TestFoldDecidesEveryStat holds foldStats to one decision per ExecStats
// field: set non-zero on a child's stats, each field must either change
// the router's folded stats or be listed in routerOwned with a reason,
// never both. A field added to ExecStats without a decision fails here
// instead of silently reading zero above every router.
func TestFoldDecidesEveryStat(t *testing.T) {
	fold := func(c backend.ExecStats) backend.ExecStats {
		return foldStats([]childTask{{child: 0}}, []childRun{{stats: c}}, make([]bool, 1))
	}
	base := fold(backend.ExecStats{})
	st := reflect.TypeOf(backend.ExecStats{})
	for i := 0; i < st.NumField(); i++ {
		name := st.Field(i).Name
		var c backend.ExecStats
		switch f := reflect.ValueOf(&c).Elem().Field(i); f.Kind() {
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
		folded := !reflect.DeepEqual(fold(c), base)
		reason, owned := routerOwned[name]
		switch {
		case folded && owned:
			t.Errorf("ExecStats.%s is folded from the children but listed as router-owned (%s)", name, reason)
		case !folded && !owned:
			t.Errorf("ExecStats.%s is neither folded by foldStats nor listed in routerOwned: decide which", name)
		}
	}
	for name := range routerOwned {
		if _, ok := st.FieldByName(name); !ok {
			t.Errorf("routerOwned lists %s, which ExecStats does not have", name)
		}
	}

	// A child that answered over part of its own shards leaves the
	// router's result degraded, listing the child by its index here.
	got := fold(backend.ExecStats{ShardsDegraded: 2, DegradedShards: []int{1, 3}})
	if got.ShardsDegraded != 2 || !reflect.DeepEqual(got.DegradedShards, []int{0}) {
		t.Errorf("degraded child folds to %d %v, want 2 [0]", got.ShardsDegraded, got.DegradedShards)
	}
}

// TestNestedDegradedChildDegradesRouter runs a router whose child 0 is
// itself a router with one hard-down child. Under the opt-in the inner
// router answers over its survivor, and the outer result must say so:
// the result cache refuses degraded results by ShardsDegraded alone, so
// a degraded part reported as complete would be cached past the outage.
func TestNestedDegradedChildDegradesRouter(t *testing.T) {
	const rows = 90
	src := buildSource(t, rows)
	dbs, bes := EmbeddedChildren(3)
	if err := ScatterTable(src, "sales", dbs, Blocks{Total: rows}); err != nil {
		t.Fatal(err)
	}
	down := faultbe.Wrap(bes[0])
	down.SetDown(backend.ErrUnavailable)
	inner, err := New([]backend.Backend{down, bes[1]}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	outer, err := New([]backend.Backend{inner, bes[2]}, Options{})
	if err != nil {
		t.Fatal(err)
	}

	const sql = "SELECT region, COUNT(*), SUM(price) FROM sales GROUP BY region"
	got, stats, err := outer.Exec(backend.WithAllowPartial(context.Background()), sql, backend.ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if stats.ShardsDegraded != 1 || !reflect.DeepEqual(stats.DegradedShards, []int{0}) {
		t.Errorf("outer degraded stats = %d %v, want 1 [0]", stats.ShardsDegraded, stats.DegradedShards)
	}
	// Shard 0 of the inner router holds rows [0, 30).
	want, err := src.QueryOpts(sql, sqldb.ExecOptions{Lo: rows / 3, Hi: rows})
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Rows) != len(want.Rows) {
		t.Fatalf("%d rows, want %d", len(got.Rows), len(want.Rows))
	}
	for i := range want.Rows {
		for j := range want.Rows[i] {
			if got.Rows[i][j].String() != want.Rows[i][j].String() {
				t.Errorf("row %d col %d = %s, want %s", i, j, got.Rows[i][j], want.Rows[i][j])
			}
		}
	}
}
