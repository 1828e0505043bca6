package shardbe

import (
	"context"
	"errors"
	"strings"
	"testing"

	"seedb/internal/backend"
	"seedb/internal/sqldb"
)

// buildSource creates a small source table with NULLs in both a
// dimension and a measure.
func buildSource(t *testing.T, rows int) *sqldb.DB {
	t.Helper()
	db := sqldb.NewDB()
	schema := sqldb.MustSchema(
		sqldb.Column{Name: "region", Type: sqldb.TypeString},
		sqldb.Column{Name: "qty", Type: sqldb.TypeInt},
		sqldb.Column{Name: "price", Type: sqldb.TypeFloat},
	)
	tab, err := db.CreateTable("sales", schema, sqldb.LayoutCol)
	if err != nil {
		t.Fatal(err)
	}
	regions := []string{"east", "west", "north"}
	for i := 0; i < rows; i++ {
		region := sqldb.Str(regions[i%len(regions)])
		if i%11 == 0 {
			region = sqldb.Null()
		}
		price := sqldb.Float(float64(i%40) * 0.25)
		if i%7 == 0 {
			price = sqldb.Null()
		}
		if err := tab.Append([][]sqldb.Value{{region, sqldb.Int(int64(i % 5)), price}}); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

// salesChildren block-partitions a 90-row sales table across n embedded
// children.
func salesChildren(t *testing.T, n int) []backend.Backend {
	t.Helper()
	src := buildSource(t, 90)
	dbs, bes := EmbeddedChildren(n)
	tab, _ := src.Table("sales")
	if err := ScatterTable(src, "sales", dbs, Blocks{Total: tab.NumRows()}); err != nil {
		t.Fatal(err)
	}
	return bes
}

// newRouter scatters the source across n embedded children contiguously.
func newRouter(t *testing.T, src *sqldb.DB, n int) (*Router, []*sqldb.DB) {
	t.Helper()
	dbs, bes := EmbeddedChildren(n)
	tab, _ := src.Table("sales")
	if err := ScatterTable(src, "sales", dbs, Blocks{Total: tab.NumRows()}); err != nil {
		t.Fatal(err)
	}
	r, err := New(bes, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return r, dbs
}

func TestIntrospection(t *testing.T) {
	src := buildSource(t, 90)
	r, _ := newRouter(t, src, 3)
	ctx := context.Background()

	if r.Name() != "shard" {
		t.Errorf("Name = %q", r.Name())
	}
	caps := r.Capabilities()
	if !caps.SupportsPhasedExecution {
		t.Errorf("embedded children should keep full capabilities, got %+v", caps)
	}

	ti, err := r.TableInfo(ctx, "sales")
	if err != nil {
		t.Fatal(err)
	}
	if ti.Rows != 90 || len(ti.Columns) != 3 || ti.Layout != backend.LayoutCol {
		t.Errorf("TableInfo = %+v", ti)
	}
	if _, err := r.TableInfo(ctx, "nope"); !errors.Is(err, backend.ErrNoTable) {
		t.Errorf("missing table error = %v, want ErrNoTable", err)
	}

	// Stats must match the unsharded exact statistics (distinct counts
	// union across shards, not sum).
	want, err := src.StatsContext(ctx, "sales")
	if err != nil {
		t.Fatal(err)
	}
	got, err := r.TableStats(ctx, "sales")
	if err != nil {
		t.Fatal(err)
	}
	if got.Rows != want.Rows {
		t.Errorf("stats rows = %d, want %d", got.Rows, want.Rows)
	}
	for _, wc := range want.Columns {
		gc, ok := got.Column(wc.Name)
		if !ok || gc.Distinct != wc.Distinct {
			t.Errorf("column %s distinct = %d (ok=%v), want %d", wc.Name, gc.Distinct, ok, wc.Distinct)
		}
	}
}

func TestVersionVectorInvalidation(t *testing.T) {
	src := buildSource(t, 30)
	r, _ := newRouter(t, src, 2)
	ctx := context.Background()

	v1, ok := r.TableVersion(ctx, "sales")
	if !ok || v1 == "" {
		t.Fatalf("version = %q, ok=%v", v1, ok)
	}
	// An append to the source lands in the last child's view and must
	// change the vector.
	tab, _ := src.Table("sales")
	if err := tab.Append([][]sqldb.Value{{sqldb.Str("east"), sqldb.Int(1), sqldb.Null()}}); err != nil {
		t.Fatal(err)
	}
	v2, ok := r.TableVersion(ctx, "sales")
	if !ok || v2 == v1 {
		t.Errorf("version unchanged after a source append: %q", v2)
	}

	// A cancelled context reports the table absent, per the contract.
	cctx, cancel := context.WithCancel(ctx)
	cancel()
	if _, ok := r.TableVersion(cctx, "sales"); ok {
		t.Error("TableVersion with cancelled ctx should report absent")
	}
}

func TestExecMergesAndRanges(t *testing.T) {
	src := buildSource(t, 100)
	r, _ := newRouter(t, src, 3)
	ctx := context.Background()

	cases := []struct {
		sql    string
		lo, hi int
	}{
		{"SELECT region, COUNT(*), SUM(price), AVG(price), MIN(qty), MAX(qty) FROM sales GROUP BY region", 0, 0},
		{"SELECT COUNT(DISTINCT region), COUNT(*) FROM sales", 0, 0},
		{"SELECT qty, AVG(price) FROM sales GROUP BY qty HAVING COUNT(*) > 5 ORDER BY 2 DESC LIMIT 3", 0, 0},
		{"SELECT region, qty FROM sales WHERE price IS NOT NULL ORDER BY qty DESC, region LIMIT 7", 0, 0},
		{"SELECT region, SUM(qty) FROM sales GROUP BY region", 13, 61}, // sub-range straddling shard boundaries
		{"SELECT COUNT(*) FROM sales", 40, 40},                         // empty range
		{"SELECT COUNT(*) FROM sales WHERE qty > 100", 0, 0},           // zero matching rows
	}
	for _, tc := range cases {
		want, err := src.QueryOpts(tc.sql, sqldb.ExecOptions{Lo: tc.lo, Hi: tc.hi})
		if err != nil {
			t.Fatalf("%s: unsharded: %v", tc.sql, err)
		}
		rows, stats, err := r.Exec(ctx, tc.sql, backend.ExecOptions{Lo: tc.lo, Hi: tc.hi})
		if err != nil {
			t.Fatalf("%s: sharded: %v", tc.sql, err)
		}
		if len(rows.Rows) != len(want.Rows) {
			t.Fatalf("%s: %d rows, want %d", tc.sql, len(rows.Rows), len(want.Rows))
		}
		for i := range want.Rows {
			for j := range want.Rows[i] {
				if rows.Rows[i][j].String() != want.Rows[i][j].String() || rows.Rows[i][j].Kind != want.Rows[i][j].Kind {
					t.Errorf("%s: row %d col %d = %s, want %s", tc.sql, i, j, rows.Rows[i][j], want.Rows[i][j])
				}
			}
		}
		if stats.RowsScanned != want.Stats.RowsScanned {
			t.Errorf("%s: RowsScanned = %d, want %d", tc.sql, stats.RowsScanned, want.Stats.RowsScanned)
		}
		if stats.Groups != want.Stats.Groups {
			t.Errorf("%s: Groups = %d, want %d", tc.sql, stats.Groups, want.Stats.Groups)
		}
	}
}

func TestExecShardStats(t *testing.T) {
	src := buildSource(t, 60)
	r, _ := newRouter(t, src, 4)
	_, stats, err := r.Exec(context.Background(), "SELECT region, COUNT(*) FROM sales GROUP BY region", backend.ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if stats.ShardFanout != 4 {
		t.Errorf("ShardFanout = %d, want 4", stats.ShardFanout)
	}
	if stats.ShardStragglerMax <= 0 {
		t.Errorf("ShardStragglerMax = %v, want > 0", stats.ShardStragglerMax)
	}
}

func TestEmptyTable(t *testing.T) {
	src := buildSource(t, 0)
	r, _ := newRouter(t, src, 3)
	rows, stats, err := r.Exec(context.Background(), "SELECT COUNT(*), SUM(price) FROM sales", backend.ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows.Rows) != 1 || rows.Rows[0][0].I != 0 || !rows.Rows[0][1].IsNull() {
		t.Errorf("empty-table global aggregate = %+v", rows.Rows)
	}
	if stats.ShardFanout != 0 || stats.Groups != 0 {
		t.Errorf("empty-table stats = %+v", stats)
	}
	ts, err := r.TableStats(context.Background(), "sales")
	if err != nil {
		t.Fatal(err)
	}
	if c, ok := ts.Column("region"); ts.Rows != 0 || !ok || c.Distinct != 0 {
		t.Errorf("empty-table TableStats = %+v", ts)
	}
}

func TestPartialPresenceIsAnError(t *testing.T) {
	src := buildSource(t, 20)
	r, dbs := newRouter(t, src, 2)
	if err := dbs[1].DropTable("sales"); err != nil {
		t.Fatal(err)
	}
	_, err := r.TableInfo(context.Background(), "sales")
	if err == nil || errors.Is(err, backend.ErrNoTable) {
		t.Errorf("partially present table should be a distinct error, got %v", err)
	}
	if !strings.Contains(err.Error(), "only") {
		t.Errorf("error should describe partial presence: %v", err)
	}
}

func TestCancellationAbortsFanout(t *testing.T) {
	src := buildSource(t, 5000)
	r, _ := newRouter(t, src, 2)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := r.Exec(ctx, "SELECT region, COUNT(*) FROM sales GROUP BY region", backend.ExecOptions{}); err == nil {
		t.Error("cancelled ctx should fail Exec")
	}
}

// TestPartitioners pins the block partitioner ScatterTable loads with:
// monotone in the sequence number and spanning every shard.
func TestPartitioners(t *testing.T) {
	b := Blocks{Total: 10}
	prev := 0
	for seq := 0; seq < 10; seq++ {
		s := b.shard(seq, 4)
		if s < prev || s > 3 {
			t.Errorf("Blocks(%d) = %d (prev %d)", seq, s, prev)
		}
		prev = s
	}
	if b.shard(9, 4) != 3 {
		t.Errorf("Blocks should reach the last shard")
	}
}

// failingBackend wraps a child and fails every Exec, for fan-out error
// propagation tests.
type failingBackend struct {
	backend.Backend
}

func (f failingBackend) Exec(context.Context, string, backend.ExecOptions) (*backend.Rows, backend.ExecStats, error) {
	return nil, backend.ExecStats{}, errors.New("disk on fire")
}

// TestFanoutReportsRootCause checks that when one shard fails and the
// cancellation aborts the innocent shards, the returned error is the
// real failure, not a bystander's "context canceled".
func TestFanoutReportsRootCause(t *testing.T) {
	src := buildSource(t, 40000)
	dbs, bes := EmbeddedChildren(2)
	tab, _ := src.Table("sales")
	if err := ScatterTable(src, "sales", dbs, Blocks{Total: tab.NumRows()}); err != nil {
		t.Fatal(err)
	}
	// Shard 1 fails instantly; shard 0 has a long scan the cancellation
	// should abort.
	bes[1] = failingBackend{bes[1]}
	r, err := New(bes, Options{})
	if err != nil {
		t.Fatal(err)
	}
	_, _, err = r.Exec(context.Background(), "SELECT region, COUNT(*) FROM sales GROUP BY region", backend.ExecOptions{})
	if err == nil || !strings.Contains(err.Error(), "disk on fire") {
		t.Errorf("error = %v, want the failing shard's root cause", err)
	}
	if err != nil && !strings.Contains(err.Error(), "shard 1") {
		t.Errorf("error should name the failing shard: %v", err)
	}
}
