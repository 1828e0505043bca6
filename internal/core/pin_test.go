package core

import (
	"context"
	"reflect"
	"sync"
	"testing"

	"seedb/internal/backend"
	"seedb/internal/backend/shardbe"
	"seedb/internal/sqldb"
)

// pinTable creates table t (d1, d2 TEXT, m FLOAT) holding rows rows.
func pinTable(t *testing.T, db *sqldb.DB, rows int) sqldb.Table {
	t.Helper()
	tab, err := db.CreateTable("t", sqldb.MustSchema(
		sqldb.Column{Name: "d1", Type: sqldb.TypeString},
		sqldb.Column{Name: "d2", Type: sqldb.TypeString},
		sqldb.Column{Name: "m", Type: sqldb.TypeFloat},
	), sqldb.LayoutCol)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < rows; i++ {
		row := []sqldb.Value{sqldb.Str([]string{"a", "b"}[i%2]), sqldb.Str([]string{"x", "y", "z"}[i%3]), sqldb.Float(float64(i%7 + 1))}
		if err := tab.AppendRow(row); err != nil {
			t.Fatal(err)
		}
	}
	return tab
}

// appendAfterFirstExec appends one row to its table as soon as the
// first Exec of the request returns.
type appendAfterFirstExec struct {
	backend.Backend
	once   sync.Once
	append func()
}

func (b *appendAfterFirstExec) Exec(ctx context.Context, query string, opts backend.ExecOptions) (*backend.Rows, backend.ExecStats, error) {
	rows, stats, err := b.Backend.Exec(ctx, query, opts)
	b.once.Do(b.append)
	return rows, stats, err
}

// TestSharingRequestReadsOnePinnedState: a single-pass request whose
// Execs straddle an append answers over exactly the rows its TableInfo
// pinned — the same answer as a cache-off run over a table that never
// held the appended row.
func TestSharingRequestReadsOnePinnedState(t *testing.T) {
	req := Request{Table: "t", TargetWhere: "m > 3", Dimensions: []string{"d1", "d2"}, Measures: []string{"m"}, Aggs: []AggFunc{AggCount, AggSum}}
	base := Options{Strategy: Sharing, Pruning: NoPruning, K: 4, Parallelism: 1, GroupBy: GroupBySingle, KeepAllViews: true}
	ctx := context.Background()

	refDB := sqldb.NewDB()
	pinTable(t, refDB, 200)
	want, err := NewEngine(backend.NewEmbedded(refDB)).Recommend(ctx, req, base)
	if err != nil {
		t.Fatal(err)
	}

	for _, cached := range []bool{false, true} {
		db := sqldb.NewDB()
		tab := pinTable(t, db, 200)
		be := &appendAfterFirstExec{Backend: backend.NewEmbedded(db), append: func() {
			if err := tab.AppendRow([]sqldb.Value{sqldb.Str("a"), sqldb.Str("fresh"), sqldb.Float(5)}); err != nil {
				t.Error(err)
			}
		}}
		opts := base
		opts.EnableCache = cached
		got, err := NewEngine(be).Recommend(ctx, req, opts)
		if err != nil {
			t.Fatal(err)
		}
		if tab.NumRows() != 201 || got.Metrics.QueriesExecuted < 2 {
			t.Fatalf("cache=%t: fixture did not straddle: %d rows, %d queries", cached, tab.NumRows(), got.Metrics.QueriesExecuted)
		}
		if !reflect.DeepEqual(got.AllViews, want.AllViews) {
			for i := range got.AllViews {
				t.Logf("got  %v %v %v", got.AllViews[i].View, got.AllViews[i].Groups, got.AllViews[i].ReferenceAgg)
			}
			t.Fatalf("cache=%t: the answer mixes table states; want the 200 pinned rows only", cached)
		}
	}
}

// recordingBackend records the row range of every Exec it forwards.
type recordingBackend struct {
	backend.Backend
	mu  sync.Mutex
	his []int
}

func (b *recordingBackend) Exec(ctx context.Context, query string, opts backend.ExecOptions) (*backend.Rows, backend.ExecStats, error) {
	b.mu.Lock()
	b.his = append(b.his, opts.Hi)
	b.mu.Unlock()
	return b.Backend.Exec(ctx, query, opts)
}

// TestEveryExecCarriesThePinnedBound: on backends that can bound their
// scans — the embedded store and the shard router — every Exec the
// engine issues carries Hi > 0, at most the pinned row count, whatever
// the strategy.
func TestEveryExecCarriesThePinnedBound(t *testing.T) {
	const rows = 300
	db := sqldb.NewDB()
	pinTable(t, db, rows)
	dbs, children := shardbe.EmbeddedChildren(3)
	if err := shardbe.ScatterTable(db, "t", dbs, shardbe.Blocks{Total: rows}); err != nil {
		t.Fatal(err)
	}
	router, err := shardbe.New(children, shardbe.Options{})
	if err != nil {
		t.Fatal(err)
	}
	req := Request{Table: "t", TargetWhere: "m > 3"}
	for name, be := range map[string]backend.Backend{"embedded": backend.NewEmbedded(db), "router": router} {
		for _, s := range []Strategy{NoOpt, Sharing, Comb, CombEarly} {
			rec := &recordingBackend{Backend: be}
			opts := Options{Strategy: s, Pruning: CIPruning, K: 2, Phases: 4}
			if _, err := NewEngine(rec).Recommend(context.Background(), req, opts); err != nil {
				t.Fatal(err)
			}
			if len(rec.his) == 0 {
				t.Fatalf("%s/%v: no Exec recorded", name, s)
			}
			for _, hi := range rec.his {
				if hi <= 0 || hi > rows {
					t.Errorf("%s/%v: Exec with Hi %d, want 0 < Hi <= %d", name, s, hi, rows)
				}
			}
		}
	}
}
