package sqldb

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
)

// computeStats is the full-rescan statistics path StatsContext replaced,
// kept as the oracle: one scan of every row, each column's distinct
// non-NULL values counted by their AppendKey encoding — except a FLOAT
// column's, which is the row count (ColumnStats.Distinct).
func computeStats(t Table) *TableStats {
	schema := t.Schema()
	n := schema.NumColumns()
	distinct := make([]map[string]struct{}, n)
	for i := range distinct {
		distinct[i] = make(map[string]struct{})
	}
	var keyBuf []byte
	_ = t.ScanRange(0, t.NumRows(), nil, func(row RowView) error {
		for i := 0; i < n; i++ {
			if v := row.Value(i); !v.IsNull() {
				keyBuf = v.AppendKey(keyBuf[:0])
				distinct[i][string(keyBuf)] = struct{}{}
			}
		}
		return nil
	})
	ts := &TableStats{Rows: t.NumRows(), Columns: make([]ColumnStats, n)}
	for i := range ts.Columns {
		c := schema.Column(i)
		ts.Columns[i] = ColumnStats{Name: c.Name, Type: c.Type, Distinct: len(distinct[i])}
		if c.Type == TypeFloat {
			ts.Columns[i].Distinct = ts.Rows
		}
	}
	return ts
}

// checkCtx is a context that counts its Err checks, which is how the
// tests see how much a statistics fold did: StatsContext checks once on
// entry, and a fold once per checkEvery-row block (foldChecks). From
// check number fail on (fail > 0), Err reports context.Canceled.
type checkCtx struct {
	context.Context
	checks atomic.Int64
	fail   int64
}

func newCheckCtx(fail int64) *checkCtx {
	return &checkCtx{Context: context.Background(), fail: fail}
}

func (c *checkCtx) Err() error {
	if n := c.checks.Add(1); c.fail > 0 && n >= c.fail {
		return context.Canceled
	}
	return nil
}

// foldChecks is how many ctx checks folding rows appended rows into the
// statistics makes: the row store's scan checks after every checkEvery
// rows, the column fold before every checkEvery-row block of every
// folded column, which is every column but the FLOAT one. Blocks start
// at the first unfolded row, so a fold that reread the table from row 0
// would check more often, and one that folded the FLOAT column too.
func foldChecks(layout Layout, rows int) int64 {
	if layout == LayoutRow {
		return int64(rows / checkEvery)
	}
	blocks := (rows + checkEvery - 1) / checkEvery
	return int64((statsTestSchema().NumColumns() - 1) * blocks)
}

// statsTestSchema: a TEXT column whose only "" would be the ColStore's
// NULL code, a TEXT column with real "" values, and NULL-heavy INT, BOOL
// and FLOAT columns.
func statsTestSchema() *Schema {
	return MustSchema(
		Column{Name: "t", Type: TypeString},
		Column{Name: "e", Type: TypeString},
		Column{Name: "i", Type: TypeInt},
		Column{Name: "b", Type: TypeBool},
		Column{Name: "f", Type: TypeFloat},
	)
}

// Floats AppendKey tells apart although some compare equal (or unequal
// to themselves): signed zeros, two NaN payloads, the infinities.
var specialFloats = []float64{
	math.Copysign(0, -1), 0,
	math.Float64frombits(0x7ff8000000000001), math.Float64frombits(0x7ff8000000000002),
	math.Inf(1), math.Inf(-1),
}

func appendStatsRows(t testing.TB, tab Table, rng *rand.Rand, n int) {
	t.Helper()
	pick := func(nullRate float64, v func() Value) Value {
		if rng.Float64() < nullRate {
			return Null()
		}
		return v()
	}
	for r := 0; r < n; r++ {
		row := []Value{
			pick(0.6, func() Value { return Str(fmt.Sprintf("v%d", rng.Intn(40))) }),
			pick(0.2, func() Value { return Str([]string{"", "a", "b", "c"}[rng.Intn(4)]) }),
			pick(0.5, func() Value {
				if rng.Intn(10) == 0 {
					return Int(rng.Int63() - 1<<62)
				}
				return Int(int64(rng.Intn(200) - 100))
			}),
			pick(0.3, func() Value { return Bool(rng.Intn(2) == 0) }),
			pick(0.3, func() Value {
				if rng.Intn(4) == 0 {
					return Float(specialFloats[rng.Intn(len(specialFloats))])
				}
				return Float(float64(rng.Intn(1000)) / 8)
			}),
		}
		if err := tab.Append([][]Value{row}); err != nil {
			t.Fatal(err)
		}
	}
}

// checkStats asserts StatsContext equals the rescan oracle, that it
// folded only the appended rows — its ctx checks are the entry check
// plus foldChecks(appended) — and that the FLOAT column kept no set.
func checkStats(t *testing.T, db *DB, name string, tab Table, appended int) {
	t.Helper()
	ctx := newCheckCtx(0)
	got, err := db.StatsContext(ctx, name)
	if err != nil {
		t.Fatal(err)
	}
	if want := computeStats(tab); !reflect.DeepEqual(got, want) {
		t.Fatalf("incremental stats\n %+v\nrescan oracle\n %+v", got, want)
	}
	if got, want := ctx.checks.Load(), 1+foldChecks(tab.Layout(), appended); got != want {
		t.Fatalf("folding %d appended rows made %d ctx checks, want %d", appended, got, want)
	}
	if fi, _ := tab.Schema().Lookup("f"); !reflect.DeepEqual(db.stats[name].sets[fi], distinctSet{}) {
		t.Fatalf("the FLOAT column f retains a set of %d values after a fold", db.stats[name].sets[fi].len())
	}
}

// TestStatsIncrementalMatchesRescan: seeded interleavings of append
// batches and StatsContext calls must match a full rescan after every
// call and fold only the rows appended since the last one, through
// cancellations and a drop-and-recreate. The tables are the stores
// themselves, so the COL cases run the column fold.
func TestStatsIncrementalMatchesRescan(t *testing.T) {
	for _, layout := range []Layout{LayoutRow, LayoutCol} {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("%v/seed%d", layout, seed), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed))
				db := NewDB()
				tab, err := db.CreateTable("s", statsTestSchema(), layout)
				if err != nil {
					t.Fatal(err)
				}
				checkStats(t, db, "s", tab, 0) // empty
				pending := 0
				for step := 0; step < 30; step++ {
					n := 1 + rng.Intn(300)
					appendStatsRows(t, tab, rng, n)
					pending += n
					// Zero calls folds two batches into one extension.
					for calls := rng.Intn(3); calls > 0; calls-- {
						checkStats(t, db, "s", tab, pending)
						pending = 0
					}
				}

				appendStatsRows(t, tab, rng, 50)
				pending += 50
				cancelled, cancel := context.WithCancel(context.Background())
				cancel()
				if _, err := db.StatsContext(cancelled, "s"); err != context.Canceled {
					t.Fatalf("pre-cancelled ctx: err = %v", err)
				}
				checkStats(t, db, "s", tab, pending)

				// Cancel a fold partway through a tail long enough to
				// reach a ctx check inside the fold — the row scan's
				// first, or the column fold's before the third folded
				// column, two in. The half-folded tail must not count: the
				// published snapshot stays the one before it.
				const tail = checkEvery + 500
				appendStatsRows(t, tab, rng, tail)
				st := db.stats["s"]
				before := st.snap
				mid := newCheckCtx(1 + foldChecks(layout, tail)/2 + 1)
				if _, err := db.StatsContext(mid, "s"); err != context.Canceled {
					t.Fatalf("mid-fold cancel: err = %v", err)
				}
				if got := mid.checks.Load(); got != mid.fail {
					t.Fatalf("mid-fold cancel made %d ctx checks, want it to stop at check %d", got, mid.fail)
				}
				if st.snap != before || st.snap.Rows != tab.NumRows()-tail {
					t.Fatalf("a cancelled fold published %+v, want the earlier %+v", st.snap, before)
				}
				checkStats(t, db, "s", tab, tail)

				if err := db.DropTable("s"); err != nil {
					t.Fatal(err)
				}
				fresh, err := db.CreateTable("s", statsTestSchema(), layout)
				if err != nil {
					t.Fatal(err)
				}
				appendStatsRows(t, fresh, rng, 7)
				checkStats(t, db, "s", fresh, 7)
			})
		}
	}
}

// TestStatsScanOnce: concurrent readers of one version share one fold
// and one snapshot, the next version folds only the appended rows, and
// a published snapshot never changes. The table spans three ctx-check
// blocks and the append one, so a fold of the whole table shows.
func TestStatsScanOnce(t *testing.T) {
	const base = 2*checkEvery + 300
	for _, layout := range []Layout{LayoutRow, LayoutCol} {
		t.Run(layout.String(), func(t *testing.T) {
			db := NewDB()
			tab, err := db.CreateTable("s", statsTestSchema(), layout)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(1))
			appendStatsRows(t, tab, rng, base)

			const readers = 8
			ctx := newCheckCtx(0) // shared: counts every reader's checks
			snaps := make([]*TableStats, readers)
			errs := make([]error, readers)
			var wg sync.WaitGroup
			for i := range snaps {
				wg.Add(1)
				go func() {
					defer wg.Done()
					snaps[i], errs[i] = db.StatsContext(ctx, "s")
				}()
			}
			wg.Wait()
			for i := range snaps {
				if errs[i] != nil {
					t.Fatal(errs[i])
				}
				if snaps[i] != snaps[0] {
					t.Fatalf("reader %d got a different snapshot", i)
				}
			}
			if got, want := ctx.checks.Load(), readers+foldChecks(layout, base); got != want {
				t.Fatalf("%d readers made %d ctx checks, want %d: one fold of %d rows", readers, got, want, base)
			}

			before := snaps[0]
			frozen := &TableStats{Rows: before.Rows, Columns: append([]ColumnStats(nil), before.Columns...)}
			appendStatsRows(t, tab, rng, 100)
			checkStats(t, db, "s", tab, 100)
			if !reflect.DeepEqual(before, frozen) {
				t.Fatalf("published snapshot changed: %+v, was %+v", before, frozen)
			}
		})
	}
}
