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
// non-NULL values counted by their appendKey encoding.
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
				keyBuf = v.appendKey(keyBuf[:0])
				distinct[i][string(keyBuf)] = struct{}{}
			}
		}
		return nil
	})
	ts := &TableStats{Rows: t.NumRows(), Columns: make([]ColumnStats, n)}
	for i := range ts.Columns {
		c := schema.Column(i)
		ts.Columns[i] = ColumnStats{Name: c.Name, Type: c.Type, Distinct: len(distinct[i])}
	}
	return ts
}

// countingTable counts the rows its ScanRange visits; onRow, when set,
// runs before each one.
type countingTable struct {
	Table
	visited atomic.Int64
	onRow   func()
}

func (c *countingTable) ScanRange(lo, hi int, cols []int, fn func(RowView) error) error {
	return c.Table.ScanRange(lo, hi, cols, func(row RowView) error {
		c.visited.Add(1)
		if c.onRow != nil {
			c.onRow()
		}
		return fn(row)
	})
}

// registerCounting registers an empty counting table named name.
func registerCounting(t testing.TB, db *DB, name string, layout Layout) *countingTable {
	t.Helper()
	inner := Table(NewRowStore(name, statsTestSchema()))
	if layout == LayoutCol {
		inner = NewColStore(name, statsTestSchema())
	}
	ct := &countingTable{Table: inner}
	if err := db.RegisterTable(ct); err != nil {
		t.Fatal(err)
	}
	return ct
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

// Floats appendKey tells apart although some compare equal (or unequal
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
		if err := tab.AppendRow(row); err != nil {
			t.Fatal(err)
		}
	}
}

// checkStats asserts StatsContext equals the rescan oracle.
func checkStats(t *testing.T, db *DB, name string, tab Table) {
	t.Helper()
	got, err := db.StatsContext(context.Background(), name)
	if err != nil {
		t.Fatal(err)
	}
	if want := computeStats(tab); !reflect.DeepEqual(got, want) {
		t.Fatalf("incremental stats\n %+v\nrescan oracle\n %+v", got, want)
	}
}

// TestStatsIncrementalMatchesRescan: seeded interleavings of append
// batches and StatsContext calls must match a full rescan after every
// call, through cancellations and a drop-and-recreate.
func TestStatsIncrementalMatchesRescan(t *testing.T) {
	for _, layout := range []Layout{LayoutRow, LayoutCol} {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("%v/seed%d", layout, seed), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed))
				db := NewDB()
				ct := registerCounting(t, db, "s", layout)
				checkStats(t, db, "s", ct) // empty
				for step := 0; step < 30; step++ {
					appendStatsRows(t, ct, rng, 1+rng.Intn(300))
					// Zero calls folds two batches into one extension.
					for calls := rng.Intn(3); calls > 0; calls-- {
						checkStats(t, db, "s", ct)
					}
				}

				appendStatsRows(t, ct, rng, 50)
				cancelled, cancel := context.WithCancel(context.Background())
				cancel()
				if _, err := db.StatsContext(cancelled, "s"); err != context.Canceled {
					t.Fatalf("pre-cancelled ctx: err = %v", err)
				}
				checkStats(t, db, "s", ct)

				// Cancel a scan partway through a tail long enough to
				// reach a ctx check; the half-folded tail must not count.
				appendStatsRows(t, ct, rng, checkEvery+500)
				mid, cancel := context.WithCancel(context.Background())
				ct.onRow = cancel
				if _, err := db.StatsContext(mid, "s"); err != context.Canceled {
					t.Fatalf("mid-scan cancel: err = %v", err)
				}
				ct.onRow = nil
				checkStats(t, db, "s", ct)

				if err := db.DropTable("s"); err != nil {
					t.Fatal(err)
				}
				fresh, err := db.CreateTable("s", statsTestSchema(), layout)
				if err != nil {
					t.Fatal(err)
				}
				appendStatsRows(t, fresh, rng, 7)
				checkStats(t, db, "s", fresh)
			})
		}
	}
}

// TestStatsScanOnce: concurrent readers of one version share one scan
// and one snapshot, the next version scans only the appended rows, and
// a published snapshot never changes.
func TestStatsScanOnce(t *testing.T) {
	db := NewDB()
	ct := registerCounting(t, db, "s", LayoutCol)
	rng := rand.New(rand.NewSource(1))
	appendStatsRows(t, ct, rng, 1000)

	const readers = 8
	snaps := make([]*TableStats, readers)
	errs := make([]error, readers)
	var wg sync.WaitGroup
	for i := range snaps {
		wg.Add(1)
		go func() {
			defer wg.Done()
			snaps[i], errs[i] = db.StatsContext(context.Background(), "s")
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
	if v := ct.visited.Load(); v != 1000 {
		t.Fatalf("%d readers visited %d rows in total, want each of 1000 once", readers, v)
	}

	before := snaps[0]
	frozen := &TableStats{Rows: before.Rows, Columns: append([]ColumnStats(nil), before.Columns...)}
	appendStatsRows(t, ct, rng, 100)
	ct.visited.Store(0)
	after, err := db.StatsContext(context.Background(), "s")
	if err != nil {
		t.Fatal(err)
	}
	if v := ct.visited.Load(); v != 100 {
		t.Fatalf("statistics after a 100-row append visited %d rows, want 100", v)
	}
	if !reflect.DeepEqual(before, frozen) {
		t.Fatalf("published snapshot changed: %+v, was %+v", before, frozen)
	}
	if want := computeStats(ct); !reflect.DeepEqual(after, want) {
		t.Fatalf("stats after append %+v, oracle %+v", after, want)
	}
}
