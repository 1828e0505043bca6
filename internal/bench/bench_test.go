package bench

import (
	"context"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"seedb/internal/dataset"
	"seedb/internal/sqldb"
)

// tinyConfig keeps experiment smoke tests fast.
func tinyConfig() Config {
	return Config{Quick: true, Runs: 2, Seed: 42}
}

// runExperiment executes one experiment and sanity-checks its tables.
func runExperiment(t *testing.T, id string) []*Table {
	t.Helper()
	exp, err := ByID(id)
	if err != nil {
		t.Fatal(err)
	}
	tables, err := exp.Run(context.Background(), tinyConfig())
	if err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	if len(tables) == 0 {
		t.Fatalf("%s: no tables", id)
	}
	for _, tab := range tables {
		if tab.ID == "" || tab.Title == "" || len(tab.Header) == 0 || len(tab.Rows) == 0 {
			t.Errorf("%s: incomplete table %+v", id, tab)
		}
		out := tab.String()
		if !strings.Contains(out, tab.ID) {
			t.Errorf("%s: rendering missing ID", id)
		}
		for _, row := range tab.Rows {
			if len(row) != len(tab.Header) {
				t.Errorf("%s/%s: row width %d != header %d", id, tab.ID, len(row), len(tab.Header))
			}
		}
	}
	return tables
}

func TestAllExperimentsRegistered(t *testing.T) {
	// The paper's evaluation (Table 1, Figures 5-13 and 15, Table 2)
	// plus the ablations, in paper order.
	want := []string{"table1", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10",
		"fig11", "fig12", "fig13", "fig15", "table2", "ablations"}
	var got []string
	for _, e := range All() {
		got = append(got, e.ID)
		if e.Run == nil || e.Name == "" {
			t.Errorf("experiment %s incomplete", e.ID)
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("registered experiments = %v, want %v", got, want)
	}
	if _, err := ByID("nope"); err == nil {
		t.Error("unknown experiment should fail")
	}
}

func TestTable1Inventory(t *testing.T) {
	tables := runExperiment(t, "table1")
	tab := tables[0]
	if len(tab.Rows) != 10 {
		t.Errorf("Table 1 rows = %d, want 10 datasets", len(tab.Rows))
	}
	// The view counts must match Table 1 of the paper.
	wantViews := map[string]string{
		"bank": "77", "diab": "88", "air": "108", "air10": "108",
		"census": "40", "housing": "40", "movies": "64", "syn": "1000",
	}
	for _, row := range tab.Rows {
		if want, ok := wantViews[row[0]]; ok && row[6] != want {
			t.Errorf("%s views = %s, want %s", row[0], row[6], want)
		}
	}
}

// intCol returns the named column of tab as integers, one per row.
func intCol(t *testing.T, tab *Table, name string) []int64 {
	t.Helper()
	for ci, h := range tab.Header {
		if h != name {
			continue
		}
		out := make([]int64, len(tab.Rows))
		for ri, row := range tab.Rows {
			v, err := strconv.ParseInt(row[ci], 10, 64)
			if err != nil {
				t.Fatalf("%s row %d: column %s = %q is not an integer", tab.ID, ri, name, row[ci])
			}
			out[ri] = v
		}
		return out
	}
	t.Fatalf("%s has no column %s (header %v)", tab.ID, name, tab.Header)
	return nil
}

// TestFigure5ShapeHolds checks Figure 5's ordering on the work each
// strategy does, which is what its latency ordering follows from:
// sharing collapses the per-view queries, pruning then cuts the rows
// those queries visit, and early return cuts them further. The latency
// columns are reported and never compared.
func TestFigure5ShapeHolds(t *testing.T) {
	if testing.Short() {
		t.Skip("macro experiment")
	}
	tables := runExperiment(t, "fig5")
	if len(tables) != 2 {
		t.Fatalf("fig5 should produce 2 tables (ROW, COL)")
	}
	for _, tab := range tables {
		nooptQ, sharingQ := intCol(t, tab, "NO_OPT-queries"), intCol(t, tab, "SHARING-queries")
		nooptRows, sharingRows := intCol(t, tab, "NO_OPT-scanned"), intCol(t, tab, "SHARING-scanned")
		combRows, earlyRows := intCol(t, tab, "COMB-scanned"), intCol(t, tab, "COMB_EARLY-scanned")
		for ri, row := range tab.Rows {
			id := tab.ID + "/" + row[0]
			if sharingQ[ri] >= nooptQ[ri] {
				t.Errorf("%s: SHARING executed %d queries, NO_OPT %d; sharing must execute strictly fewer", id, sharingQ[ri], nooptQ[ri])
			}
			if sharingRows[ri] >= nooptRows[ri] {
				t.Errorf("%s: SHARING scanned %d rows, NO_OPT %d; sharing must scan strictly fewer", id, sharingRows[ri], nooptRows[ri])
			}
			if combRows[ri] > sharingRows[ri] {
				t.Errorf("%s: COMB scanned %d rows, SHARING %d; pruning must not add work", id, combRows[ri], sharingRows[ri])
			}
			if earlyRows[ri] > combRows[ri] {
				t.Errorf("%s: COMB_EARLY scanned %d rows, COMB %d; early return must not add work", id, earlyRows[ri], combRows[ri])
			}
		}
	}
}

// TestFigure6LatencyGrowsWithRows checks Figure 6's linearity claim on
// what NO_OPT's latency is made of: two queries per view, each a full
// scan, whatever the store. Rows scanned therefore grow in proportion
// to table rows (6a) and to views (6b), identically for ROW and COL;
// the latency columns are reported and never compared.
func TestFigure6LatencyGrowsWithRows(t *testing.T) {
	if testing.Short() {
		t.Skip("macro experiment")
	}
	tables := runExperiment(t, "fig6")
	for _, tab := range tables {
		// Column 0 is the swept variable: table rows in 6a, views in 6b.
		swept := intCol(t, tab, tab.Header[0])
		rowQ, rowScan := intCol(t, tab, "ROW-queries"), intCol(t, tab, "ROW-scanned")
		colQ, colScan := intCol(t, tab, "COL-queries"), intCol(t, tab, "COL-scanned")
		for ri := range tab.Rows {
			if rowQ[ri] != colQ[ri] || rowScan[ri] != colScan[ri] {
				t.Errorf("%s row %d: ROW did %d queries / %d rows, COL %d / %d; NO_OPT's work must not depend on the store",
					tab.ID, ri, rowQ[ri], rowScan[ri], colQ[ri], colScan[ri])
			}
			// Proportional to the swept variable: cross-multiply against
			// the first point.
			if rowScan[ri]*swept[0] != rowScan[0]*swept[ri] {
				t.Errorf("%s: rows scanned %d at %d vs %d at %d is not proportional",
					tab.ID, rowScan[ri], swept[ri], rowScan[0], swept[0])
			}
			wantQ := rowQ[0]
			if tab.ID == "figure6b" {
				wantQ = rowQ[0] * swept[ri] / swept[0]
			}
			if rowQ[ri] != wantQ {
				t.Errorf("%s: %d queries at %d, want %d", tab.ID, rowQ[ri], swept[ri], wantQ)
			}
		}
	}
}

func TestFigure10UtilityProfileShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("macro experiment")
	}
	tables := runExperiment(t, "fig10")
	bank := tables[0]
	// Measured top-2 separation: Δ1 and Δ2 clearly above the 3..9
	// cluster gaps.
	gap := func(tab *Table, r int) float64 {
		v, err := strconv.ParseFloat(tab.Rows[r][3], 64)
		if err != nil {
			t.Fatalf("bad gap %q", tab.Rows[r][3])
		}
		return v
	}
	d2 := gap(bank, 1)
	clusterMax := 0.0
	for r := 2; r <= 7; r++ {
		if g := gap(bank, r); g > clusterMax {
			clusterMax = g
		}
	}
	if d2 < clusterMax {
		t.Errorf("bank Δ2 (%.4f) should exceed the 3-9 cluster gaps (max %.4f)", d2, clusterMax)
	}
	// DIAB: top-10 clustered — every gap among ranks 1..9 small.
	diab := tables[1]
	for r := 0; r < 9; r++ {
		if g := gap(diab, r); g > 0.02 {
			t.Errorf("diab top-10 gap at rank %d = %.4f, want tightly clustered", r+1, g)
		}
	}
}

func TestFigure11QualityBounds(t *testing.T) {
	if testing.Short() {
		t.Skip("macro experiment")
	}
	tables := runExperiment(t, "fig11")
	acc := tables[0]
	for _, row := range acc.Rows {
		ci, _ := strconv.ParseFloat(row[1], 64)
		nopru, _ := strconv.ParseFloat(row[3], 64)
		random, _ := strconv.ParseFloat(row[4], 64)
		if nopru != 1 {
			t.Errorf("NO_PRU accuracy = %v, want 1.0", row[3])
		}
		if ci < random {
			t.Errorf("k=%s: CI accuracy (%v) below RANDOM (%v)", row[0], row[1], row[4])
		}
	}
}

func TestFigure15AUROCHigh(t *testing.T) {
	if testing.Short() {
		t.Skip("macro experiment")
	}
	tables := runExperiment(t, "fig15")
	title := tables[1].Title
	idx := strings.Index(title, "AUROC ")
	if idx < 0 {
		t.Fatalf("no AUROC in title %q", title)
	}
	auroc, err := strconv.ParseFloat(strings.TrimSpace(title[idx+6:]), 64)
	if err != nil {
		t.Fatal(err)
	}
	if auroc < 0.75 {
		t.Errorf("AUROC = %.3f, want ≥ 0.75 (paper: 0.903)", auroc)
	}
	if auroc > 0.995 {
		t.Errorf("AUROC = %.3f suspiciously perfect — expert noise should produce misses", auroc)
	}
}

func TestTable2RateRatio(t *testing.T) {
	if testing.Short() {
		t.Skip("macro experiment")
	}
	tables := runExperiment(t, "table2")
	tab := tables[0]
	var seedbRate, manualRate float64
	for _, row := range tab.Rows {
		if row[0] == "pooled" {
			v, err := strconv.ParseFloat(row[4], 64)
			if err != nil {
				t.Fatal(err)
			}
			if row[1] == "SEEDB" {
				seedbRate = v
			} else {
				manualRate = v
			}
		}
	}
	if seedbRate < 2*manualRate {
		t.Errorf("pooled bookmark rates: SEEDB %.2f vs MANUAL %.2f, want ≥2x (paper ≈3x)", seedbRate, manualRate)
	}
}

func TestBuildShuffledPreservesContent(t *testing.T) {
	spec := dataset.Housing().WithRows(200)
	db1, err := buildShuffled(spec, sqldb.LayoutCol, 0)
	if err != nil {
		t.Fatal(err)
	}
	db2, err := buildShuffled(spec, sqldb.LayoutCol, 99)
	if err != nil {
		t.Fatal(err)
	}
	q := "SELECT COUNT(*), SUM(price) FROM housing"
	r1, err := db1.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := db2.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Rows[0][0].I != r2.Rows[0][0].I {
		t.Error("shuffling changed row count")
	}
	s1, _ := r1.Rows[0][1].AsFloat()
	s2, _ := r2.Rows[0][1].AsFloat()
	if diff := s1 - s2; diff > 1e-6 || diff < -1e-6 {
		t.Errorf("shuffling changed content: %v vs %v", s1, s2)
	}
}

func TestTableRendering(t *testing.T) {
	tab := &Table{ID: "x", Title: "T", Header: []string{"a", "bb"}}
	tab.AddRow("1", "2")
	tab.Notes = append(tab.Notes, "hello")
	out := tab.String()
	for _, want := range []string{"== x: T ==", "a", "bb", "note: hello"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendering missing %q:\n%s", want, out)
		}
	}
}

func TestMsFormatting(t *testing.T) {
	cases := []struct {
		us   int64
		want string
	}{
		{1500, "1.50ms"},
		{150_000, "150ms"},
		{1_500_000, "1.5s"},
	}
	for _, c := range cases {
		d := time.Duration(c.us) * time.Microsecond
		if got := ms(d); got != c.want {
			t.Errorf("ms(%dus) = %q, want %q", c.us, got, c.want)
		}
	}
}

func TestSpeedupFormatting(t *testing.T) {
	if got := speedup(10*time.Second, 2*time.Second); got != "5.0x" {
		t.Errorf("speedup = %q", got)
	}
	if got := speedup(time.Second, 0); got != "-" {
		t.Errorf("zero-division speedup = %q", got)
	}
}
