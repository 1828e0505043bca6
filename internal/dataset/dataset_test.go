package dataset

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"strings"
	"testing"

	"seedb/internal/distance"
	"seedb/internal/sqldb"
)

func TestCatalogShapesMatchTable1(t *testing.T) {
	// |A|, |M| and view counts straight from Table 1 of the paper.
	cases := []struct {
		name      string
		dims      int
		measures  int
		views     int
		paperRows int
	}{
		{"syn", 50, 20, 1000, 1_000_000},
		{"syn10", 20, 1, 20, 1_000_000},
		{"syn100", 20, 1, 20, 1_000_000},
		{"bank", 11, 7, 77, 40_000},
		{"diab", 11, 8, 88, 100_000},
		{"air", 12, 9, 108, 6_000_000},
		{"air10", 12, 9, 108, 60_000_000},
		{"census", 10, 4, 40, 21_000},
		{"housing", 4, 10, 40, 500},
		{"movies", 8, 8, 64, 1000},
	}
	for _, c := range cases {
		spec, err := ByName(c.name)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if len(spec.ViewDims()) != c.dims {
			t.Errorf("%s: |A| = %d, want %d", c.name, len(spec.ViewDims()), c.dims)
		}
		if len(spec.Measures) != c.measures {
			t.Errorf("%s: |M| = %d, want %d", c.name, len(spec.Measures), c.measures)
		}
		if spec.NumViews() != c.views {
			t.Errorf("%s: views = %d, want %d", c.name, spec.NumViews(), c.views)
		}
		if spec.PaperRows != c.paperRows {
			t.Errorf("%s: paper rows = %d, want %d", c.name, spec.PaperRows, c.paperRows)
		}
	}
}

func TestByNameErrors(t *testing.T) {
	if _, err := ByName("nope"); err == nil {
		t.Error("unknown dataset should fail")
	}
	if _, err := ByName("BANK"); err != nil {
		t.Error("lookup should be case-insensitive")
	}
	names := Names()
	if len(names) != 10 {
		t.Errorf("catalog has %d datasets, want 10", len(names))
	}
}

func TestSpecHelpers(t *testing.T) {
	spec := Census()
	if got := spec.TargetPredicate(); got != "marital = 'Unmarried'" {
		t.Errorf("TargetPredicate = %q", got)
	}
	if spec.Selector().Name != "marital" {
		t.Errorf("selector = %q", spec.Selector().Name)
	}
	if got := spec.WithRows(42).Rows; got != 42 {
		t.Errorf("WithRows = %d", got)
	}
	if len(spec.ViewDimNames()) != 10 || spec.ViewDimNames()[1] != "sex" {
		t.Errorf("ViewDimNames = %v", spec.ViewDimNames())
	}
	if len(spec.MeasureNames()) != 4 || spec.MeasureNames()[1] != "capital_gain" {
		t.Errorf("MeasureNames = %v", spec.MeasureNames())
	}
	// Effects is indexed view dimension × measure.
	if e, m := spec.Effects, len(spec.Measures); e[m+1] <= e[m] {
		t.Error("planted (sex, capital_gain) effect must exceed (sex, age)")
	}
	schema := spec.Schema()
	if schema.NumColumns() != 14 {
		t.Errorf("schema columns = %d, want 14", schema.NumColumns())
	}
}

func TestDimValueNaming(t *testing.T) {
	d := Dim{Name: "x", Cardinality: 4, Values: []string{"a", "b"}}
	if d.Value(0) != "a" || d.Value(1) != "b" {
		t.Error("explicit names should win")
	}
	if d.Value(2) != "x_2" {
		t.Errorf("synthesized name = %q", d.Value(2))
	}
}

func TestGenerateDeterministic(t *testing.T) {
	spec := Bank().WithRows(500)
	sig := func() string {
		var b strings.Builder
		err := spec.Generate(func(vals []sqldb.Value) error {
			for _, v := range vals {
				fmt.Fprintf(&b, "%s|", v.String())
			}
			b.WriteByte('\n')
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	if sig() != sig() {
		t.Error("generation must be deterministic for a fixed seed")
	}
}

func TestGenerateRespectsTargetFraction(t *testing.T) {
	spec := Census().WithRows(20_000)
	total, target := 0, 0
	err := spec.Generate(func(vals []sqldb.Value) error {
		total++
		if vals[spec.SelectorIdx].S == spec.TargetValue {
			target++
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	frac := float64(target) / float64(total)
	if math.Abs(frac-spec.TargetFrac) > 0.02 {
		t.Errorf("target fraction = %.3f, want ≈ %.2f", frac, spec.TargetFrac)
	}
}

func TestGenerateCardinalities(t *testing.T) {
	spec := Bank().WithRows(5000)
	db, tab, err := BuildDB(spec, sqldb.LayoutCol)
	if err != nil {
		t.Fatal(err)
	}
	if tab.NumRows() != 5000 {
		t.Errorf("rows = %d", tab.NumRows())
	}
	ts, err := db.StatsContext(context.Background(), spec.Name)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range spec.Dims {
		cs, ok := ts.Column(d.Name)
		if !ok {
			t.Fatalf("missing column %s", d.Name)
		}
		if cs.Distinct > d.Cardinality {
			t.Errorf("%s: distinct %d exceeds declared cardinality %d", d.Name, cs.Distinct, d.Cardinality)
		}
		// With 5000 rows every small-cardinality dim should be saturated.
		if d.Cardinality <= 12 && cs.Distinct != d.Cardinality {
			t.Errorf("%s: distinct %d, want %d", d.Name, cs.Distinct, d.Cardinality)
		}
	}
}

func TestGenerateErrors(t *testing.T) {
	bad := Spec{Name: "x", Rows: 1}
	if err := bad.Generate(func([]sqldb.Value) error { return nil }); err == nil {
		t.Error("empty dims/measures should fail")
	}
	bad2 := Bank()
	bad2.SelectorIdx = 99
	if err := bad2.Generate(func([]sqldb.Value) error { return nil }); err == nil {
		t.Error("bad selector index should fail")
	}
	bad3 := Bank()
	bad3.TargetValue = "nonexistent"
	if err := bad3.Generate(func([]sqldb.Value) error { return nil }); err == nil {
		t.Error("unknown target value should fail")
	}
	// Emit errors propagate.
	spec := Bank().WithRows(10)
	wantErr := fmt.Errorf("sink full")
	err := spec.Generate(func([]sqldb.Value) error { return wantErr })
	if err != wantErr {
		t.Errorf("emit error not propagated: %v", err)
	}
}

func TestPlantedDeviationOrdering(t *testing.T) {
	// The measured deviation of a strongly planted census view must
	// exceed a weakly planted one: (sex, capital_gain) ≫ (sex, age).
	spec := Census().WithRows(15_000)
	db, _, err := BuildDB(spec, sqldb.LayoutCol)
	if err != nil {
		t.Fatal(err)
	}
	dev := func(dim, measure string) float64 {
		t.Helper()
		target, err := db.QueryOpts(fmt.Sprintf(
			"SELECT %s, AVG(%s) FROM census WHERE %s GROUP BY %s", dim, measure, spec.TargetPredicate(), dim), sqldb.ExecOptions{})
		if err != nil {
			t.Fatal(err)
		}
		ref, err := db.QueryOpts(fmt.Sprintf(
			"SELECT %s, AVG(%s) FROM census WHERE marital = 'Married' GROUP BY %s", dim, measure, dim), sqldb.ExecOptions{})
		if err != nil {
			t.Fatal(err)
		}
		toMap := func(rows [][]sqldb.Value) map[string]float64 {
			m := make(map[string]float64)
			for _, r := range rows {
				f, _ := r[1].AsFloat()
				m[r[0].S] = f
			}
			return m
		}
		return distance.Deviation(distance.EMD, toMap(target.Rows), toMap(ref.Rows))
	}
	gain := dev("sex", "capital_gain")
	age := dev("sex", "age")
	if gain < 4*age {
		t.Errorf("capital-gain-by-sex deviation (%.4f) should dwarf age-by-sex (%.4f)", gain, age)
	}
	if gain < 0.05 {
		t.Errorf("planted deviation too weak: %.4f", gain)
	}
}

func TestFigure1ShapeCapitalGainBySex(t *testing.T) {
	// Reproduce the qualitative shape of Figure 1: in the target
	// (unmarried) the female/male capital-gain split is near even, in
	// the reference (married) it is skewed toward males.
	spec := Census().WithRows(15_000)
	db, _, err := BuildDB(spec, sqldb.LayoutCol)
	if err != nil {
		t.Fatal(err)
	}
	split := func(where string) (f, m float64) {
		res, err := db.QueryOpts("SELECT sex, AVG(capital_gain) FROM census "+where+" GROUP BY sex", sqldb.ExecOptions{})
		if err != nil {
			t.Fatal(err)
		}
		var vals [2]float64
		for _, r := range res.Rows {
			v, _ := r[1].AsFloat()
			if r[0].S == "Female" {
				vals[0] = v
			} else {
				vals[1] = v
			}
		}
		total := vals[0] + vals[1]
		return vals[0] / total, vals[1] / total
	}
	tf, _ := split("WHERE marital = 'Unmarried'")
	rf, rm := split("WHERE marital = 'Married'")
	if math.Abs(tf-0.5) > 0.1 {
		t.Errorf("target female share = %.3f, want near 0.5", tf)
	}
	if rm < rf+0.1 {
		t.Errorf("reference male share (%.3f) should clearly exceed female (%.3f)", rm, rf)
	}
}

func TestBankUtilityProfileShape(t *testing.T) {
	u := bankUtilityProfile(77)
	if len(u) != 77 {
		t.Fatalf("len = %d", len(u))
	}
	// Top-2 separated, 3..9 clustered, 10 separated, dense tail through
	// rank 25 (the experiments' k ceiling), fast decay beyond.
	if u[0]-u[1] < 0.01 || u[1]-u[2] < 0.01 {
		t.Error("top two views should stand apart")
	}
	for k := 2; k < 8; k++ {
		if u[k]-u[k+1] > 0.002+1e-12 {
			t.Errorf("views %d-%d should be clustered (Δ=%g)", k+1, k+2, u[k]-u[k+1])
		}
	}
	if u[9]-u[10] < 0.01 {
		t.Error("view 10 should be separated from the tail")
	}
	for k := 10; k < 25; k++ {
		if u[k]-u[k+1] > 0.001+1e-12 {
			t.Errorf("dense-tail gap at %d too large: %g", k, u[k]-u[k+1])
		}
	}
	for k := 0; k < 76; k++ {
		if u[k+1] > u[k] {
			t.Errorf("profile must be non-increasing at %d", k)
		}
	}
	// The slim far tail keeps total measure tilt clamp-free: the sum of
	// intended utilities weighted by worst-case (c=2) unit-EMD must stay
	// bounded.
	var sum float64
	for _, x := range u {
		sum += x
	}
	if sum > 8 {
		t.Errorf("profile mass %.2f risks tilt clamping", sum)
	}
}

func TestDiabUtilityProfileShape(t *testing.T) {
	u := diabUtilityProfile(88)
	for k := 0; k < 9; k++ {
		if u[k]-u[k+1] > 0.002+1e-12 {
			t.Errorf("top-10 should be clustered, Δ%d = %g", k+1, u[k]-u[k+1])
		}
	}
	if u[9]-u[10] < 0.01 {
		t.Error("drop after the top-10 cluster expected")
	}
	for k := 0; k < 87; k++ {
		if u[k+1] > u[k] {
			t.Errorf("profile must be non-increasing at %d", k)
		}
	}
}

func TestBuildBothLayoutsAgree(t *testing.T) {
	spec := Housing() // tiny
	dbR, _, err := BuildDB(spec, sqldb.LayoutRow)
	if err != nil {
		t.Fatal(err)
	}
	dbC, _, err := BuildDB(spec, sqldb.LayoutCol)
	if err != nil {
		t.Fatal(err)
	}
	q := "SELECT neighborhood, AVG(price), COUNT(*) FROM housing GROUP BY neighborhood ORDER BY neighborhood"
	r1, err := dbR.QueryOpts(q, sqldb.ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := dbC.QueryOpts(q, sqldb.ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(r1.Rows) != len(r2.Rows) {
		t.Fatalf("row counts differ: %d vs %d", len(r1.Rows), len(r2.Rows))
	}
	for i := range r1.Rows {
		for j := range r1.Rows[i] {
			if r1.Rows[i][j].String() != r2.Rows[i][j].String() {
				t.Errorf("row %d col %d: %v vs %v", i, j, r1.Rows[i][j], r2.Rows[i][j])
			}
		}
	}
}

func TestCSVRoundTrip(t *testing.T) {
	spec := Housing().WithRows(50)
	db, _, err := BuildDB(spec, sqldb.LayoutCol)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := StreamCSV(&buf, spec, 0); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadCSV(db, "housing2", spec.Schema(), sqldb.LayoutRow, bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if loaded.NumRows() != 50 {
		t.Fatalf("loaded %d rows, want 50", loaded.NumRows())
	}
	r1, err := db.QueryOpts("SELECT COUNT(*), SUM(price) FROM housing", sqldb.ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := db.QueryOpts("SELECT COUNT(*), SUM(price) FROM housing2", sqldb.ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	s1, _ := r1.Rows[0][1].AsFloat()
	s2, _ := r2.Rows[0][1].AsFloat()
	if r1.Rows[0][0].I != r2.Rows[0][0].I || math.Abs(s1-s2) > math.Abs(s1)*1e-9 {
		t.Errorf("round trip changed aggregates: %v vs %v", r1.Rows[0], r2.Rows[0])
	}
}

func TestLoadCSVErrors(t *testing.T) {
	schema := sqldb.MustSchema(
		sqldb.Column{Name: "a", Type: sqldb.TypeString},
		sqldb.Column{Name: "m", Type: sqldb.TypeFloat},
	)
	db := sqldb.NewDB()
	cases := []struct {
		name string
		csv  string
	}{
		{"t1", "a\nx\n"},             // wrong column count
		{"t2", "a,wrong\nx,1\n"},     // wrong header name
		{"t3", "a,m\nx,notafloat\n"}, // bad field
		{"t4", ""},                   // missing header
	}
	for _, c := range cases {
		if _, err := LoadCSV(db, c.name, schema, sqldb.LayoutCol, strings.NewReader(c.csv)); err == nil {
			t.Errorf("%s: LoadCSV(%q) should fail", c.name, c.csv)
		}
	}
	// NULLs load from empty fields.
	tab, err := LoadCSV(db, "ok", schema, sqldb.LayoutCol, strings.NewReader("a,m\nx,\n,2.5\n"))
	if err != nil {
		t.Fatal(err)
	}
	res, err := db.QueryOpts("SELECT COUNT(*), COUNT(m), COUNT(a) FROM ok", sqldb.ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].I != 2 || res.Rows[0][1].I != 1 || res.Rows[0][2].I != 1 {
		t.Errorf("NULL loading wrong: %v", res.Rows[0])
	}
	_ = tab
}

func TestParseFieldTypes(t *testing.T) {
	if v, err := ParseField("5", sqldb.TypeInt); err != nil || v.I != 5 {
		t.Error("int parse failed")
	}
	if v, err := ParseField("true", sqldb.TypeBool); err != nil || !v.Truthy() {
		t.Error("bool parse failed")
	}
	if _, err := ParseField("xyz", sqldb.TypeInt); err == nil {
		t.Error("bad int should fail")
	}
	if _, err := ParseField("xyz", sqldb.TypeBool); err == nil {
		t.Error("bad bool should fail")
	}
	if v, err := ParseField("", sqldb.TypeFloat); err != nil || !v.IsNull() {
		t.Error("empty field should be NULL")
	}
}
