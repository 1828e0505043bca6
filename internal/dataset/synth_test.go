package dataset

import (
	"bytes"
	"math"
	"reflect"
	"strings"
	"testing"

	"seedb/internal/sqldb"
)

// sampleColumn generates n rows of a single-purpose spec and returns the
// emitted values of the named column (copies, since rows are reused).
func sampleColumn(t *testing.T, spec SynthSpec, col string, n int) []sqldb.Value {
	t.Helper()
	spec.Rows = n
	idx := spec.columnIndex(col)
	if idx < 0 {
		t.Fatalf("column %s not in spec", col)
	}
	var out []sqldb.Value
	if err := spec.Generate(func(vals []sqldb.Value) error {
		out = append(out, vals[idx])
		return nil
	}); err != nil {
		t.Fatalf("Generate: %v", err)
	}
	return out
}

func TestSynthValidateRejectsBadSpecs(t *testing.T) {
	col := func(c SynthColumn) SynthSpec {
		return SynthSpec{Name: "t", Rows: 1, Seed: 1, Columns: []SynthColumn{c}}
	}
	cases := []struct {
		name string
		spec SynthSpec
		want string
	}{
		{"no name", SynthSpec{Rows: 1, Columns: []SynthColumn{{Name: "a", Type: "int"}}}, "needs a name"},
		{"no columns", SynthSpec{Name: "t", Rows: 1}, "at least one column"},
		{"bad type", col(SynthColumn{Name: "a", Type: "decimal"}), "unknown column type"},
		{"bad dist", col(SynthColumn{Name: "a", Type: "int", Dist: "pareto"}), "unknown dist"},
		{"null rate 1", col(SynthColumn{Name: "a", Type: "int", NullRate: 1}), "null_rate"},
		{"zipf s too small", col(SynthColumn{Name: "a", Type: "string", Cardinality: 3, Dist: DistZipf, ZipfS: 0.5}), "zipf_s"},
		{"weighted int", col(SynthColumn{Name: "a", Type: "int", Dist: DistWeighted, Weights: []float64{1}}), "weighted applies"},
		{"weight count mismatch", col(SynthColumn{
			Name: "a", Type: "string", Values: []string{"x", "y"},
			Dist: DistWeighted, Weights: []float64{1},
		}), "1 weights for 2 values"},
		{"negative weight", col(SynthColumn{
			Name: "a", Type: "string", Values: []string{"x", "y"},
			Dist: DistWeighted, Weights: []float64{1, -1},
		}), "bad weight"},
		{"zero weight sum", col(SynthColumn{
			Name: "a", Type: "string", Values: []string{"x", "y"},
			Dist: DistWeighted, Weights: []float64{0, 0},
		}), "weights sum"},
		{"no cardinality", col(SynthColumn{Name: "a", Type: "string"}), "positive cardinality"},
		{"max below min", col(SynthColumn{Name: "a", Type: "int", Min: 5, Max: 1}), "max"},
		{"unknown parent", col(SynthColumn{Name: "a", Type: "string", Cardinality: 2, Parent: "ghost"}), "earlier column"},
		{"forward parent", SynthSpec{Name: "t", Rows: 1, Columns: []SynthColumn{
			{Name: "a", Type: "string", Cardinality: 2, Parent: "b"},
			{Name: "b", Type: "string", Cardinality: 2},
		}}, "earlier column"},
		{"numeric parent of string", SynthSpec{Name: "t", Rows: 1, Columns: []SynthColumn{
			{Name: "a", Type: "int", Max: 3},
			{Name: "b", Type: "string", Cardinality: 2, Parent: "a"},
		}}, "must be a string column"},
		{"string parent of float", SynthSpec{Name: "t", Rows: 1, Columns: []SynthColumn{
			{Name: "a", Type: "string", Cardinality: 2},
			{Name: "b", Type: "float", Parent: "a"},
		}}, "must be numeric"},
		{"bool parent", SynthSpec{Name: "t", Rows: 1, Columns: []SynthColumn{
			{Name: "a", Type: "int", Max: 3},
			{Name: "b", Type: "bool", Parent: "a"},
		}}, "bool columns cannot"},
		{"duplicate column", SynthSpec{Name: "t", Rows: 1, Columns: []SynthColumn{
			{Name: "a", Type: "int", Max: 3},
			{Name: "a", Type: "int", Max: 3},
		}}, "duplicate"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.spec.Validate()
			if err == nil {
				t.Fatalf("Validate accepted bad spec")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
	if err := TrafficSpec().Validate(); err != nil {
		t.Fatalf("TrafficSpec invalid: %v", err)
	}
}

func TestSynthZipfSkewAndBounds(t *testing.T) {
	const n = 20_000
	cases := []struct {
		name string
		col  SynthColumn
		card int
	}{
		{"string zipf", SynthColumn{Name: "c", Type: "string", Dist: DistZipf, Cardinality: 10, ZipfS: 1.3}, 10},
		{"int zipf", SynthColumn{Name: "c", Type: "int", Dist: DistZipf, Min: 1, Max: 10, ZipfS: 1.3}, 10},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			spec := SynthSpec{Name: "t", Seed: 7, Columns: []SynthColumn{tc.col}}
			vals := sampleColumn(t, spec, "c", n)
			counts := map[string]int{}
			for _, v := range vals {
				if v.IsNull() {
					t.Fatal("unexpected NULL")
				}
				counts[v.String()]++
				// Bounds: value must be inside the declared space.
				if tc.col.Type == "int" && (v.I < 1 || v.I > 10) {
					t.Fatalf("int zipf out of [1,10]: %d", v.I)
				}
			}
			if len(counts) > tc.card {
				t.Fatalf("zipf emitted %d distinct values, cardinality %d", len(counts), tc.card)
			}
			// Rank 0 must dominate: the most popular value should hold a
			// clear majority share for s=1.3 over 10 values.
			top := spec.ValueName("c", 0)
			if tc.col.Type == "int" {
				top = "1"
			}
			if share := float64(counts[top]) / n; share < 0.4 {
				t.Fatalf("zipf rank-0 share %.3f, want ≥ 0.4 (counts %v)", share, counts)
			}
		})
	}
}

func TestSynthWeightedProportions(t *testing.T) {
	const n = 40_000
	// Weights deliberately not normalized: 6/3/1.
	spec := SynthSpec{Name: "t", Seed: 11, Columns: []SynthColumn{{
		Name: "c", Type: "string",
		Values:  []string{"a", "b", "c"},
		Weights: []float64{6, 3, 1},
		Dist:    DistWeighted,
	}}}
	counts := map[string]int{}
	for _, v := range sampleColumn(t, spec, "c", n) {
		counts[v.String()]++
	}
	want := map[string]float64{"a": 0.6, "b": 0.3, "c": 0.1}
	total := 0
	for val, p := range want {
		got := float64(counts[val]) / n
		if math.Abs(got-p) > 0.02 {
			t.Errorf("value %s share %.3f, want %.2f ± 0.02", val, got, p)
		}
		total += counts[val]
	}
	if total != n {
		t.Fatalf("emitted unexpected values: %v", counts)
	}
}

func TestSynthWeightedBool(t *testing.T) {
	const n = 20_000
	spec := SynthSpec{Name: "t", Seed: 3, Columns: []SynthColumn{{
		Name: "c", Type: "bool", Dist: DistWeighted, Weights: []float64{0.85},
	}}}
	trues := 0
	for _, v := range sampleColumn(t, spec, "c", n) {
		if v.I != 0 {
			trues++
		}
	}
	if got := float64(trues) / n; math.Abs(got-0.85) > 0.02 {
		t.Fatalf("P(true) %.3f, want 0.85 ± 0.02", got)
	}
}

func TestSynthNormalDistribution(t *testing.T) {
	const n = 20_000
	spec := SynthSpec{Name: "t", Seed: 5, Columns: []SynthColumn{{
		Name: "c", Type: "float", Dist: DistNormal, Mean: 50, StdDev: 10, Min: 0, Max: 100,
	}}}
	sum, sumSq := 0.0, 0.0
	for _, v := range sampleColumn(t, spec, "c", n) {
		if v.F < 0 || v.F > 100 {
			t.Fatalf("normal draw escaped clamp: %v", v.F)
		}
		sum += v.F
		sumSq += v.F * v.F
	}
	mean := sum / n
	stddev := math.Sqrt(sumSq/n - mean*mean)
	if math.Abs(mean-50) > 0.5 {
		t.Errorf("mean %.2f, want 50 ± 0.5", mean)
	}
	if math.Abs(stddev-10) > 0.5 {
		t.Errorf("stddev %.2f, want 10 ± 0.5", stddev)
	}
}

func TestSynthHierarchyReferentialConsistency(t *testing.T) {
	// region (4) → state (fanout 6 = 24) → city (fanout 8 = 192): every
	// non-NULL child value must sit inside its parent's subtree on the
	// SAME ROW — value index = parentIndex*Fanout + child slot.
	spec := SynthSpec{Name: "t", Rows: 5_000, Seed: 13, Columns: []SynthColumn{
		{Name: "region", Type: "string", Values: []string{"na", "emea", "apac", "latam"},
			Dist: DistWeighted, Weights: []float64{4, 3, 2, 1}},
		{Name: "state", Type: "string", Parent: "region", Fanout: 6, Dist: DistZipf, ZipfS: 1.3},
		{Name: "city", Type: "string", Parent: "state", Fanout: 8, NullRate: 0.05},
	}}
	if got := spec.Cardinality("state"); got != 24 {
		t.Fatalf("state cardinality %d, want 24", got)
	}
	if got := spec.Cardinality("city"); got != 192 {
		t.Fatalf("city cardinality %d, want 192", got)
	}

	// Invert ValueName so emitted strings map back to indices.
	stateIdx := map[string]int{}
	for i := 0; i < 24; i++ {
		stateIdx[spec.ValueName("state", i)] = i
	}
	cityIdx := map[string]int{}
	for i := 0; i < 192; i++ {
		cityIdx[spec.ValueName("city", i)] = i
	}
	regionIdx := map[string]int{"na": 0, "emea": 1, "apac": 2, "latam": 3}

	checked := 0
	err := spec.Generate(func(vals []sqldb.Value) error {
		region, state, city := vals[0], vals[1], vals[2]
		if !region.IsNull() && !state.IsNull() {
			si, ok := stateIdx[state.S]
			if !ok {
				t.Fatalf("unknown state %q", state.S)
			}
			if si/6 != regionIdx[region.S] {
				t.Fatalf("state %q (idx %d) outside region %q", state.S, si, region.S)
			}
			checked++
		}
		if !state.IsNull() && !city.IsNull() {
			ci, ok := cityIdx[city.S]
			if !ok {
				t.Fatalf("unknown city %q", city.S)
			}
			if ci/8 != stateIdx[state.S] {
				t.Fatalf("city %q (idx %d) outside state %q", city.S, ci, state.S)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	if checked < 4_000 {
		t.Fatalf("only %d rows checked", checked)
	}
}

func TestSynthNumericCorrelation(t *testing.T) {
	// revenue = 20·quantity + noise: the Pearson correlation over
	// non-NULL pairs must be strong, and never NaN/Inf.
	const n = 10_000
	spec := SynthSpec{Name: "t", Seed: 17, Columns: []SynthColumn{
		{Name: "quantity", Type: "int", Min: 1, Max: 50, NullRate: 0.05},
		{Name: "revenue", Type: "float", Parent: "quantity", Scale: 20, StdDev: 25, Min: 0, Max: 2000, Quantum: 0.01},
	}}
	spec.Rows = n
	var qs, rs []float64
	err := spec.Generate(func(vals []sqldb.Value) error {
		if vals[0].IsNull() || vals[1].IsNull() {
			return nil
		}
		qs = append(qs, float64(vals[0].I))
		rs = append(rs, vals[1].F)
		return nil
	})
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	var sq, sr, sqq, srr, sqr float64
	m := float64(len(qs))
	for i := range qs {
		sq += qs[i]
		sr += rs[i]
		sqq += qs[i] * qs[i]
		srr += rs[i] * rs[i]
		sqr += qs[i] * rs[i]
	}
	corr := (m*sqr - sq*sr) / math.Sqrt((m*sqq-sq*sq)*(m*srr-sr*sr))
	if math.IsNaN(corr) || corr < 0.9 {
		t.Fatalf("quantity~revenue correlation %.3f, want ≥ 0.9", corr)
	}
}

func TestSynthNullRateTolerance(t *testing.T) {
	const n = 20_000
	cases := []struct {
		name string
		col  SynthColumn
		rate float64
	}{
		{"string", SynthColumn{Name: "c", Type: "string", Cardinality: 5, NullRate: 0.15}, 0.15},
		{"float", SynthColumn{Name: "c", Type: "float", Min: 0, Max: 1, NullRate: 0.30}, 0.30},
		{"bool", SynthColumn{Name: "c", Type: "bool", NullRate: 0.08}, 0.08},
		{"none", SynthColumn{Name: "c", Type: "int", Min: 0, Max: 9}, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			spec := SynthSpec{Name: "t", Seed: 23, Columns: []SynthColumn{tc.col}}
			nulls := 0
			for _, v := range sampleColumn(t, spec, "c", n) {
				if v.IsNull() {
					nulls++
				}
			}
			got := float64(nulls) / n
			if math.Abs(got-tc.rate) > 0.01 {
				t.Fatalf("null rate %.4f, want %.2f ± 0.01", got, tc.rate)
			}
		})
	}
}

func TestSynthQuantumMakesExactSums(t *testing.T) {
	// Quantum 0.25 with |v| ≤ 500: every value and every partial sum is
	// exactly representable, so summation order cannot change the total.
	const n = 5_000
	spec := SynthSpec{Name: "t", Seed: 29, Columns: []SynthColumn{{
		Name: "c", Type: "float", Dist: DistNormal, Mean: 0, StdDev: 100,
		Min: -500, Max: 500, Quantum: 0.25,
	}}}
	for _, v := range sampleColumn(t, spec, "c", n) {
		if q := v.F / 0.25; q != math.Trunc(q) {
			t.Fatalf("value %v not a multiple of 0.25", v.F)
		}
		if v.F < -500 || v.F > 500 {
			t.Fatalf("value %v outside ±500", v.F)
		}
	}
}

func TestSynthDeterministicAcrossGenerators(t *testing.T) {
	spec := TrafficSpec().WithRows(2_000)
	var a, b bytes.Buffer
	if err := spec.StreamSynthCSV(&a); err != nil {
		t.Fatalf("first stream: %v", err)
	}
	if err := spec.StreamSynthCSV(&b); err != nil {
		t.Fatalf("second stream: %v", err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("same spec+seed produced different CSV bytes")
	}
	// A different seed must actually change the data.
	var c bytes.Buffer
	if err := spec.WithSeed(99).StreamSynthCSV(&c); err != nil {
		t.Fatalf("reseeded stream: %v", err)
	}
	if bytes.Equal(a.Bytes(), c.Bytes()) {
		t.Fatal("different seeds produced identical CSV bytes")
	}
}

func TestSynthBuildMatchesStreamedCSV(t *testing.T) {
	// Building into the engine and streaming to CSV must describe the
	// same rows: load the streamed CSV back and dump both tables.
	spec := TrafficSpec().WithRows(500)
	db := sqldb.NewDB()
	built, err := BuildSynth(db, spec, sqldb.LayoutCol)
	if err != nil {
		t.Fatalf("BuildSynth: %v", err)
	}
	if built.NumRows() != 500 {
		t.Fatalf("built %d rows, want 500", built.NumRows())
	}
	var streamed bytes.Buffer
	if err := spec.StreamSynthCSV(&streamed); err != nil {
		t.Fatalf("StreamSynthCSV: %v", err)
	}
	schema, err := spec.Schema()
	if err != nil {
		t.Fatalf("Schema: %v", err)
	}
	db2 := sqldb.NewDB()
	loaded, err := LoadCSV(db2, "copy", schema, sqldb.LayoutCol, &streamed)
	if err != nil {
		t.Fatalf("LoadCSV: %v", err)
	}
	if loaded.NumRows() != built.NumRows() {
		t.Fatalf("loaded %d rows, built %d", loaded.NumRows(), built.NumRows())
	}
	rowsB, err := db.QueryOpts("SELECT * FROM "+spec.Name, sqldb.ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rowsL, err := db2.QueryOpts("SELECT * FROM copy", sqldb.ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rowsB.Rows, rowsL.Rows) {
		t.Fatal("engine-built and CSV-round-tripped rows differ")
	}
}

func TestSynthSpecJSONRoundTrip(t *testing.T) {
	orig := TrafficSpec()
	var buf bytes.Buffer
	if err := WriteSynthSpec(&buf, orig); err != nil {
		t.Fatalf("encode: %v", err)
	}
	parsed, err := ParseSynthSpec(&buf)
	if err != nil {
		t.Fatalf("ParseSynthSpec: %v", err)
	}
	var a, b bytes.Buffer
	if err := orig.WithRows(300).StreamSynthCSV(&a); err != nil {
		t.Fatal(err)
	}
	if err := parsed.WithRows(300).StreamSynthCSV(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("JSON round-trip changed generated data")
	}
	if _, err := ParseSynthSpec(strings.NewReader(`{"name":"x","rows":1,"columns":[{"name":"a","type":"blob"}]}`)); err == nil {
		t.Fatal("ParseSynthSpec accepted a bad spec")
	}
}
