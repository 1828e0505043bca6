package seedb

import (
	"context"
	"strings"
	"testing"
)

func TestClientEndToEndCensus(t *testing.T) {
	// The paper's running example: recommend views for unmarried vs.
	// married adults over the census data.
	client := New()
	if err := client.LoadDatasetRows("census", ColumnLayout, 8000); err != nil {
		t.Fatal(err)
	}
	res, err := client.Recommend(context.Background(), Request{
		Table:       "census",
		TargetWhere: "marital = 'Unmarried'",
		Reference:   RefComplement,
	}, Options{K: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Recommendations) != 5 {
		t.Fatalf("got %d recommendations", len(res.Recommendations))
	}
	// The planted star view must appear among the top recommendations.
	found := false
	for _, rec := range res.Recommendations {
		if rec.View.Dimension == "sex" && rec.View.Measure == "capital_gain" {
			found = true
		}
	}
	if !found {
		t.Error("(sex, capital_gain) should be recommended")
	}
}

func TestClientManualQueryPath(t *testing.T) {
	client := New()
	if err := client.LoadDatasetRows("housing", RowLayout, 200); err != nil {
		t.Fatal(err)
	}
	res, err := client.Query("SELECT COUNT(*) FROM housing")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].I != 200 {
		t.Errorf("count = %v", res.Rows[0][0])
	}
	// The client hands back the backend's whole execution record, not a
	// hand-picked subset: a non-grouped query never takes the vectorized
	// path, and the record says why.
	if res.Stats.RowsScanned != 200 || res.Stats.Vectorized || res.Stats.FallbackReason == "" {
		t.Errorf("stats = %+v, want 200 rows scanned and a fallback reason", res.Stats)
	}
	if _, err := client.QueryContext(context.Background(), "SELECT nosuch FROM housing"); err == nil {
		t.Error("bad query should fail")
	}
}

func TestClientDatasetCatalog(t *testing.T) {
	client := New()
	names := client.Datasets()
	if len(names) != 10 {
		t.Errorf("datasets = %v", names)
	}
	if err := client.LoadDataset("nosuch", ColumnLayout); err == nil {
		t.Error("unknown dataset should fail")
	}
}

func TestClientLoadCSVAndRecommend(t *testing.T) {
	client := New()
	csv := `city,segment,revenue
north,a,10
north,a,12
south,a,11
south,a,11
north,b,30
north,b,29
south,b,5
south,b,6
`
	schema, err := NewSchema(
		Column{Name: "city", Type: TypeString},
		Column{Name: "segment", Type: TypeString},
		Column{Name: "revenue", Type: TypeFloat},
	)
	if err != nil {
		t.Fatal(err)
	}
	if err := client.LoadCSV("sales", schema, ColumnLayout, strings.NewReader(csv)); err != nil {
		t.Fatal(err)
	}
	res, err := client.Recommend(context.Background(), Request{
		Table:       "sales",
		TargetWhere: "segment = 'b'",
		Reference:   RefComplement,
		Dimensions:  []string{"city"},
		Measures:    []string{"revenue"},
	}, Options{K: 1, Strategy: Sharing})
	if err != nil {
		t.Fatal(err)
	}
	rec := res.Recommendations[0]
	// Segment b: north ≈ 29.5, south ≈ 5.5 — strong deviation from
	// segment a's even split.
	if rec.Utility < 0.2 {
		t.Errorf("utility = %.3f, want strong deviation", rec.Utility)
	}
}

func TestRenderChartOutput(t *testing.T) {
	client := New()
	if err := client.LoadDatasetRows("census", ColumnLayout, 4000); err != nil {
		t.Fatal(err)
	}
	res, err := client.Recommend(context.Background(), Request{
		Table:       "census",
		TargetWhere: "marital = 'Unmarried'",
		Dimensions:  []string{"sex"},
		Measures:    []string{"capital_gain"},
	}, Options{K: 1})
	if err != nil {
		t.Fatal(err)
	}
	out := RenderChart(res.Recommendations[0])
	for _, want := range []string{"AVG(capital_gain) BY sex", "utility", "Female", "Male"} {
		if !strings.Contains(out, want) {
			t.Errorf("chart missing %q:\n%s", want, out)
		}
	}
	labeled := RenderChartLabeled(res.Recommendations[0], "unmarried", "married")
	if !strings.Contains(labeled, "unmarried") || !strings.Contains(labeled, "married") {
		t.Error("labeled chart missing custom labels")
	}
}

func TestCreateTableAndAppend(t *testing.T) {
	client := New()
	schema, err := NewSchema(
		Column{Name: "d", Type: TypeString},
		Column{Name: "m", Type: TypeFloat},
	)
	if err != nil {
		t.Fatal(err)
	}
	if err := client.CreateTable("t", schema, RowLayout); err != nil {
		t.Fatal(err)
	}
	tab, ok := client.DB().Table("t")
	if !ok {
		t.Fatal("table missing")
	}
	if err := tab.Append([][]Value{{Str("x"), Float(1.5)}}); err != nil {
		t.Fatal(err)
	}
	res, err := client.Query("SELECT d, m FROM t")
	if err != nil || len(res.Rows) != 1 {
		t.Fatalf("res=%v err=%v", res, err)
	}
}

func TestBothLayoutsEndToEnd(t *testing.T) {
	for _, layout := range []Layout{RowLayout, ColumnLayout} {
		client := New()
		if err := client.LoadDatasetRows("bank", layout, 3000); err != nil {
			t.Fatal(err)
		}
		res, err := client.Recommend(context.Background(), Request{
			Table:       "bank",
			TargetWhere: "housing = 'yes'",
			Reference:   RefComplement,
		}, Options{K: 3, Strategy: Comb, Pruning: CIPruning})
		if err != nil {
			t.Fatalf("[%v] %v", layout, err)
		}
		if len(res.Recommendations) != 3 {
			t.Errorf("[%v] got %d recs", layout, len(res.Recommendations))
		}
	}
}
