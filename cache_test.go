package seedb

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"seedb/internal/sqldb"
)

// newCachedCensusClient loads a small census table into a client with a
// shared result cache installed.
func newCachedCensusClient(t *testing.T) *Client {
	t.Helper()
	client := New()
	if err := client.LoadDatasetRows("census", ColumnLayout, 4000); err != nil {
		t.Fatal(err)
	}
	client.EnableCache(0)
	return client
}

func TestWarmRecommendIssuesZeroQueries(t *testing.T) {
	client := newCachedCensusClient(t)
	req := Request{Table: "census", TargetWhere: "marital = 'Unmarried'"}
	opts := Options{K: 5, EnableCache: true}

	cold, err := client.Recommend(context.Background(), req, opts)
	if err != nil {
		t.Fatal(err)
	}
	if cold.Metrics.QueriesExecuted == 0 {
		t.Fatal("cold run executed no queries")
	}
	warm, err := client.Recommend(context.Background(), req, opts)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Metrics.QueriesExecuted != 0 {
		t.Fatalf("second identical request executed %d queries, want 0", warm.Metrics.QueriesExecuted)
	}
	if !warm.Metrics.ServedFromCache {
		t.Fatal("second identical request not served from cache")
	}
	if st := client.CacheStats(); st.Hits == 0 || st.Entries == 0 {
		t.Fatalf("cache stats after warm hit: %+v", st)
	}
}

func TestConcurrentRecommendSingleflight(t *testing.T) {
	client := newCachedCensusClient(t)
	req := Request{Table: "census", TargetWhere: "marital = 'Unmarried'"}
	opts := Options{K: 5, EnableCache: true}

	const callers = 12
	var wg sync.WaitGroup
	results := make([]*Result, callers)
	errs := make([]error, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = client.Recommend(context.Background(), req, opts)
		}(i)
	}
	wg.Wait()

	totalExecuted, coldRuns := 0, 0
	for i := 0; i < callers; i++ {
		if errs[i] != nil {
			t.Fatalf("caller %d: %v", i, errs[i])
		}
		totalExecuted += results[i].Metrics.QueriesExecuted
		if !results[i].Metrics.ServedFromCache {
			coldRuns++
		}
	}
	// Singleflight collapses every concurrent identical request into one
	// execution; all callers agree on the answer.
	if coldRuns != 1 {
		t.Errorf("%d callers computed, want exactly 1", coldRuns)
	}
	solo := New()
	if err := solo.LoadDatasetRows("census", ColumnLayout, 4000); err != nil {
		t.Fatal(err)
	}
	ref, err := solo.Recommend(context.Background(), req, Options{K: 5})
	if err != nil {
		t.Fatal(err)
	}
	if totalExecuted != ref.Metrics.QueriesExecuted {
		t.Errorf("%d concurrent callers executed %d queries total, want one run's worth (%d)",
			callers, totalExecuted, ref.Metrics.QueriesExecuted)
	}
	for i := 1; i < callers; i++ {
		if len(results[i].Recommendations) != len(results[0].Recommendations) {
			t.Fatalf("caller %d returned %d recs, caller 0 %d", i, len(results[i].Recommendations), len(results[0].Recommendations))
		}
		for j := range results[i].Recommendations {
			if results[i].Recommendations[j].View != results[0].Recommendations[j].View ||
				results[i].Recommendations[j].Utility != results[0].Recommendations[j].Utility {
				t.Fatalf("caller %d disagrees at rank %d", i, j)
			}
		}
	}
}

func TestReloadInvalidatesCache(t *testing.T) {
	client := New()
	client.EnableCache(0)
	schema, err := NewSchema(
		Column{Name: "grp", Type: TypeString},
		Column{Name: "flag", Type: TypeString},
		Column{Name: "val", Type: TypeFloat},
	)
	if err != nil {
		t.Fatal(err)
	}
	load := func(scale float64) {
		t.Helper()
		if err := client.CreateTable("facts", schema, ColumnLayout); err != nil {
			t.Fatal(err)
		}
		tab, _ := client.DB().Table("facts")
		for i := 0; i < 400; i++ {
			grp := fmt.Sprintf("g%d", i%4)
			flag := "no"
			if i%2 == 0 {
				flag = "yes"
			}
			val := float64(i % 10)
			if flag == "yes" && i%4 == 0 {
				val *= scale // the signal the recommendation should surface
			}
			if err := tab.Append([][]Value{{Str(grp), Str(flag), Float(val)}}); err != nil {
				t.Fatal(err)
			}
		}
	}

	load(1)
	req := Request{Table: "facts", TargetWhere: "flag = 'yes'"}
	opts := Options{K: 1, EnableCache: true}
	before, err := client.Recommend(context.Background(), req, opts)
	if err != nil {
		t.Fatal(err)
	}

	// Reload the table with different data: drop + recreate + reinsert.
	if err := client.DB().DropTable("facts"); err != nil {
		t.Fatal(err)
	}
	load(50)
	after, err := client.Recommend(context.Background(), req, opts)
	if err != nil {
		t.Fatal(err)
	}
	if after.Metrics.ServedFromCache || after.Metrics.QueriesExecuted == 0 {
		t.Fatalf("request after reload served stale cache: %+v", after.Metrics)
	}
	// The reloaded data has a planted deviation the original lacked; a
	// stale answer would keep the old utility.
	if after.Recommendations[0].Utility == before.Recommendations[0].Utility {
		t.Fatal("post-reload result identical to pre-reload result: stale data served")
	}

	// And the fresh answer matches a cache-free client over the same data.
	plain := New()
	if err := plain.CreateTable("facts", schema, ColumnLayout); err != nil {
		t.Fatal(err)
	}
	tab, _ := plain.DB().Table("facts")
	cached, _ := client.DB().Table("facts")
	row := make([]Value, 3)
	err = cached.ScanRange(0, cached.NumRows(), nil, func(rv sqldb.RowView) error {
		for i := range row {
			row[i] = rv.Value(i)
		}
		return tab.Append([][]Value{row})
	})
	if err != nil {
		t.Fatal(err)
	}
	want, err := plain.Recommend(context.Background(), req, Options{K: 1})
	if err != nil {
		t.Fatal(err)
	}
	if after.Recommendations[0].Utility != want.Recommendations[0].Utility {
		t.Fatalf("post-reload utility %v, want %v", after.Recommendations[0].Utility, want.Recommendations[0].Utility)
	}
}
