package server

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"sync"
	"testing"
	"time"

	"seedb/internal/backend"
	"seedb/internal/backend/shardbe"
	"seedb/internal/cache"
	"seedb/internal/dataset"
	"seedb/internal/sqldb"
)

// distinctScan matches the statement a shard child runs for the router's
// COUNT(DISTINCT c) over census: the column's value set.
var distinctScan = regexp.MustCompile(`^SELECT (\w+) FROM census GROUP BY (\w+)$`)

// scanCountingChild counts, per column, the distinct-value scans reaching
// one shard child, and slows each so concurrent requests overlap.
type scanCountingChild struct {
	backend.Backend
	mu    sync.Mutex
	scans map[string]int
}

func (c *scanCountingChild) Exec(ctx context.Context, query string, opts backend.ExecOptions) (*backend.Rows, backend.ExecStats, error) {
	if m := distinctScan.FindStringSubmatch(query); m != nil && m[1] == m[2] {
		c.mu.Lock()
		c.scans[m[1]]++
		c.mu.Unlock()
		time.Sleep(10 * time.Millisecond)
	}
	return c.Backend.Exec(ctx, query, opts)
}

// TestConcurrentColdRecommendsScanStatsOnce: concurrent cold requests at
// one version share one statistics computation, so every child runs its
// distinct-value scan once per non-FLOAT column however many requests
// arrive, and none for a FLOAT column (sqldb.ColumnStats.Distinct).
func TestConcurrentColdRecommendsScanStatsOnce(t *testing.T) {
	db := sqldb.NewDB()
	tab, err := dataset.Build(db, dataset.Census().WithRows(1200), sqldb.LayoutCol)
	if err != nil {
		t.Fatal(err)
	}
	s := New(db)
	children := make([]*scanCountingChild, 4)
	if err := s.EnableShardingOpts(4, shardbe.Options{}, func(i int, be backend.Backend) backend.Backend {
		children[i] = &scanCountingChild{Backend: be, scans: map[string]int{}}
		return children[i]
	}); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(s)
	defer srv.Close()

	const requests = 8
	start := make(chan struct{})
	codes := make(chan int, requests)
	var wg sync.WaitGroup
	for i := 0; i < requests; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			// Views are derived from statistics; distinct predicates keep
			// the requests apart in the result cache.
			codes <- postJSONCode(srv.URL+"/api/recommend", fmt.Sprintf(
				`{"table":"census","target_where":"age > %d","k":3,"backend":"shard"}`, 20+i))
		}()
	}
	close(start)
	wg.Wait()
	close(codes)
	for code := range codes {
		if code != http.StatusOK {
			t.Fatalf("recommend status %d", code)
		}
	}
	schema := tab.Schema()
	scanned := 0
	for i := 0; i < schema.NumColumns(); i++ {
		if schema.Column(i).Type != sqldb.TypeFloat {
			scanned++
		}
	}
	for i, c := range children {
		if len(c.scans) != scanned {
			t.Errorf("shard %d scanned %d columns %v, want the %d non-FLOAT ones", i, len(c.scans), c.scans, scanned)
		}
		for col, n := range c.scans {
			if n != 1 {
				t.Errorf("shard %d scanned %s %d times, want once", i, col, n)
			}
		}
	}
}

// recount computes census's statistics on the primary store with fresh
// queries, bypassing every memo: a COUNT(DISTINCT) per non-FLOAT column,
// and the row count for a FLOAT one (sqldb.ColumnStats.Distinct).
func recount(t *testing.T, db *sqldb.DB) *backend.TableStats {
	t.Helper()
	tab, _ := db.Table("census")
	schema := tab.Schema()
	out := &backend.TableStats{Rows: tab.NumRows()}
	for i := 0; i < schema.NumColumns(); i++ {
		col := schema.Column(i)
		if col.Type == sqldb.TypeFloat {
			out.Columns = append(out.Columns, backend.ColumnStats{Name: col.Name, Type: col.Type, Distinct: out.Rows})
			continue
		}
		res, err := db.QueryOpts("SELECT COUNT(DISTINCT "+col.Name+") FROM census", sqldb.ExecOptions{})
		if err != nil {
			t.Fatal(err)
		}
		out.Columns = append(out.Columns, backend.ColumnStats{Name: col.Name, Type: col.Type, Distinct: int(res.Rows[0][0].I)})
	}
	return out
}

// heldStats returns the statistics the server's cache holds for census
// on the shard backend at its current version.
func heldStats(t *testing.T, s *Server, allowPartial bool) (*backend.TableStats, bool) {
	t.Helper()
	rb, err := s.backendFor(ShardBackendName)
	if err != nil {
		t.Fatal(err)
	}
	ti, err := rb.be.TableInfo(context.Background(), "census")
	if err != nil {
		t.Fatal(err)
	}
	v, ok := s.cache.Get(cache.StatsKey("census", rb.be.Name()+"|"+ti.Version, allowPartial))
	if !ok {
		return nil, false
	}
	return v.(*backend.TableStats), true
}

// sameStats compares held statistics with a recount, column by column.
func sameStats(t *testing.T, step string, got, want *backend.TableStats) {
	t.Helper()
	if got.Rows != want.Rows || len(got.Columns) != len(want.Columns) {
		t.Fatalf("%s: %d rows over %d columns, want %d over %d", step, got.Rows, len(got.Columns), want.Rows, len(want.Columns))
	}
	for i, wc := range want.Columns {
		if got.Columns[i] != wc {
			t.Errorf("%s: column %+v, want %+v", step, got.Columns[i], wc)
		}
	}
}

// TestShardStatsTrackIngest is the statistics oracle under ingest: after
// every 100-row batch, the statistics the engine holds for the shard
// backend equal a fresh recount on the primary store.
func TestShardStatsTrackIngest(t *testing.T) {
	db := sqldb.NewDB()
	tab, err := dataset.Build(db, dataset.Census().WithRows(600), sqldb.LayoutCol)
	if err != nil {
		t.Fatal(err)
	}
	s := New(db)
	if err := s.EnableSharding(3); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(s)
	defer srv.Close()

	schema := tab.Schema()
	for batch := 0; batch < 5; batch++ {
		// Each batch brings new values into every column, so every
		// distinct count moves.
		rows := make([][]string, 100)
		for i := range rows {
			cells := make([]string, schema.NumColumns())
			for j := range cells {
				switch schema.Column(j).Type {
				case sqldb.TypeString:
					cells[j] = fmt.Sprintf("b%d-%d", batch, i%7)
				case sqldb.TypeBool:
					cells[j] = strconv.FormatBool(i%2 == 0)
				case sqldb.TypeFloat:
					cells[j] = fmt.Sprintf("%d.25", 100000+batch*100+i)
				default:
					cells[j] = strconv.Itoa(100000 + batch*100 + i)
				}
			}
			rows[i] = cells
		}
		if code := postJSON(t, srv.URL+"/api/ingest", ingestRequest{Table: "census", Rows: rows}, nil); code != http.StatusOK {
			t.Fatalf("batch %d: ingest status %d", batch, code)
		}
		req := RecommendRequest{Table: "census", TargetWhere: "marital = 'Unmarried'", K: 3, Backend: ShardBackendName}
		if code := postJSON(t, srv.URL+"/api/recommend", req, nil); code != http.StatusOK {
			t.Fatalf("batch %d: recommend status %d", batch, code)
		}
		held, ok := heldStats(t, s, false)
		if !ok {
			t.Fatalf("batch %d: no statistics held for the current version", batch)
		}
		sameStats(t, fmt.Sprintf("batch %d", batch), held, recount(t, db))
	}
}

// TestDegradedStatsScanIsNotStored: a child failing during the
// statistics scan of an allow_partial request degrades that request's
// statistics, which serve it and are not stored, and neither is its
// result. The next request at the same version vector, with the child
// healthy, computes full statistics.
func TestDegradedStatsScanIsNotStored(t *testing.T) {
	s, srv, faults := newChaosServer(t, shardbe.Options{})
	// The first Exec a derived-views request sends a child is its
	// statistics scan of the first column.
	faults[1].FailNextExecs(1, backend.ErrUnavailable)
	req := RecommendRequest{Table: "census", TargetWhere: "marital = 'Unmarried'", K: 3,
		Backend: ShardBackendName, AllowPartial: true}
	var first RecommendResponse
	if code := postJSON(t, srv.URL+"/api/recommend", req, &first); code != http.StatusOK {
		t.Fatalf("degraded request: status %d", code)
	}
	if faults[1].FailedExecs() != 1 {
		t.Fatalf("fault fired %d times, want once", faults[1].FailedExecs())
	}
	if _, ok := heldStats(t, s, true); ok {
		t.Fatal("statistics from a degraded scan were stored")
	}

	var second RecommendResponse
	if code := postJSON(t, srv.URL+"/api/recommend", req, &second); code != http.StatusOK {
		t.Fatalf("healthy request: status %d", code)
	}
	if second.ServedFromCache {
		t.Error("a result chosen by degraded statistics was stored")
	}
	held, ok := heldStats(t, s, true)
	if !ok {
		t.Fatal("no statistics held after a healthy request")
	}
	sameStats(t, "healthy request", held, recount(t, s.db))
}
