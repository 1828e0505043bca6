package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"

	"seedb/internal/backend"
	"seedb/internal/dataset"
	"seedb/internal/sqldb"
)

func TestIngestEndpoint(t *testing.T) {
	db := sqldb.NewDB()
	spec := dataset.Census().WithRows(1000)
	if _, err := dataset.Build(db, spec, sqldb.LayoutCol); err != nil {
		t.Fatal(err)
	}
	s := New(db)
	srv := httptest.NewServer(s)
	defer srv.Close()

	t.Run("appends and bumps the version", func(t *testing.T) {
		before, _ := db.TableVersion("census")
		cols := 0
		if tab, ok := db.Table("census"); ok {
			cols = tab.Schema().NumColumns()
		}
		row := make([]string, cols)
		for i := range row {
			row[i] = "" // all NULL is a valid row
		}
		var resp ingestResponse
		status := postJSON(t, srv.URL+"/api/ingest", ingestRequest{
			Table: "census",
			Rows:  [][]string{row, row, row},
		}, &resp)
		if status != http.StatusOK {
			t.Fatalf("status %d", status)
		}
		if resp.Appended != 3 || resp.TotalRows != 1003 {
			t.Fatalf("appended %d total %d, want 3/1003", resp.Appended, resp.TotalRows)
		}
		after, _ := db.TableVersion("census")
		if before == after {
			t.Fatal("ingest did not change the table version (cached results would go stale)")
		}
	})

	t.Run("rejects bad requests", func(t *testing.T) {
		cases := []struct {
			req  ingestRequest
			want int
		}{
			{ingestRequest{Table: "census"}, http.StatusBadRequest},                                       // no rows
			{ingestRequest{Table: "ghost", Rows: [][]string{{"x"}}}, http.StatusNotFound},                 // no table
			{ingestRequest{Table: "census", Rows: [][]string{{"just-one"}}}, http.StatusBadRequest},       // width
			{ingestRequest{Table: "census", Rows: [][]string{make([]string, 20)}}, http.StatusBadRequest}, // width
		}
		for _, tc := range cases {
			var e errorResponse
			if status := postJSON(t, srv.URL+"/api/ingest", tc.req, &e); status != tc.want {
				t.Errorf("req %+v: status %d, want %d (%s)", tc.req, status, tc.want, e.Error)
			}
		}
	})

	t.Run("rejects unparsable cells before writing", func(t *testing.T) {
		tab, _ := db.Table("census")
		before := tab.NumRows()
		row := make([]string, tab.Schema().NumColumns())
		// Find a float column and poison it.
		for i := 0; i < tab.Schema().NumColumns(); i++ {
			if tab.Schema().Column(i).Type == sqldb.TypeFloat {
				row[i] = "not-a-number"
				break
			}
		}
		var e errorResponse
		if status := postJSON(t, srv.URL+"/api/ingest", ingestRequest{
			Table: "census", Rows: [][]string{row},
		}, &e); status != http.StatusBadRequest {
			t.Fatalf("status %d, want 400 (%s)", status, e.Error)
		}
		if tab.NumRows() != before {
			t.Fatal("failed ingest partially applied")
		}
	})
}

// statsSpy records the last statistics read through it.
type statsSpy struct {
	backend.Backend
	mu   sync.Mutex
	last *backend.TableStats
}

func (s *statsSpy) TableStats(ctx context.Context, table string) (*backend.TableStats, error) {
	ts, err := s.Backend.TableStats(ctx, table)
	s.mu.Lock()
	s.last = ts
	s.mu.Unlock()
	return ts, err
}

// TestIngestRefreshesStatistics: an ingest batch carrying a device never
// seen before shows in /api/backend/stats at once, and a Recommend issued
// after it reads the same statistics through the guarded backend.
func TestIngestRefreshesStatistics(t *testing.T) {
	db := sqldb.NewDB()
	tab, err := dataset.BuildSynth(db, dataset.TrafficSpec().WithRows(2000), sqldb.LayoutCol)
	if err != nil {
		t.Fatal(err)
	}
	s := New(db)
	spy := &statsSpy{Backend: backend.NewEmbedded(db)}
	if err := s.RegisterBackend("spy", spy); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(s)
	defer srv.Close()
	stats := func() *backend.TableStats {
		var ts backend.TableStats
		if status := getJSON(t, srv.URL+"/api/backend/stats?table=traffic", &ts); status != http.StatusOK {
			t.Fatalf("stats status %d", status)
		}
		return &ts
	}

	before := stats()
	device, _ := tab.Schema().Lookup("device")
	row := make([]string, tab.Schema().NumColumns()) // NULL elsewhere
	row[device] = "device-never-seen"
	batch := [][]string{row, row, row}
	if status := postJSON(t, srv.URL+"/api/ingest", ingestRequest{Table: "traffic", Rows: batch}, nil); status != http.StatusOK {
		t.Fatalf("ingest status %d", status)
	}
	after := stats()
	want := &backend.TableStats{Rows: before.Rows + len(batch), Columns: append([]backend.ColumnStats(nil), before.Columns...)}
	want.Columns[device].Distinct++
	if !reflect.DeepEqual(after, want) {
		t.Fatalf("stats after ingest %+v, want %+v", after, want)
	}

	off := false
	if status := postJSON(t, srv.URL+"/api/recommend", RecommendRequest{
		Table: "traffic", TargetWhere: "plan = 'free'", K: 2, Backend: "spy", Cache: &off,
	}, nil); status != http.StatusOK {
		t.Fatalf("recommend status %d", status)
	}
	spy.mu.Lock()
	defer spy.mu.Unlock()
	if !reflect.DeepEqual(spy.last, after) {
		t.Fatalf("recommend read stats %+v, /api/backend/stats served %+v", spy.last, after)
	}
}

func TestIngestMirrorsToShards(t *testing.T) {
	db := sqldb.NewDB()
	if _, err := dataset.Build(db, dataset.Census().WithRows(600), sqldb.LayoutCol); err != nil {
		t.Fatal(err)
	}
	s := New(db)
	if err := s.EnableSharding(3); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(s)
	defer srv.Close()

	tab, _ := db.Table("census")
	row := make([]string, tab.Schema().NumColumns())
	var resp ingestResponse
	if status := postJSON(t, srv.URL+"/api/ingest", ingestRequest{
		Table: "census", Rows: [][]string{row, row},
	}, &resp); status != http.StatusOK {
		t.Fatalf("ingest status %d", status)
	}

	// The shard children must hold every row the primary does.
	total := 0
	for _, sdb := range s.shardDBs {
		st, ok := sdb.Table("census")
		if !ok {
			t.Fatal("shard child missing table")
		}
		total += st.NumRows()
	}
	if total != 602 {
		t.Fatalf("shards hold %d rows, primary holds 602", total)
	}

	// And a sharded COUNT(*) must agree with the primary, post-append.
	var q struct {
		Rows [][]string `json:"rows"`
	}
	if status := postJSON(t, srv.URL+"/api/query", map[string]any{
		"sql": "SELECT COUNT(*) FROM census", "backend": "shard",
	}, &q); status != http.StatusOK {
		t.Fatalf("shard query status %d", status)
	}
	if len(q.Rows) != 1 || q.Rows[0][0] != "602" {
		t.Fatalf("sharded COUNT(*) = %v, want 602", q.Rows)
	}
}

func TestLoadSynthEndpoint(t *testing.T) {
	s := New(sqldb.NewDB())
	srv := httptest.NewServer(s)
	defer srv.Close()

	var resp map[string]any
	status := postJSON(t, srv.URL+"/api/datasets/synth", synthLoadRequest{
		Spec: dataset.TrafficSpec(), Rows: 2500, Seed: 5,
	}, &resp)
	if status != http.StatusOK {
		t.Fatalf("status %d: %v", status, resp)
	}
	if resp["table"] != "traffic" || resp["rows"] != float64(2500) {
		t.Fatalf("unexpected response %v", resp)
	}

	// The table must be immediately recommendable.
	var rec RecommendResponse
	status = postJSON(t, srv.URL+"/api/recommend", RecommendRequest{
		Table:       "traffic",
		TargetWhere: "plan = 'free'",
		K:           3,
	}, &rec)
	if status != http.StatusOK {
		t.Fatalf("recommend over synth table: status %d", status)
	}
	if len(rec.Recommendations) == 0 {
		t.Fatal("no recommendations over the synthetic table")
	}

	// Duplicate load conflicts; invalid specs are rejected.
	var e errorResponse
	if status := postJSON(t, srv.URL+"/api/datasets/synth", synthLoadRequest{
		Spec: dataset.TrafficSpec(), Rows: 10,
	}, &e); status != http.StatusConflict {
		t.Fatalf("duplicate synth load: status %d, want 409", status)
	}
	bad := dataset.TrafficSpec()
	bad.Columns[0].Dist = "pareto"
	if status := postJSON(t, srv.URL+"/api/datasets/synth", synthLoadRequest{Spec: bad}, &e); status != http.StatusBadRequest {
		t.Fatalf("invalid spec: status %d, want 400 (%s)", status, e.Error)
	}
}

// TestConcurrentIngestAndQueries is the in-process version of the load
// harness's soak invariant: appends racing full query traffic (raw
// queries + recommendations, embedded and sharded) must never produce a
// non-2xx response or a torn read. Run under -race in CI.
func TestConcurrentIngestAndQueries(t *testing.T) {
	db := sqldb.NewDB()
	if _, err := dataset.Build(db, dataset.Census().WithRows(800), sqldb.LayoutCol); err != nil {
		t.Fatal(err)
	}
	s := New(db)
	if err := s.EnableSharding(2); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(s)
	defer srv.Close()

	tab, _ := db.Table("census")
	blank := make([]string, tab.Schema().NumColumns())

	const (
		writers       = 2
		readers       = 4
		opsPerWorker  = 25
		rowsPerIngest = 5
	)
	var wg sync.WaitGroup
	errs := make(chan error, (writers+readers)*opsPerWorker)

	// Goroutine-safe POST (postJSON may t.Fatal, which is only legal on
	// the test goroutine).
	post := func(path string, v any) {
		body, err := json.Marshal(v)
		if err != nil {
			errs <- err
			return
		}
		resp, err := http.Post(srv.URL+path, "application/json", bytes.NewReader(body))
		if err != nil {
			errs <- err
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			errs <- fmt.Errorf("%s: status %d", path, resp.StatusCode)
		}
	}

	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			batch := make([][]string, rowsPerIngest)
			for i := range batch {
				batch[i] = blank
			}
			for i := 0; i < opsPerWorker; i++ {
				post("/api/ingest", ingestRequest{Table: "census", Rows: batch})
			}
		}()
	}
	for rdr := 0; rdr < readers; rdr++ {
		wg.Add(1)
		go func(rdr int) {
			defer wg.Done()
			backendName := ""
			if rdr%2 == 1 {
				backendName = ShardBackendName
			}
			for i := 0; i < opsPerWorker; i++ {
				if i%3 == 0 {
					post("/api/query", map[string]any{
						"sql": "SELECT sex, COUNT(*) FROM census GROUP BY sex", "backend": backendName,
					})
				} else {
					post("/api/recommend", RecommendRequest{
						Table:       "census",
						TargetWhere: "marital = 'Unmarried'",
						K:           2,
						Backend:     backendName,
					})
				}
			}
		}(rdr)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	// Post-race invariants: primary and shards agree on the row count.
	want := 800 + writers*opsPerWorker*rowsPerIngest
	if got := tab.NumRows(); got != want {
		t.Fatalf("primary holds %d rows, want %d", got, want)
	}
	total := 0
	for _, sdb := range s.shardDBs {
		st, _ := sdb.Table("census")
		total += st.NumRows()
	}
	if total != want {
		t.Fatalf("shards hold %d rows, want %d", total, want)
	}

	// And the executor invariant the telemetry PR pinned still holds:
	// the query-latency histogram counts exactly queries_executed.
	var health struct {
		Executor struct {
			QueriesExecuted int `json:"queries_executed"`
		} `json:"executor"`
	}
	if status := getJSON(t, srv.URL+"/healthz", &health); status != http.StatusOK {
		t.Fatal("healthz unreachable after race")
	}
	if got := int(s.Telemetry().QueryLatency.Count()); got != health.Executor.QueriesExecuted {
		t.Fatalf("query histogram count %d != queries_executed %d", got, health.Executor.QueriesExecuted)
	}
	if health.Executor.QueriesExecuted == 0 {
		t.Fatal("no queries recorded")
	}
}
