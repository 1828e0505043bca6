package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"seedb/internal/backend"
	"seedb/internal/backend/shardbe"
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
	for i := range want.Columns {
		if want.Columns[i].Type == backend.TypeFloat {
			want.Columns[i].Distinct = want.Rows // the row count (sqldb.ColumnStats)
		}
	}
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

// TestIngestReachesShards: ingested rows reach the shard router
// through the children's views of the primary store's table.
func TestIngestReachesShards(t *testing.T) {
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

// countingChild keeps the row count of every TableInfo call reaching
// one shard child.
type countingChild struct {
	backend.Backend
	log *infoLog
}

// infoLog is the row counts one child's TableInfo calls returned.
type infoLog struct {
	mu   sync.Mutex
	rows []int
}

func (c countingChild) TableInfo(ctx context.Context, table string) (backend.TableInfo, error) {
	info, err := c.Backend.TableInfo(ctx, table)
	c.log.mu.Lock()
	c.log.rows = append(c.log.rows, info.Rows)
	c.log.mu.Unlock()
	return info, err
}

// stormAnswer is one recommend response of the storm: which backend
// served it, the row count it derived, and its views.
type stormAnswer struct {
	shard bool
	n     int
	recs  []RecommendedView
}

// TestConcurrentIngestAndQueries races ingest writers against readers
// on the embedded backend and a two-shard router, and checks answers,
// not only status codes: every recommend must equal a cache-off run over
// a table holding exactly the rows it read. Ingested rows carry the
// value "fresh" in every dimension, so each COUNT view's reference
// distribution gives the row count n its response read; the reference
// is the embedded engine over the first n rows. Shard readers run
// without pruning (COUNT aggregates merge exactly, so row order cannot
// move their answer); embedded readers keep the default CI pruning,
// whose phases see the rows in the reference's order.
//
// Every ingest lands whole or not at all, on the primary, whose table
// the children view: every row count a reader sees — an embedded
// answer's, a /api/tables listing's — is the initial count plus whole
// ingests, and every count a child's TableInfo returns to the router is
// its initial count, plus whole ingests on the last child, whose view
// is the open-ended one.
func TestConcurrentIngestAndQueries(t *testing.T) {
	const initial = 800
	db := sqldb.NewDB()
	if _, err := dataset.Build(db, dataset.Census().WithRows(initial), sqldb.LayoutCol); err != nil {
		t.Fatal(err)
	}
	s := New(db)
	var childInfos [2]infoLog
	if err := s.EnableShardingOpts(2, shardbe.Options{}, func(i int, be backend.Backend) backend.Backend {
		return countingChild{Backend: be, log: &childInfos[i]}
	}); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(s)
	defer srv.Close()

	tab, _ := db.Table("census")
	schema := tab.Schema()
	var initialChild [2]int
	for i, sdb := range s.shardDBs {
		st, _ := sdb.Table("census")
		initialChild[i] = st.NumRows()
	}
	fresh := make([]string, schema.NumColumns())
	for i := range fresh {
		fresh[i] = "1"
		if schema.Column(i).Type == sqldb.TypeString {
			fresh[i] = "fresh"
		}
	}
	request := func(shard bool) RecommendRequest {
		req := RecommendRequest{Table: "census", TargetWhere: "marital = 'Unmarried'", K: 3,
			Measures: []string{"hours_per_week"}, Aggregates: []string{"COUNT"}}
		if shard {
			req.Pruning, req.Backend = "none", ShardBackendName
		}
		return req
	}

	const (
		writers       = 2
		readers       = 4
		opsPerWorker  = 25
		rowsPerIngest = 5
	)
	var wg sync.WaitGroup
	errs := make(chan error, (2*writers+readers)*opsPerWorker)
	answers := make(chan stormAnswer, readers*opsPerWorker)
	var shardRecommends, shardQueries atomic.Int64

	// Goroutine-safe POST (postJSON may t.Fatal, which is only legal on
	// the test goroutine).
	post := func(path string, v, out any) bool {
		body, err := json.Marshal(v)
		if err != nil {
			errs <- err
			return false
		}
		resp, err := http.Post(srv.URL+path, "application/json", bytes.NewReader(body))
		if err != nil {
			errs <- err
			return false
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			errs <- fmt.Errorf("%s: status %d", path, resp.StatusCode)
			return false
		}
		if out == nil {
			_, err = io.Copy(io.Discard, resp.Body)
		} else {
			err = json.NewDecoder(resp.Body).Decode(out)
		}
		if err != nil {
			errs <- err
			return false
		}
		return true
	}

	// A lister reads /api/tables while the writers run.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < writers*opsPerWorker; i++ {
			resp, err := http.Get(srv.URL + "/api/tables")
			if err != nil {
				errs <- err
				return
			}
			var tables []tableInfo
			err = json.NewDecoder(resp.Body).Decode(&tables)
			resp.Body.Close()
			if err != nil {
				errs <- err
				return
			}
			for _, ti := range tables {
				if ti.Name == "census" && (ti.Rows-initial)%rowsPerIngest != 0 {
					errs <- fmt.Errorf("/api/tables listed %d rows, inside an ingest", ti.Rows)
				}
			}
		}
	}()
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			batch := make([][]string, rowsPerIngest)
			for i := range batch {
				batch[i] = fresh
			}
			for i := 0; i < opsPerWorker; i++ {
				post("/api/ingest", ingestRequest{Table: "census", Rows: batch}, nil)
			}
		}()
	}
	for rdr := 0; rdr < readers; rdr++ {
		wg.Add(1)
		go func(rdr int) {
			defer wg.Done()
			shard := rdr%2 == 1
			backendName := ""
			if shard {
				backendName = ShardBackendName
			}
			for i := 0; i < opsPerWorker; i++ {
				if i%3 == 0 {
					if shard {
						shardQueries.Add(1)
					}
					post("/api/query", map[string]any{
						"sql": "SELECT sex, COUNT(*) FROM census GROUP BY sex", "backend": backendName,
					}, nil)
					continue
				}
				if shard {
					shardRecommends.Add(1)
				}
				var resp RecommendResponse
				if !post("/api/recommend", request(shard), &resp) {
					continue
				}
				n, err := freshRowCount(resp, initial)
				if err != nil {
					errs <- err
					continue
				}
				answers <- stormAnswer{shard: shard, n: n, recs: resp.Recommendations}
			}
		}(rdr)
	}
	wg.Wait()
	close(errs)
	close(answers)
	for err := range errs {
		t.Error(err)
	}

	// Post-race invariants: primary and shards agree on the row count.
	want := initial + writers*opsPerWorker*rowsPerIngest
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

	// One child TableInfo per request through the router — the
	// Recommend's pin — never one per query it runs, and each returned
	// the child's count after some number k of whole ingests: its
	// initial rows, plus k·rowsPerIngest on the last child.
	for i := range childInfos {
		log := &childInfos[i]
		if got, want := int64(len(log.rows)), shardRecommends.Load()+shardQueries.Load(); got != want {
			t.Errorf("shard %d answered %d TableInfo calls for %d recommends and %d raw queries", i, got, shardRecommends.Load(), shardQueries.Load())
		}
		boundary := map[int]bool{initialChild[i]: true}
		for k := 1; i == len(childInfos)-1 && k <= writers*opsPerWorker; k++ {
			boundary[initialChild[i]+k*rowsPerIngest] = true
		}
		for _, n := range log.rows {
			if !boundary[n] {
				t.Errorf("shard %d reported %d rows to the router, inside an ingest", i, n)
			}
		}
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
	if got := int(s.Telemetry().QueryLatency.Snapshot().Count); got != health.Executor.QueriesExecuted {
		t.Fatalf("query histogram count %d != queries_executed %d", got, health.Executor.QueriesExecuted)
	}
	if health.Executor.QueriesExecuted == 0 {
		t.Fatal("no queries recorded")
	}

	// Every answer against the reference at its n: a cache-off run on a
	// table grown to exactly n rows.
	var got []stormAnswer
	for a := range answers {
		got = append(got, a)
	}
	sort.Slice(got, func(i, j int) bool { return got[i].n < got[j].n })
	refDB := sqldb.NewDB()
	if _, err := dataset.Build(refDB, dataset.Census().WithRows(initial), sqldb.LayoutCol); err != nil {
		t.Fatal(err)
	}
	refTab, _ := refDB.Table("census")
	freshRow := make([]sqldb.Value, len(fresh))
	for i, cell := range fresh {
		v, err := dataset.ParseField(cell, schema.Column(i).Type)
		if err != nil {
			t.Fatal(err)
		}
		freshRow[i] = v
	}
	ref := httptest.NewServer(New(refDB))
	defer ref.Close()
	noCache := false
	for _, a := range got {
		if a.n < initial || a.n > want {
			t.Fatalf("a response read %d rows, outside [%d, %d]", a.n, initial, want)
		}
		// A router's count adds children each read on its own boundary.
		if !a.shard && (a.n-initial)%rowsPerIngest != 0 {
			t.Errorf("an embedded response read %d rows, inside an ingest", a.n)
		}
		for refTab.NumRows() < a.n {
			if err := refTab.Append([][]sqldb.Value{freshRow}); err != nil {
				t.Fatal(err)
			}
		}
		req := request(a.shard)
		req.Backend, req.Cache = "", &noCache
		var wantResp RecommendResponse
		if code := postJSON(t, ref.URL+"/api/recommend", req, &wantResp); code != http.StatusOK {
			t.Fatalf("reference recommend at n=%d: status %d", a.n, code)
		}
		if !reflect.DeepEqual(a.recs, wantResp.Recommendations) {
			t.Fatalf("shard=%t answer at n=%d differs from the reference over its %d rows:\n got %+v\nwant %+v",
				a.shard, a.n, a.n, a.recs, wantResp.Recommendations)
		}
	}
	if len(got) == 0 {
		t.Fatal("no recommend answers to check")
	}
}

// freshRowCount derives the row count a storm response read from its
// first view: ingested rows are the only ones in group "fresh", so its
// reference share is (n − initial)/n.
func freshRowCount(resp RecommendResponse, initial int) (int, error) {
	if len(resp.Recommendations) == 0 {
		return 0, fmt.Errorf("recommend returned no views")
	}
	v := resp.Recommendations[0]
	if v.Aggregate != "COUNT" {
		return 0, fmt.Errorf("top view %s(%s) BY %s is not a COUNT view", v.Aggregate, v.Measure, v.Dimension)
	}
	i := slices.Index(v.Groups, "fresh")
	if i < 0 {
		return initial, nil
	}
	return int(math.Round(float64(initial) / (1 - v.Reference[i]))), nil
}
