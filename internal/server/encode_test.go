package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"seedb/internal/backend"
	"seedb/internal/backend/faultbe"
	"seedb/internal/core"
	"seedb/internal/dataset"
	"seedb/internal/sqldb"
)

// newTrafficServer loads a small traffic table into a server that also
// fronts it through a fault-injectable backend named "fault".
func newTrafficServer(t *testing.T) (*Server, *sqldb.DB, *faultbe.Fault) {
	t.Helper()
	db := sqldb.NewDB()
	if _, err := dataset.BuildSynth(db, dataset.TrafficSpec().WithRows(3000), sqldb.LayoutCol); err != nil {
		t.Fatal(err)
	}
	s := New(db)
	fault := faultbe.Wrap(backend.NewEmbedded(db))
	if err := s.RegisterBackend("fault", fault); err != nil {
		t.Fatal(err)
	}
	return s, db, fault
}

// recommendBody serves one /api/recommend in process and returns its
// raw body. Safe to call from any goroutine: a failure is reported, not
// fatal, and the body it returns fails checkBody.
func recommendBody(t *testing.T, s *Server, req RecommendRequest) []byte {
	t.Helper()
	body, _ := json.Marshal(req)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest("POST", "/api/recommend", bytes.NewReader(body)))
	if rec.Code != http.StatusOK {
		t.Errorf("recommend %+v: status %d: %s", req, rec.Code, rec.Body.Bytes())
	}
	return rec.Body.Bytes()
}

// freshViews computes req on its own uncached engine over db and
// encodes the result's views the way a client reads them: the oracle
// every served body must carry byte for byte.
func freshViews(t *testing.T, db *sqldb.DB, req RecommendRequest) []byte {
	t.Helper()
	coreReq, opts, err := req.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	opts.EnableCache = false
	res, err := core.NewEngine(backend.NewEmbedded(db)).Recommend(context.Background(), coreReq, opts)
	if err != nil {
		t.Fatal(err)
	}
	views := []RecommendedView{}
	for i, rec := range res.Recommendations {
		views = append(views, RecommendedView{
			Rank: i + 1, Dimension: rec.View.Dimension, Measure: rec.View.Measure,
			Aggregate: string(rec.View.Agg), Utility: rec.Utility, Partial: rec.Partial,
			Groups: rec.Groups, Target: rec.Target, Reference: rec.Reference,
		})
	}
	b, err := json.Marshal(views)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// checkBody asserts a served body carries want as its recommendations,
// byte for byte, and is otherwise exactly the encoding of the response
// it decodes to. It returns that response.
func checkBody(t *testing.T, what string, body, want []byte) RecommendResponse {
	t.Helper()
	if prefix := append(append([]byte(recsKey), want...), ','); !bytes.HasPrefix(body, prefix) {
		t.Fatalf("%s: body does not open with the fresh encoding\n got %.300s\nwant %.300s", what, body, prefix)
	}
	var resp RecommendResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	var again bytes.Buffer
	if err := json.NewEncoder(&again).Encode(resp); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(body, again.Bytes()) {
		t.Fatalf("%s: body is not the response's own encoding\n got %s\nwant %s", what, body, again.Bytes())
	}
	return resp
}

// TestHitBodiesEqualFreshEncoding is the oracle for the cached
// encoding: whether a body is computed, a warm hit, or a stale replay
// during an outage, its recommendations are byte for byte a fresh
// encoding of what an uncached engine computes for the request.
func TestHitBodiesEqualFreshEncoding(t *testing.T) {
	s, db, fault := newTrafficServer(t)
	spec := dataset.TrafficSpec()
	var reqs []RecommendRequest
	for _, where := range []string{
		fmt.Sprintf("device = '%s'", spec.ValueName("device", 0)),
		fmt.Sprintf("region = '%s'", spec.ValueName("region", 1)),
		"price > 25 AND sessions < 40",
	} {
		for _, k := range []int{3, 5} {
			reqs = append(reqs, RecommendRequest{
				Table: spec.Name, TargetWhere: where, K: k,
				Backend: "fault", ServeStale: true,
			})
		}
	}
	want := make([][]byte, len(reqs))
	for i, req := range reqs {
		want[i] = freshViews(t, db, req)
		what := fmt.Sprintf("%q k=%d", req.TargetWhere, req.K)
		if cold := checkBody(t, what+" cold", recommendBody(t, s, req), want[i]); cold.ServedFromCache {
			t.Fatalf("%s: first request served from cache", what)
		}
		if warm := checkBody(t, what+" warm", recommendBody(t, s, req), want[i]); !warm.ServedFromCache {
			t.Fatalf("%s: repeat request missed the cache", what)
		}
	}

	// A new row moves the version past every entry, and the outage
	// sends each request to its stale alias.
	ingest, err := json.Marshal(ingestRequest{Table: spec.Name, Rows: [][]string{make([]string, len(spec.Columns))}})
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest("POST", "/api/ingest", bytes.NewReader(ingest)))
	if rec.Code != http.StatusOK {
		t.Fatalf("ingest: status %d: %s", rec.Code, rec.Body.Bytes())
	}
	fault.SetDown(backend.ErrUnavailable)
	for i, req := range reqs {
		what := fmt.Sprintf("%q k=%d stale", req.TargetWhere, req.K)
		if stale := checkBody(t, what, recommendBody(t, s, req), want[i]); !stale.Stale {
			t.Fatalf("%s: outage response not marked stale", what)
		}
	}
}

// TestConcurrentColdKeyBodiesAgree: concurrent requests for one cold
// key collapse into one computation, and every body — the computing
// caller's, its waiters' and the hits after — carries the same bytes,
// equal to a fresh encoding. Run it under -race: the callers share the
// entry's one encoding slot.
func TestConcurrentColdKeyBodiesAgree(t *testing.T) {
	s, db, _ := newTrafficServer(t)
	spec := dataset.TrafficSpec()
	req := RecommendRequest{Table: spec.Name, TargetWhere: fmt.Sprintf("plan = '%s'", spec.ValueName("plan", 1)), K: 5}
	want := freshViews(t, db, req)
	const n = 8
	bodies := make([][]byte, 2*n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			bodies[i] = recommendBody(t, s, req)
		}()
	}
	wg.Wait()
	for i := n; i < 2*n; i++ {
		bodies[i] = recommendBody(t, s, req)
	}
	for i, body := range bodies {
		resp := checkBody(t, fmt.Sprintf("body %d", i), body, want)
		if i >= n && !resp.ServedFromCache {
			t.Fatalf("body %d: request after the burst missed the cache", i)
		}
	}
}
