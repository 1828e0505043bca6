package server

// Layer microbenchmark for the warm /api/recommend path:
//
//	go test ./internal/server -run '^$' -bench RecommendHot -benchmem

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"testing"

	"seedb/internal/dataset"
	"seedb/internal/sqldb"
)

// BenchmarkRecommendHot is one whole-request cache hit on
// /api/recommend, served in process: a 100k-row traffic table, k 5,
// and the 32 equality predicates of the hot_dashboard pool (four
// dimensions, every value), all primed and requested in turn. The
// request decode, the cache lookup and copy, and the response encode
// are the whole cost. bytes/resp is the mean body size, so 32 times it
// is the pool's bytes.
func BenchmarkRecommendHot(b *testing.B) {
	db := sqldb.NewDB()
	spec := dataset.TrafficSpec()
	if _, err := dataset.BuildSynth(db, spec, sqldb.LayoutCol); err != nil {
		b.Fatal(err)
	}
	s := New(db)
	var bodies [][]byte
	for _, col := range []struct {
		name string
		n    int
	}{{"region", 4}, {"plan", 4}, {"device", 12}, {"state", 12}} {
		for i := 0; i < col.n; i++ {
			body, err := json.Marshal(RecommendRequest{
				Table:       spec.Name,
				TargetWhere: fmt.Sprintf("%s = '%s'", col.name, spec.ValueName(col.name, i)),
				K:           5,
			})
			if err != nil {
				b.Fatal(err)
			}
			bodies = append(bodies, body)
		}
	}
	serve := func(body []byte) int {
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest("POST", "/api/recommend", bytes.NewReader(body)))
		if rec.Code != 200 {
			b.Fatalf("status %d: %s", rec.Code, rec.Body.Bytes())
		}
		return rec.Body.Len()
	}
	for _, body := range bodies {
		serve(body)
	}
	b.ReportAllocs()
	var n, size int
	for b.Loop() {
		size += serve(bodies[n%len(bodies)])
		n++
	}
	b.ReportMetric(float64(size)/float64(n), "bytes/resp")
}
