package server

import (
	"net/http/httptest"
	"testing"

	"seedb/internal/backend"
	"seedb/internal/backend/sqlbe"
	"seedb/internal/dataset"
	"seedb/internal/sqldb"
	"seedb/internal/sqldriver"
)

// newMultiBackendServer loads a census and registers a database/sql
// backend named "sql" next to the embedded default.
func newMultiBackendServer(t *testing.T) *httptest.Server {
	t.Helper()
	db := sqldb.NewDB()
	spec := dataset.Census().WithRows(3000)
	if _, err := dataset.Build(db, spec, sqldb.LayoutCol); err != nil {
		t.Fatal(err)
	}
	s := New(db)
	if err := s.RegisterBackend("sql", sqlbe.New(sqldriver.Open(db), sqlbe.Options{})); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(s)
	t.Cleanup(srv.Close)
	return srv
}

func TestRegisterBackendValidation(t *testing.T) {
	s := New(sqldb.NewDB())
	if err := s.RegisterBackend("", backend.NewEmbedded(sqldb.NewDB())); err == nil {
		t.Error("empty backend name should be rejected")
	}
	if err := s.RegisterBackend(DefaultBackendName, backend.NewEmbedded(sqldb.NewDB())); err == nil {
		t.Error("duplicate backend name should be rejected")
	}
	if err := s.RegisterBackend("other", backend.NewEmbedded(sqldb.NewDB())); err != nil {
		t.Errorf("fresh name rejected: %v", err)
	}
}

func TestHealthzListsBackends(t *testing.T) {
	srv := newMultiBackendServer(t)
	var out struct {
		Backends []backendInfo `json:"backends"`
	}
	if code := getJSON(t, srv.URL+"/healthz", &out); code != 200 {
		t.Fatalf("healthz = %d", code)
	}
	if len(out.Backends) != 2 {
		t.Fatalf("backends = %+v, want 2", out.Backends)
	}
	// Default first.
	if b := out.Backends[0]; b.Name != DefaultBackendName || !b.Default ||
		!b.SupportsPhasedExecution {
		t.Errorf("default backend entry = %+v", b)
	}
	if b := out.Backends[1]; b.Name != "sql" || b.Default ||
		b.SupportsPhasedExecution {
		t.Errorf("sql backend entry = %+v", b)
	}
}

func TestRecommendBackendSelection(t *testing.T) {
	srv := newMultiBackendServer(t)
	// pruning "none" + serial scans make the phased run's final
	// utilities bit-identical to the single-pass SHARING run the sql
	// backend degrades to, so the winner comparison is deterministic.
	req := map[string]any{
		"table":            "census",
		"target_where":     "marital = 'Unmarried'",
		"k":                2,
		"strategy":         "comb",
		"pruning":          "none",
		"cache":            false,
		"scan_parallelism": 1,
	}

	var def RecommendResponse
	if code := postJSON(t, srv.URL+"/api/recommend", req, &def); code != 200 {
		t.Fatalf("default backend recommend = %d", code)
	}
	if def.Backend != DefaultBackendName || def.Strategy != "COMB" {
		t.Errorf("default response backend/strategy = %q/%q", def.Backend, def.Strategy)
	}

	// The sql backend serves the same request, degraded to SHARING
	// (no row-range scans) and never vectorized.
	req["backend"] = "sql"
	var ext RecommendResponse
	if code := postJSON(t, srv.URL+"/api/recommend", req, &ext); code != 200 {
		t.Fatalf("sql backend recommend = %d", code)
	}
	if ext.Backend != "sql" || ext.Strategy != "SHARING" {
		t.Errorf("sql response backend/strategy = %q/%q", ext.Backend, ext.Strategy)
	}
	if ext.Vectorized != 0 || ext.QueriesExecuted == 0 {
		t.Errorf("sql executor counters = %+v", ext)
	}
	if len(ext.Recommendations) != len(def.Recommendations) {
		t.Fatalf("recommendation counts differ: %d vs %d",
			len(ext.Recommendations), len(def.Recommendations))
	}
	// Both backends must agree on which views win.
	for i := range def.Recommendations {
		d, e := def.Recommendations[i], ext.Recommendations[i]
		if d.Dimension != e.Dimension || d.Measure != e.Measure || d.Aggregate != e.Aggregate {
			t.Errorf("rank %d: %s(%s) by %s vs %s(%s) by %s",
				i+1, d.Aggregate, d.Measure, d.Dimension, e.Aggregate, e.Measure, e.Dimension)
		}
	}

	// Unknown backend names are a client error.
	req["backend"] = "nope"
	var errResp map[string]any
	if code := postJSON(t, srv.URL+"/api/recommend", req, &errResp); code != 400 {
		t.Errorf("unknown backend = %d, want 400", code)
	}
}
