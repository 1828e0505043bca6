package server

import (
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"seedb/internal/dataset"
	"seedb/internal/sqldb"
)

// TestDecodeIsBoundedAndStrict drives the one request decoder through
// all five POST endpoints: a well-formed body (trailing whitespace
// included) gets past it, malformed JSON and anything after the JSON
// value are 400s, and a body over maxBodyBytes is a 413 that is never
// buffered whole.
func TestDecodeIsBoundedAndStrict(t *testing.T) {
	db := sqldb.NewDB()
	if _, err := dataset.Build(db, dataset.Census().WithRows(500), sqldb.LayoutCol); err != nil {
		t.Fatal(err)
	}
	s := New(db)
	synth, err := json.Marshal(map[string]any{"spec": dataset.TrafficSpec(), "rows": 200})
	if err != nil {
		t.Fatal(err)
	}
	post := func(path string, body io.Reader) (int, string) {
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest("POST", path, body))
		return rec.Code, rec.Body.String()
	}
	// One JSON string just past the cap, shared by every endpoint.
	huge := `{"pad":"` + strings.Repeat("x", maxBodyBytes) + `"}`

	for _, ep := range []struct {
		path string
		ok   string // a body the handler accepts
		code int    // what it answers to that body
	}{
		{"/api/datasets/load", `{"name":"bank","rows":200}`, 200},
		{"/api/datasets/synth", string(synth), 200},
		{"/api/ingest", `{"table":"ghost","rows":[["x"]]}`, 404}, // decoded, then no such table
		{"/api/query", `{"sql":"SELECT COUNT(*) FROM census"}`, 200},
		{"/api/recommend", `{"table":"census","target_where":"sex = 'Female'","k":1}`, 200},
	} {
		for _, tc := range []struct {
			name string
			body string
			code int
		}{
			{"well-formed, trailing whitespace", ep.ok + "\n  \t\n", ep.code},
			{"truncated", ep.ok[:len(ep.ok)-1], 400},
			{"second value", ep.ok + `{}`, 400},
			{"trailing garbage", ep.ok + ` x`, 400},
			{"over the cap", huge, 413},
		} {
			code, body := post(ep.path, strings.NewReader(tc.body))
			if code != tc.code {
				t.Errorf("%s, %s: status %d, want %d (%s)", ep.path, tc.name, code, tc.code, body)
			}
			if tc.code >= 400 && tc.code != ep.code && !strings.Contains(body, "bad request body") {
				t.Errorf("%s, %s: error %q does not name the body", ep.path, tc.name, body)
			}
		}
	}
}

// TestWriteJSONEncodesBeforeSending: a value encoding/json refuses (a
// NaN float) answers 500 with the JSON error payload, on the plain
// writer and on /api/recommend's splice alike — never the status it
// was meant to carry over an empty body.
func TestWriteJSONEncodesBeforeSending(t *testing.T) {
	for name, write := range map[string]func(http.ResponseWriter){
		"writeJSON": func(w http.ResponseWriter) {
			writeJSON(w, http.StatusOK, struct{ X float64 }{math.NaN()})
		},
		"writeRecommend": func(w http.ResponseWriter) {
			writeRecommend(w, []byte("[]"), RecommendResponse{ElapsedMS: math.NaN()})
		},
	} {
		rec := httptest.NewRecorder()
		write(rec)
		var e errorResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e.Error == "" {
			t.Errorf("%s: body %q is not an error payload (%v)", name, rec.Body.Bytes(), err)
		}
		if rec.Code != http.StatusInternalServerError || rec.Header().Get("Content-Type") != "application/json" {
			t.Errorf("%s: status %d, content type %q; want 500 JSON", name, rec.Code, rec.Header().Get("Content-Type"))
		}
	}
}
