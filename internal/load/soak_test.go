package load

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"seedb/internal/dataset"
	"seedb/internal/server"
	"seedb/internal/sqldb"
)

// TestSoakMixedWorkload is the short-profile soak gate CI runs under
// -race: several seconds of full mixed traffic (Zipf recommends, tail
// recommends, raw queries, concurrent ingest) against an in-process
// server, after which every invariant the harness advertises must hold
// — zero non-2xx responses, driver/server query accounting matches
// exactly, the server-side histogram count still equals
// queries_executed, row counts reflect every ingested batch, and a
// final recommendation still parses and ranks views.
func TestSoakMixedWorkload(t *testing.T) {
	spec := dataset.TrafficSpec().WithRows(20_000).WithSeed(9)
	srv := server.New(sqldb.NewDB())
	ts := httptest.NewServer(srv)
	defer ts.Close()

	dur := 5 * time.Second
	if testing.Short() {
		dur = 1 * time.Second
	}
	cfg := Config{
		BaseURL:  ts.URL,
		Spec:     spec,
		Users:    8,
		Duration: dur,
		Seed:     4,
	}
	ctx := context.Background()
	if err := PushSpec(ctx, cfg); err != nil {
		t.Fatalf("loading spec into server: %v", err)
	}
	rep, err := Run(ctx, cfg)
	if err != nil {
		t.Fatalf("load run: %v", err)
	}

	// Zero non-2xx responses over the whole soak.
	if rep.ErrorCount != 0 {
		t.Fatalf("%d request errors during soak; first: %v", rep.ErrorCount, rep.FirstErrors)
	}
	// The full SLO/shape gate the CLI enforces must pass too.
	if err := rep.Validate(); err != nil {
		t.Fatal(err)
	}
	// Every traffic class must actually have run.
	for _, class := range []string{ClassRecommend, ClassQuery, ClassIngest} {
		if rep.Classes[class].Count == 0 {
			t.Errorf("class %s issued no requests in %v", class, dur)
		}
	}
	// Exact query accounting: driver-observed == server delta.
	if !rep.QueriesMatch {
		t.Fatalf("driver observed %d queries, server executed %d",
			rep.DriverQueriesObserved, rep.ServerQueriesDelta)
	}
	// The Zipf head should be hitting the result cache at least once.
	if rep.CacheServed == 0 {
		t.Error("no recommend response was served from cache despite Zipf-skewed traffic")
	}

	// Server-side telemetry invariant survives the soak: the query
	// latency histogram counts exactly queries_executed.
	var health struct {
		Executor struct {
			QueriesExecuted uint64 `json:"queries_executed"`
		} `json:"executor"`
	}
	mustGetJSON(t, ts.URL+"/healthz", &health)
	if got := srv.Telemetry().QueryLatency.Snapshot().Count; got != health.Executor.QueriesExecuted {
		t.Fatalf("query histogram count %d != queries_executed %d", got, health.Executor.QueriesExecuted)
	}

	// Row accounting: the table grew by exactly the ingested rows.
	var tables []struct {
		Name string `json:"name"`
		Rows int    `json:"rows"`
	}
	mustGetJSON(t, ts.URL+"/api/tables", &tables)
	found := false
	for _, tab := range tables {
		if tab.Name == spec.Name {
			found = true
			if want := spec.Rows + int(rep.RowsIngested); tab.Rows != want {
				t.Fatalf("table holds %d rows, want %d (loaded %d + ingested %d)",
					tab.Rows, want, spec.Rows, rep.RowsIngested)
			}
		}
	}
	if !found {
		t.Fatalf("table %s missing after soak", spec.Name)
	}

	// Final results still parse and rank: a fresh recommendation over
	// the mutated table returns scored views.
	body := strings.NewReader(`{"table":"traffic","target_where":"plan = 'free'","k":3,` +
		`"dimensions":["region","device"],"measures":["price"]}`)
	resp, err := http.Post(ts.URL+"/api/recommend", "application/json", body)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-soak recommend: status %d", resp.StatusCode)
	}
	var rec struct {
		Recommendations []struct {
			Dimension string  `json:"dimension"`
			Measure   string  `json:"measure"`
			Utility   float64 `json:"utility"`
		} `json:"recommendations"`
		QueriesExecuted int `json:"queries_executed"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&rec); err != nil {
		t.Fatalf("post-soak recommend does not parse: %v", err)
	}
	if len(rec.Recommendations) == 0 {
		t.Fatal("post-soak recommend returned no recommendations")
	}
	for _, r := range rec.Recommendations {
		if r.Dimension == "" || r.Measure == "" {
			t.Fatalf("malformed recommendation %+v", r)
		}
	}
}

// TestRunIsDeterministicRequestStream pins the deterministic seeding
// contract: two runs with the same seed against fresh servers draw the
// same request mix (identical per-class request counts are too timing
// dependent to pin, but the ingest row streams must be identical, which
// the row-count invariant already proves per run; here we pin that a
// different seed actually changes the draw sequence).
func TestRunIsDeterministicRequestStream(t *testing.T) {
	spec := dataset.TrafficSpec().WithRows(500).WithSeed(3)
	w, err := buildWorkload(spec)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{BaseURL: "http://unused", Spec: spec, Seed: 11}.withDefaults()
	cnt := newCounters()
	draws := func(seed int64) []string {
		c := cfg
		c.Seed = seed
		u := newUser(c, w, cnt, 0)
		var out []string
		for i := 0; i < 50; i++ {
			out = append(out, w.predicates[int(u.zipf.Uint64())])
		}
		return out
	}
	a, b, c := draws(11), draws(11), draws(12)
	if strings.Join(a, "|") != strings.Join(b, "|") {
		t.Fatal("same seed produced different predicate streams")
	}
	if strings.Join(a, "|") == strings.Join(c, "|") {
		t.Fatal("different seeds produced identical predicate streams")
	}
}

// TestBuildWorkloadPools sanity-checks pool derivation from the traffic
// spec: popular predicates exist, the tail column is the widest one,
// dims/measures are bounded, and the raw query pool is non-empty.
func TestBuildWorkloadPools(t *testing.T) {
	spec := dataset.TrafficSpec()
	w, err := buildWorkload(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(w.predicates) == 0 || len(w.queries) == 0 {
		t.Fatalf("empty pools: %d predicates, %d queries", len(w.predicates), len(w.queries))
	}
	if w.tailCol != "city" {
		t.Errorf("tail column %s, want city (highest cardinality)", w.tailCol)
	}
	if w.tailCard != spec.Cardinality("city") {
		t.Errorf("tail cardinality %d, want %d", w.tailCard, spec.Cardinality("city"))
	}
	if len(w.dims) == 0 || len(w.dims) > 3 {
		t.Errorf("dims %v, want 1-3", w.dims)
	}
	if len(w.measures) == 0 || len(w.measures) > 2 {
		t.Errorf("measures %v, want 1-2", w.measures)
	}
}

// TestReportValidateGates proves the SLO gate actually rejects bad
// reports (CI leans on this to fail the build, so it must not be
// vacuous).
func TestReportValidateGates(t *testing.T) {
	good := &Report{
		TotalRequests: 100,
		ThroughputRPS: 20,
		QueriesMatch:  true,
		Classes: map[string]ClassStats{
			ClassRecommend: {Count: 60, P50MS: 1, P95MS: 2, P99MS: 3},
			ClassQuery:     {Count: 40, P50MS: 1, P95MS: 2, P99MS: 3},
		},
	}
	if err := good.Validate(); err != nil {
		t.Fatalf("well-formed report rejected: %v", err)
	}
	cases := []struct {
		name  string
		wreck func(*Report)
		want  string
	}{
		{"no traffic", func(r *Report) { r.TotalRequests = 0; r.ThroughputRPS = 0 }, "no throughput"},
		{"errors", func(r *Report) { r.ErrorCount = 3; r.FirstErrors = []string{"query: status 500"} }, "request errors"},
		{"missing class", func(r *Report) { delete(r.Classes, ClassQuery) }, "never ran"},
		{"inverted percentiles", func(r *Report) {
			cs := r.Classes[ClassRecommend]
			cs.P95MS = 0.5
			r.Classes[ClassRecommend] = cs
		}, "percentiles malformed"},
		{"accounting mismatch", func(r *Report) { r.QueriesMatch = false }, "server executed"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := *good
			r.Classes = map[string]ClassStats{}
			for k, v := range good.Classes {
				r.Classes[k] = v
			}
			tc.wreck(&r)
			err := r.Validate()
			if err == nil {
				t.Fatal("bad report passed validation")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// mustGetJSON fetches and decodes one JSON document or fails the test.
func mustGetJSON(t *testing.T, url string, out any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatal(err)
	}
}
