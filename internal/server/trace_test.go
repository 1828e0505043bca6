package server

import (
	"context"
	"encoding/hex"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"seedb/internal/backend"
	"seedb/internal/backend/netbe"
	"seedb/internal/backend/netbe/wire"
	"seedb/internal/backend/shardbe"
	"seedb/internal/dataset"
	"seedb/internal/sqldb"
	"seedb/internal/telemetry"
)

// newFleetServer stands up a two-process fleet behind one router: the
// census is scattered across two child DBs, each served by its own
// seedb-server over HTTP, and the parent registers a shard router of
// netbe clients as backend "fleet". Queries through it cross a real
// process boundary (wire encoding, headers, the lot) twice.
func newFleetServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	src := sqldb.NewDB()
	spec := dataset.Census().WithRows(6000)
	if _, err := dataset.Build(src, spec, sqldb.LayoutCol); err != nil {
		t.Fatal(err)
	}
	dbs, _ := shardbe.EmbeddedChildren(2)
	tab, _ := src.Table("census")
	if err := shardbe.ScatterTable(src, "census", dbs, shardbe.Blocks{Total: tab.NumRows()}); err != nil {
		t.Fatal(err)
	}
	clients := make([]backend.Backend, 2)
	for i, db := range dbs {
		child := httptest.NewServer(New(db))
		t.Cleanup(child.Close)
		c, err := netbe.New(context.Background(), child.URL,
			netbe.Options{Name: "child" + string(rune('0'+i))})
		if err != nil {
			t.Fatal(err)
		}
		clients[i] = c
	}
	router, err := shardbe.New(clients, shardbe.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s := New(src)
	if err := s.RegisterBackend("fleet", router); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(s)
	t.Cleanup(srv.Close)
	return s, srv
}

// remoteNodes collects every grafted child-process span in the tree.
func remoteNodes(n *telemetry.SpanNode) []*telemetry.SpanNode {
	var out []*telemetry.SpanNode
	var walk func(n *telemetry.SpanNode)
	walk = func(n *telemetry.SpanNode) {
		if n.Attrs["remote"] != "" {
			out = append(out, n)
		}
		for _, c := range n.Children {
			walk(c)
		}
	}
	walk(n)
	return out
}

func isHexID(s string, n int) bool {
	if len(s) != n {
		return false
	}
	_, err := hex.DecodeString(s)
	return err == nil
}

// TestStitchedCrossProcessTrace drives a traced recommendation through
// a live two-child fleet and pins the distributed-tracing acceptance:
// the response carries ONE stitched tree whose remote child spans —
// executed in the child processes and returned over the wire — sit
// under the router's shard.exec spans, contain the child-side
// plan/scan/finalize work, and account for at least 90% of the remote
// execution wall time. The same trace replays from the parent's trace
// store after the request has completed.
func TestStitchedCrossProcessTrace(t *testing.T) {
	s, srv := newFleetServer(t)
	req := map[string]any{
		"table":        "census",
		"target_where": "marital = 'Unmarried'",
		"k":            3,
		"strategy":     "sharing",
		"backend":      "fleet",
		"trace":        true,
	}
	var resp RecommendResponse
	if code := postJSON(t, srv.URL+"/api/recommend", req, &resp); code != 200 {
		t.Fatalf("recommend = %d", code)
	}
	if resp.Trace == nil {
		t.Fatal("traced request returned no trace")
	}
	if !isHexID(resp.TraceID, 32) {
		t.Fatalf("trace_id = %q, want 32-hex", resp.TraceID)
	}

	remotes := remoteNodes(resp.Trace)
	if len(remotes) < 2 {
		t.Fatalf("%d remote spans, want >= 2 (one per child process):\n%s",
			len(remotes), resp.Trace.Render())
	}
	procs := map[string]bool{}
	for _, rn := range remotes {
		procs[strings.Fields(rn.Attrs["process"])[0]] = true
		if rn.Name != "child.query" {
			t.Errorf("remote span name = %q, want child.query", rn.Name)
		}
		if rn.Find("sqldb.scan") == nil || rn.Find("sqldb.plan") == nil {
			t.Errorf("remote span lacks child-side plan/scan work:\n%s", rn.Render())
		}
		assertChildrenNested(t, rn)
	}
	if !procs["child0"] || !procs["child1"] {
		t.Errorf("remote processes %v, want both child0 and child1", procs)
	}
	// Remote subtrees graft under the router's shard.exec spans.
	fan := resp.Trace.Find("shard.fanout")
	if fan == nil {
		t.Fatalf("no shard.fanout span:\n%s", resp.Trace.Render())
	}
	for _, c := range fan.Children {
		if c.Name == "shard.exec" && c.Find("child.query") == nil {
			t.Errorf("shard.exec has no grafted remote subtree:\n%s", c.Render())
		}
	}

	// The completed trace replays from the retention store.
	var stored telemetry.StoredTrace
	if code := getJSON(t, srv.URL+"/api/traces/"+resp.TraceID, &stored); code != 200 {
		t.Fatalf("trace replay = %d", code)
	}
	if stored.ID != resp.TraceID || stored.Root == nil {
		t.Fatalf("stored trace = %+v", stored)
	}
	if len(remoteNodes(stored.Root)) != len(remotes) {
		t.Error("replayed trace lost its remote spans")
	}
	var list struct {
		Traces []telemetry.TraceSummary `json:"traces"`
	}
	if code := getJSON(t, srv.URL+"/api/traces", &list); code != 200 {
		t.Fatalf("trace list = %d", code)
	}
	found := false
	for _, ts := range list.Traces {
		if ts.ID == resp.TraceID {
			found = true
		}
	}
	if !found {
		t.Errorf("trace %s missing from listing %+v", resp.TraceID, list.Traces)
	}
	if got := s.traces.Stats().Sampled; got < 1 {
		t.Errorf("sampled counter = %d", got)
	}
	// An unknown ID is a clean 404.
	if code := getJSON(t, srv.URL+"/api/traces/ffffffffffffffffffffffffffffffff", nil); code != 404 {
		t.Errorf("unknown trace = %d, want 404", code)
	}
}

// TestHeadSampling pins the always-on sampling contract: with p=1 a
// request that never asked for tracing still gets a trace_id (but no
// inline tree — that stays opt-in) and the trace lands in the store;
// with sampling off, an untraced request carries no trace identity.
func TestHeadSampling(t *testing.T) {
	db := sqldb.NewDB()
	if _, err := dataset.Build(db, dataset.Census().WithRows(500), sqldb.LayoutCol); err != nil {
		t.Fatal(err)
	}
	s := New(db)
	s.SetTraceSampling(1)
	srv := httptest.NewServer(s)
	t.Cleanup(srv.Close)

	req := map[string]any{
		"table":        "census",
		"target_where": "marital = 'Unmarried'",
		"k":            2,
		"strategy":     "sharing",
	}
	var resp RecommendResponse
	if code := postJSON(t, srv.URL+"/api/recommend", req, &resp); code != 200 {
		t.Fatalf("recommend = %d", code)
	}
	if !isHexID(resp.TraceID, 32) {
		t.Fatalf("sampled request trace_id = %q, want 32-hex", resp.TraceID)
	}
	if resp.Trace != nil {
		t.Error("sampled request leaked an inline trace tree")
	}
	if _, ok := s.traces.Get(resp.TraceID); !ok {
		t.Error("sampled trace not retained")
	}

	// Sampling off: no trace identity unless requested.
	s2 := New(db)
	srv2 := httptest.NewServer(s2)
	t.Cleanup(srv2.Close)
	var resp2 RecommendResponse
	if code := postJSON(t, srv2.URL+"/api/recommend", req, &resp2); code != 200 {
		t.Fatalf("recommend = %d", code)
	}
	if resp2.TraceID != "" || resp2.Trace != nil {
		t.Errorf("unsampled request carried trace identity %q", resp2.TraceID)
	}
}

// TestSlowLogCarriesTraceID pins the slow-log join key: with a
// threshold that classifies everything as slow, both the per-query and
// the whole-request slow-log entries carry the request's trace ID, so
// a slow-log line can be joined to its retained trace.
func TestSlowLogCarriesTraceID(t *testing.T) {
	db := sqldb.NewDB()
	if _, err := dataset.Build(db, dataset.Census().WithRows(500), sqldb.LayoutCol); err != nil {
		t.Fatal(err)
	}
	s := New(db)
	buf := &lockedBuffer{}
	s.SetSlowQueryLog(buf, time.Nanosecond)
	srv := httptest.NewServer(s)
	t.Cleanup(srv.Close)

	req := map[string]any{
		"table":        "census",
		"target_where": "marital = 'Unmarried'",
		"k":            2,
		"strategy":     "sharing",
		"trace":        true,
	}
	var resp RecommendResponse
	if code := postJSON(t, srv.URL+"/api/recommend", req, &resp); code != 200 {
		t.Fatalf("recommend = %d", code)
	}
	if resp.TraceID == "" {
		t.Fatal("no trace_id on traced request")
	}

	kinds := map[string]bool{}
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		if line == "" {
			continue
		}
		var e telemetry.SlowEntry
		if err := json.Unmarshal([]byte(line), &e); err != nil {
			t.Fatalf("bad slow-log line %q: %v", line, err)
		}
		if e.TraceID == resp.TraceID {
			kinds[e.Kind] = true
		}
	}
	if !kinds["query"] || !kinds["request"] {
		t.Errorf("slow-log kinds joined to trace %s = %v, want query and request\nlog:\n%s",
			resp.TraceID, kinds, buf.String())
	}
}

// TestMetricsTraceFamilies: the trace retention counters surface on
// /metrics after a traced request.
func TestMetricsTraceFamilies(t *testing.T) {
	srv := newTestServer(t)
	req := map[string]any{
		"table":        "census",
		"target_where": "marital = 'Unmarried'",
		"k":            2,
		"strategy":     "sharing",
		"trace":        true,
	}
	if code := postJSON(t, srv.URL+"/api/recommend", req, nil); code != 200 {
		t.Fatalf("recommend = %d", code)
	}
	_, body := getBody(t, srv.URL+"/metrics")
	for _, fam := range []string{
		"seedb_traces_sampled_total",
		"seedb_trace_dropped_total",
		"seedb_trace_store_entries",
		"seedb_trace_store_bytes",
	} {
		if !strings.Contains(body, fam) {
			t.Errorf("metrics missing %s", fam)
		}
	}
	if !strings.Contains(body, "seedb_traces_sampled_total 1") {
		t.Errorf("sampled counter not incremented:\n%s", body)
	}
}

// TestQueryEndpointChildTrace pins the wire contract for cross-process
// propagation: a /api/query request carrying a Traceparent header gets
// the child process's span tree back in the response; one without the
// header does not pay for tracing at all.
func TestQueryEndpointChildTrace(t *testing.T) {
	srv := newTestServer(t)
	body := `{"sql": "SELECT marital, COUNT(*) FROM census GROUP BY marital", "wire": true}`

	post := func(traceparent string) wire.QueryResponse {
		t.Helper()
		hreq, err := http.NewRequest("POST", srv.URL+"/api/query", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		hreq.Header.Set("Content-Type", "application/json")
		if traceparent != "" {
			hreq.Header.Set(telemetry.TraceparentHeader, traceparent)
		}
		hresp, err := http.DefaultClient.Do(hreq)
		if err != nil {
			t.Fatal(err)
		}
		defer hresp.Body.Close()
		if hresp.StatusCode != 200 {
			t.Fatalf("query = %d", hresp.StatusCode)
		}
		var wresp wire.QueryResponse
		if err := json.NewDecoder(hresp.Body).Decode(&wresp); err != nil {
			t.Fatal(err)
		}
		return wresp
	}

	const tp = "00-0123456789abcdef0123456789abcdef-0123456789abcdef-01"
	wresp := post(tp)
	if wresp.Trace == nil {
		t.Fatal("traceparent-carrying query returned no child trace")
	}
	if wresp.Trace.Name != "child.query" || wresp.Trace.Find("sqldb.scan") == nil {
		t.Errorf("child trace = %s", wresp.Trace.Render())
	}

	if plain := post(""); plain.Trace != nil {
		t.Error("untraced query paid for a child trace")
	}
}
