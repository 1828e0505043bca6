package harness

import (
	"bufio"
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// tiny is the smoke profile: every code path of a run, in about a
// second per run. The tests assert structure — schema, validity, span
// nesting, count identities — and never a time or a ratio of times.
var tiny = Profile{Name: "test", ScanRows: 10_000, ServeRows: 10_000,
	Window: 300 * time.Millisecond, Warmup: 100 * time.Millisecond, SetupReps: 1, Checks: 3}

func TestSmokeEveryWorkload(t *testing.T) {
	out := t.TempDir()
	for _, w := range Workloads {
		t.Run(w.Name, func(t *testing.T) {
			untraced, err := Run(w, tiny, 1, false, out)
			if err != nil {
				t.Fatal(err)
			}
			if len(untraced.Violations) > 0 {
				t.Fatalf("untraced run violated its checks: %v", untraced.Violations)
			}
			if untraced.Failed != 0 || untraced.Attempted == 0 || untraced.Samples == 0 {
				t.Fatalf("attempted=%d failed=%d samples=%d", untraced.Attempted, untraced.Failed, untraced.Samples)
			}
			dm := DriverMetrics(untraced)
			for _, def := range Catalogue {
				if !def.Contract {
					continue
				}
				entry, ok := dm[def.Name].(map[string]any)
				if !ok {
					t.Fatalf("driver metrics lack %s", def.Name)
				}
				if v := entry["value"].(float64); !(v > 0) || entry["unit"] != def.Unit {
					t.Errorf("%s = %v %v, want a positive value in %s", def.Name, v, entry["unit"], def.Unit)
				}
			}
			if _, ok := untraced.Metrics["ingest_p50_ms"]; ok != w.Ingest {
				t.Errorf("ingest_p50_ms present=%v on a workload with Ingest=%v", ok, w.Ingest)
			}

			traced, err := Run(w, tiny, 1, true, out)
			if err != nil {
				t.Fatal(err)
			}
			// Violations include checkSpanTree's: every span closed, nested
			// in its parent, one root per request.
			if len(traced.Violations) > 0 {
				t.Fatalf("traced run violated its checks: %v", traced.Violations)
			}
			for _, def := range Catalogue {
				if _, ok := traced.Metrics[def.Name]; ok != (def.Kind == KindLayer) {
					t.Errorf("traced run: metric %s (kind %s) present=%v", def.Name, def.Kind, ok)
				}
			}
			if len(DriverMetrics(traced)) != len(traced.Metrics) {
				t.Errorf("driver metrics of a traced run must be exactly its layer metrics")
			}
			// The layers partition the request: nothing open outside its parent.
			if r := traced.Metrics["layers.sum_ratio"]; math.Abs(r-1) > 1e-9 {
				t.Errorf("layer self times sum to %.6f of the client span, want 1", r)
			}
			m := traced.Metrics
			switch {
			case w.Hot:
				if m["cache.hit_ratio"] < 0.99 || m["core.queries_per_req"] != 0 || m["sqldb.exec_ms"] != 0 {
					t.Errorf("hot workload reached sqldb: hit_ratio=%v queries/req=%v exec_ms=%v",
						m["cache.hit_ratio"], m["core.queries_per_req"], m["sqldb.exec_ms"])
				}
			case w.Scan:
				if m["cache.hit_ratio"] != 0 || m["core.queries_per_req"] == 0 || m["sqldb.vectorized_ratio"] != 1 {
					t.Errorf("scan workload: hit_ratio=%v queries/req=%v vectorized=%v",
						m["cache.hit_ratio"], m["core.queries_per_req"], m["sqldb.vectorized_ratio"])
				}
			}
			if (m["shardbe.fanout_per_query"] > 0) != w.Shard || (m["sqldb.merge_us"] > 0) != w.Shard {
				t.Errorf("shard metrics on Shard=%v: fanout/query=%v merge_us=%v", w.Shard, m["shardbe.fanout_per_query"], m["sqldb.merge_us"])
			}
			if (m["server.ingest_ms"] > 0) != w.Ingest {
				t.Errorf("server.ingest_ms=%v on Ingest=%v", m["server.ingest_ms"], w.Ingest)
			}

			f, err := os.Open(filepath.Join(out, "trace-"+w.Name+".jsonl"))
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			var spans []Span
			sc := bufio.NewScanner(f)
			for sc.Scan() {
				var s Span
				if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
					t.Fatalf("trace line %q: %v", sc.Text(), err)
				}
				spans = append(spans, s)
			}
			if len(spans) == 0 {
				t.Fatal("empty trace file")
			}
			if probs := checkSpanTree(spans, len(spans)); len(probs) > 0 {
				t.Errorf("trace file is not a well-formed span forest: %v", probs)
			}
		})
	}
}

func TestPlanComesFromSeed(t *testing.T) {
	w, _ := WorkloadByName(ColdScan)
	spec := specFor(w, tiny, 7)
	a, err := buildPlan(w, spec, 7, 2, 5, "")
	if err != nil {
		t.Fatal(err)
	}
	b, _ := buildPlan(w, spec, 7, 2, 5, "")
	c, _ := buildPlan(w, spec, 8, 2, 5, "")
	if len(a.ops) != 2*scanStreamLen+1 || len(a.checks) != 5 {
		t.Fatalf("plan has %d ops and %d checks", len(a.ops), len(a.checks))
	}
	seen := map[string]bool{}
	same, differ := true, false
	for i := range a.ops {
		if seen[string(a.ops[i].body)] {
			t.Fatalf("cold_scan request repeats: %s", a.ops[i].body)
		}
		seen[string(a.ops[i].body)] = true
		same = same && bytes.Equal(a.ops[i].body, b.ops[i].body)
		differ = differ || !bytes.Equal(a.ops[i].body, c.ops[i].body)
	}
	if !same || !differ {
		t.Errorf("same seed gives same requests: %v; another seed gives others: %v", same, differ)
	}
}

func TestFoldSpansPartitionsOverlappingQueries(t *testing.T) {
	// One request: client [0,100], handle [10,90], two overlapping router
	// execs [20,60] and [30,80], leaf execs [25,55] and [35,70], a leaf
	// stats [12,18] directly under the handle.
	spans := []Span{
		{ID: 1, Req: 1, Name: "client.request", Path: recommendPath, Start: 0, End: 100},
		{ID: 2, Parent: 1, Req: 1, Name: "server.handle", Path: recommendPath, Start: 10, End: 90},
		{ID: 3, Parent: 2, Req: 1, Name: "sqldb.stats", Start: 12, End: 18},
		{ID: 4, Parent: 2, Req: 1, Name: "shardbe.exec", Start: 20, End: 60, Fanout: 1},
		{ID: 5, Parent: 2, Req: 1, Name: "shardbe.exec", Start: 30, End: 80, Fanout: 2},
		{ID: 6, Parent: 4, Req: 1, Name: "sqldb.exec", Start: 25, End: 55, Rows: 10, Vectorized: true},
		{ID: 7, Parent: 5, Req: 1, Name: "sqldb.exec", Start: 35, End: 70, Rows: 30},
	}
	if probs := checkSpanTree(spans, len(spans)); len(probs) > 0 {
		t.Fatal(probs)
	}
	lt := foldSpans(spans, 0)
	want := layerTotals{Requests: 1, Client: 100, Transport: 20, ServerCore: 14, Shardbe: 15, Exec: 45, Stats: 6,
		StatsCalls: 1, RouterExecs: 2, Fanout: 3, LeafExecs: 2, Vectorized: 1, LeafRows: 40, LeafBusyNS: 65}
	if lt != want {
		t.Errorf("got  %+v\nwant %+v", lt, want)
	}
	if lt.Sum() != lt.Client {
		t.Errorf("self times sum to %d, client span is %d", lt.Sum(), lt.Client)
	}
	spans[6].End = 85 // a leaf outliving its router span
	if probs := checkSpanTree(spans, len(spans)+1); len(probs) != 2 {
		t.Errorf("want an unclosed-span and a nesting problem, got %v", probs)
	}
}

func TestQuartilesAreStatisticsQuantiles(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, med, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || med != 5.5 || q3 != 8.25 {
		t.Errorf("got %v %v %v", q1, med, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if q1, med, q3 = quartiles([]float64{1, 2, 4}); q1 != 1 || med != 2 || q3 != 4 {
		t.Errorf("got %v %v %v", q1, med, q3)
	}
}

func TestCompareVerdicts(t *testing.T) {
	recs := func(p50s ...float64) []Record {
		var out []Record
		for _, v := range p50s {
			out = append(out, Record{Workload: ColdScan, Metrics: map[string]float64{"recommend_p50_ms": v, "failed_ratio": 0}})
		}
		return out
	}
	var buf bytes.Buffer
	if reg, unres := Compare(&buf, recs(100, 101, 102), recs(101, 102, 103)); reg != 0 || unres != 0 {
		t.Errorf("steady sets: %d regressed, %d unresolved\n%s", reg, unres, buf.String())
	}
	buf.Reset()
	if reg, _ := Compare(&buf, recs(100, 101, 102), recs(130, 131, 132)); reg != 1 || !strings.Contains(buf.String(), VerdictRegressed) {
		t.Errorf("a 30%% slower median must regress\n%s", buf.String())
	}
	buf.Reset()
	if _, unres := Compare(&buf, recs(100, 101, 102), recs(80, 120, 160)); unres != 1 || !strings.Contains(buf.String(), VerdictUnresolved) {
		t.Errorf("a set whose spread exceeds the bound must be unresolved\n%s", buf.String())
	}
	if !strings.Contains(buf.String(), VerdictUngated) {
		t.Errorf("failed_ratio carries no bound and must print as ungated\n%s", buf.String())
	}
}

// TestBenchmarkJSONMatchesCatalogue keeps the contract file at the root
// of the repository in step with the tables in this package.
func TestBenchmarkJSONMatchesCatalogue(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var spec struct {
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
		RunSeconds int      `json:"run_seconds"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if time.Duration(spec.RunSeconds)*time.Second != Full.Window {
		t.Errorf("run_seconds %d, full profile window %s", spec.RunSeconds, Full.Window)
	}
	if len(spec.Workloads) != len(Workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d here", len(spec.Workloads), len(Workloads))
	}
	for i, w := range Workloads {
		if spec.Workloads[i].Name != w.Name || spec.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %q / %q", i, spec.Workloads[i].Name, spec.Workloads[i].Why)
		}
		if len(w.Why) > 200 {
			t.Errorf("%s: why is %d characters", w.Name, len(w.Why))
		}
	}
	var e2e, layer []metric
	for _, def := range Catalogue {
		m := metric{Name: def.Name, Unit: def.Unit, Better: def.Better}
		switch {
		case def.Contract:
			// The file carries one bound per metric: the widest any workload
			// needs.
			var b float64
			for _, w := range Workloads {
				b = max(b, Bounds[w.Name][def.Name])
			}
			m.Bound = &b
			e2e = append(e2e, m)
		case def.Kind == KindLayer:
			layer = append(layer, m)
		}
	}
	same := func(kind string, got, want []metric) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the catalogue", kind, len(got), len(want))
		}
		for i := range want {
			g, w := got[i], want[i]
			if g.Name != w.Name || g.Unit != w.Unit || g.Better != w.Better ||
				(w.Bound == nil) != (g.Bound == nil) || (w.Bound != nil && *g.Bound != *w.Bound) {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, catalogue has %+v", kind, i, g, w)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, e2e)
	same("per_layer", spec.PerLayer, layer)
}
