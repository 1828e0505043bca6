package harness

import (
	"context"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"seedb/benchmarks/layers"
)

// probeTime is how long each replay probe runs: long enough for a few
// hundred microsecond-scale operations, short against the window.
const probeTime = 30 * time.Millisecond

// Result is one run of one workload: either the untraced run, whose
// metrics are the end-to-end ones and the diagnostics, or the traced
// run, whose metrics are the per-layer ones.
type Result struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Profile   string             `json:"profile"`
	Traced    bool               `json:"traced"`
	Rows      int                `json:"rows"`
	Clients   int                `json:"clients"`
	WindowS   float64            `json:"window_s"`
	Attempted int                `json:"ops_attempted"`
	Failed    int                `json:"ops_failed"`
	Samples   int                `json:"recommend_samples"`
	Metrics   map[string]float64 `json:"metrics"`
	// Violations lists every correctness or validity check that failed;
	// a run with any is not a measurement.
	Violations []string `json:"violations,omitempty"`
}

// Clients is the closed-loop client count: the load is sized to the
// host from a single process.
func Clients() int { return min(runtime.NumCPU(), 4) }

// percentile is the nearest-rank q-quantile of sorted nanosecond
// samples, in milliseconds.
func percentile(sorted []int64, q float64) float64 {
	i := int(float64(len(sorted))*q+0.9999999) - 1
	return float64(sorted[max(i, 0)]) / 1e6
}

// throughputSlices is how many equal slices the window is cut into for
// throughput_rps. The metric is the median slice's rate, so a stall that
// costs one slice (a collection, a neighbour's burst) does not move it,
// while a slowdown that lasts moves every slice.
const throughputSlices = 5

// sliceThroughput is the median, over the window's slices, of the rate
// at which requests completed. done holds completion times in
// nanoseconds since the window opened; completions after it closed
// belong to no slice. A slice's rate is measured between its first and
// last completion — (n−1) / (last − first) — so a workload that completes
// a few dozen requests per slice is not quantized to whole requests.
func sliceThroughput(done []int64, window time.Duration) float64 {
	sort.Slice(done, func(a, b int) bool { return done[a] < done[b] })
	slice := int64(window) / throughputSlices
	var rates []float64
	for lo := 0; lo < len(done); {
		i := done[lo] / slice
		hi := lo
		for hi < len(done) && done[hi]/slice == i {
			hi++
		}
		if n := hi - lo; done[lo] >= 0 && i < throughputSlices && n >= 2 && done[hi-1] > done[lo] {
			rates = append(rates, float64(n-1)/(float64(done[hi-1]-done[lo])/1e9))
		}
		lo = hi
	}
	if len(rates) == 0 { // fewer than two completions in every slice
		return float64(len(done)) / window.Seconds()
	}
	_, med, _ := quartiles(rates)
	return med
}

// peakRSSMB reads the process's high-water resident set from
// /proc/self/status; 0 where that does not exist.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			return kb / 1024
		}
	}
	return 0
}

// Run executes one workload once. An untraced run sets up
// prof.SetupReps times (setup_s is the median) and measures on the last
// set-up; a traced run sets up once with the timing decorators in place,
// derives the per-layer metrics from the spans and the replay probes, and
// writes the spans to outDir/trace-<workload>.jsonl.
func Run(w Workload, prof Profile, seed int64, traced bool, outDir string) (*Result, error) {
	clients := Clients()
	res := &Result{
		Workload: w.Name, Seed: seed, Profile: prof.Name, Traced: traced,
		Rows: w.Rows(prof), Clients: clients, WindowS: prof.Window.Seconds(),
		Metrics: map[string]float64{},
	}
	spec := specFor(w, prof, seed)
	pl, err := buildPlan(w, spec, seed, clients, prof.Checks, recommendBackend(w, traced))
	if err != nil {
		return nil, err
	}

	var rec *Recorder
	reps := prof.SetupReps
	if traced {
		rec, reps = NewRecorder(), 1
	}
	var e *env
	var setups []float64
	for i := 0; i < reps; i++ {
		if e != nil {
			e.tearDown()
			e = nil
			runtime.GC() // the previous table is garbage; collect it outside the next timing
		}
		if e, err = setUp(w, spec, pl, rec); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", w.Name, err)
		}
		setups = append(setups, e.setup.Seconds())
	}
	defer e.tearDown()

	probe := &checker{e: e, hc: &http.Client{}}
	queriesBefore, err := probe.serverQueries()
	if err != nil {
		return nil, err
	}
	rowsBefore, err := probe.tableRows()
	probe.hc.CloseIdleConnections()
	if err != nil {
		return nil, err
	}

	t, fromNS, err := drive(e, w, pl, prof.Warmup, prof.Window)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.Name, err)
	}
	var accuracy float64
	var stale int
	if res.Violations, accuracy, stale, err = checkRun(e, w, pl, t, queriesBefore, rowsBefore); err != nil {
		return nil, fmt.Errorf("%s: correctness check: %w", w.Name, err)
	}
	res.Attempted, res.Failed, res.Samples = t.Attempted, t.Failed, len(t.RecLat)
	if res.Samples == 0 {
		return res, nil // validity has already recorded the violation
	}

	sort.Slice(t.RecLat, func(a, b int) bool { return t.RecLat[a] < t.RecLat[b] })
	sort.Slice(t.IngLat, func(a, b int) bool { return t.IngLat[a] < t.IngLat[b] })
	p50 := percentile(t.RecLat, 0.50)
	rps := sliceThroughput(t.Done, prof.Window)
	m := res.Metrics
	if !traced {
		_, m["setup_s"], _ = quartiles(setups)
		m["recommend_p50_ms"] = p50
		m["throughput_rps"] = rps
		// A p95 needs ten samples beyond it.
		if len(t.RecLat) >= 200 {
			m["recommend_p95_ms"] = percentile(t.RecLat, 0.95)
		}
		if len(t.IngLat) > 0 {
			m["ingest_p50_ms"] = percentile(t.IngLat, 0.50)
		}
		if len(t.IngLat) >= 200 {
			m["ingest_p95_ms"] = percentile(t.IngLat, 0.95)
		}
		m["failed_ratio"] = float64(t.Failed) / float64(max(t.Attempted, 1))
		m["topk_accuracy"] = accuracy
		if w.Ingest {
			m["stale_answers"] = float64(stale)
		}
		m["peak_rss_mb"] = peakRSSMB()
		m["gomaxprocs"] = float64(runtime.GOMAXPROCS(0))
		m["nproc"] = float64(runtime.NumCPU())
		m["clients"] = float64(clients)
		return res, nil
	}

	spans, opened := rec.Spans()
	res.Violations = append(res.Violations, checkSpanTree(spans, opened)...)
	lt := foldSpans(spans, fromNS)
	if lt.Requests == 0 {
		res.Violations = append(res.Violations, "no traced recommend inside the window")
		return res, nil
	}
	layerMetrics(m, lt, t, e)
	m["traced.recommend_p50_ms"] = p50
	m["traced.throughput_rps"] = rps

	fx, err := layers.NewFixture(context.Background(), e.db, e.spec.Name, t.ReqBodies, t.RespBodies, rec.sql, e.children)
	if err != nil {
		return nil, fmt.Errorf("%s: building the probe fixture: %w", w.Name, err)
	}
	for _, p := range fx.Probes() {
		if m[p.Name], err = layers.Measure(p, probeTime); err != nil {
			return nil, err
		}
	}
	for _, def := range Catalogue {
		if _, ok := m[def.Name]; def.Kind == KindLayer && !ok {
			m[def.Name] = 0 // the layer did no work on this workload
		}
	}
	if outDir != "" {
		if err := os.MkdirAll(outDir, 0o755); err != nil {
			return nil, err
		}
		if err := WriteTrace(filepath.Join(outDir, "trace-"+w.Name+".jsonl"), spans); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// layerMetrics turns the span totals and response counts of a traced
// run into the per-layer metrics, as means per recommend request.
func layerMetrics(m map[string]float64, lt layerTotals, t *tally, e *env) {
	perReqMS := func(ns int64) float64 { return float64(ns) / 1e6 / float64(lt.Requests) }
	n := float64(len(t.RecLat))
	m["transport.self_ms"] = perReqMS(lt.Transport)
	m["server_core.self_ms"] = perReqMS(lt.ServerCore)
	m["shardbe.self_ms"] = perReqMS(lt.Shardbe)
	m["sqldb.exec_ms"] = perReqMS(lt.Exec)
	m["backend.stats_ms"] = perReqMS(lt.Stats)
	m["backend.meta_ms"] = perReqMS(lt.Meta)
	m["request.client_ms"] = perReqMS(lt.Client)
	m["layers.sum_ratio"] = float64(lt.Sum()) / float64(lt.Client)
	m["backend.stats_per_req"] = float64(lt.StatsCalls) / float64(lt.Requests)

	m["cache.hit_ratio"] = float64(t.ServedFromCache) / n
	if lookups := t.CacheHits + t.CacheMisses; lookups > 0 {
		m["cache.query_hit_ratio"] = float64(t.CacheHits) / float64(lookups)
	}
	m["core.queries_per_req"] = float64(t.Queries) / n
	m["core.rows_scanned_per_req"] = float64(t.RowsScanned) / n
	if t.Views > 0 {
		m["core.pruned_ratio"] = float64(t.Pruned) / float64(t.Views)
	}
	if lt.LeafExecs > 0 {
		m["sqldb.rows_per_ms"] = float64(lt.LeafRows) / (float64(lt.LeafBusyNS) / 1e6)
		m["sqldb.vectorized_ratio"] = float64(lt.Vectorized) / float64(lt.LeafExecs)
	}
	if lt.RouterExecs > 0 {
		m["shardbe.fanout_per_query"] = float64(lt.Fanout) / float64(lt.RouterExecs)
		m["shardbe.straggler_ms"] = float64(lt.StragglerNS) / 1e6 / float64(lt.RouterExecs)
	}
	if lt.IngestRequests > 0 {
		m["server.ingest_ms"] = float64(lt.IngestHandle) / 1e6 / float64(lt.IngestRequests)
		m["server.ingest_rows_per_s"] = float64(lt.IngestRequests*ingestBatch) / (float64(lt.IngestHandle) / 1e9)
	}
	m["dataset.gen_rows_per_s"] = float64(e.spec.Rows) / (float64(e.buildNS) / 1e9)
}
