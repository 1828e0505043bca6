package harness

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"time"
)

// Metric kinds.
const (
	KindE2E        = "e2e"        // client-observed; carries a regression bound per workload
	KindLayer      = "layer"      // one layer's time or count, from the traced run; no bound
	KindDiagnostic = "diagnostic" // printed beside the end-to-end numbers; no bound
)

// MetricDef names one metric the benchmark prints.
type MetricDef struct {
	Name, Unit string
	Better     string // "lower" or "higher"
	Kind       string
	// Contract marks the end-to-end metrics BENCHMARK.json lists: the
	// ones that are defined, and never 0, on every workload.
	Contract bool
}

// Catalogue is every metric, in print order. BENCHMARK.json's
// end_to_end list is the Contract entries and its per_layer list is the
// KindLayer entries; a test keeps the file and this table in step.
var Catalogue = []MetricDef{
	{"setup_s", "s", "lower", KindE2E, true},
	{"recommend_p50_ms", "ms", "lower", KindE2E, true},
	{"throughput_rps", "req/s", "higher", KindE2E, true},
	{"recommend_p95_ms", "ms", "lower", KindE2E, false},
	{"ingest_p50_ms", "ms", "lower", KindE2E, false},
	{"ingest_p95_ms", "ms", "lower", KindE2E, false},
	{"failed_ratio", "ratio", "lower", KindE2E, false},

	{"topk_accuracy", "ratio", "higher", KindDiagnostic, false},
	{"stale_answers", "count", "lower", KindDiagnostic, false},
	{"trace_overhead_ratio", "ratio", "lower", KindDiagnostic, false},
	{"peak_rss_mb", "MB", "lower", KindDiagnostic, false},
	{"gomaxprocs", "count", "higher", KindDiagnostic, false},
	{"nproc", "count", "higher", KindDiagnostic, false},
	{"clients", "count", "higher", KindDiagnostic, false},

	{"request.client_ms", "ms", "lower", KindLayer, false},
	{"transport.self_ms", "ms", "lower", KindLayer, false},
	{"server_core.self_ms", "ms", "lower", KindLayer, false},
	{"shardbe.self_ms", "ms", "lower", KindLayer, false},
	{"sqldb.exec_ms", "ms", "lower", KindLayer, false},
	{"backend.stats_ms", "ms", "lower", KindLayer, false},
	{"backend.meta_ms", "ms", "lower", KindLayer, false},
	{"layers.sum_ratio", "ratio", "higher", KindLayer, false},
	{"traced.recommend_p50_ms", "ms", "lower", KindLayer, false},
	{"traced.throughput_rps", "req/s", "higher", KindLayer, false},
	{"server.codec_us", "us", "lower", KindLayer, false},
	{"cache.get_us", "us", "lower", KindLayer, false},
	{"cache.put_us", "us", "lower", KindLayer, false},
	{"cache.hit_ratio", "ratio", "higher", KindLayer, false},
	{"cache.query_hit_ratio", "ratio", "higher", KindLayer, false},
	{"core.viewgen_us", "us", "lower", KindLayer, false},
	{"binpack.pack_us", "us", "lower", KindLayer, false},
	{"distance.score_us", "us", "lower", KindLayer, false},
	{"core.queries_per_req", "count", "lower", KindLayer, false},
	{"core.rows_scanned_per_req", "count", "lower", KindLayer, false},
	{"core.pruned_ratio", "ratio", "higher", KindLayer, false},
	{"backend.stats_per_req", "count", "lower", KindLayer, false},
	{"sqldb.rows_per_ms", "1/ms", "higher", KindLayer, false},
	{"sqldb.vectorized_ratio", "ratio", "higher", KindLayer, false},
	{"sqldb.prepare_us", "us", "lower", KindLayer, false},
	{"sqldb.scan_us", "us", "lower", KindLayer, false},
	{"shardbe.fanout_per_query", "count", "lower", KindLayer, false},
	{"shardbe.straggler_ms", "ms", "lower", KindLayer, false},
	{"sqldb.merge_us", "us", "lower", KindLayer, false},
	{"wire.encode_us", "us", "lower", KindLayer, false},
	{"wire.decode_us", "us", "lower", KindLayer, false},
	{"server.ingest_ms", "ms", "lower", KindLayer, false},
	{"server.ingest_rows_per_s", "1/s", "higher", KindLayer, false},
	{"dataset.gen_rows_per_s", "1/s", "higher", KindLayer, false},
}

// Bounds holds, per workload, the share of the baseline median by which
// an end-to-end metric may worsen before a change counts as a
// regression. A metric without an entry is ungated on that workload: it
// is printed and recorded, and -compare reports it without a verdict.
// Calibration (README, "Noise bands") measured inter-quartile spreads of
// 3–5 % over ten seeds on a quiet host and up to 11 % on a busy one; each
// bound is at least three times the quiet spread and above the busy one.
// A p95 is gated only where a window always yields its 200 samples.
var Bounds = map[string]map[string]float64{
	ColdScan:     {"setup_s": 0.25, "recommend_p50_ms": 0.15, "throughput_rps": 0.15, "recommend_p95_ms": 0.20},
	HotDashboard: {"setup_s": 0.25, "recommend_p50_ms": 0.15, "throughput_rps": 0.15, "recommend_p95_ms": 0.20},
	ShardFanout:  {"setup_s": 0.25, "recommend_p50_ms": 0.15, "throughput_rps": 0.15},
	IngestStream: {"setup_s": 0.25, "recommend_p50_ms": 0.20, "throughput_rps": 0.20, "ingest_p50_ms": 0.20},
}

// DriverMetrics selects what the contract's driver reads from a run:
// every Contract metric of an untraced run, every layer metric of a
// traced one, each with its unit.
func DriverMetrics(r *Result) map[string]any {
	out := map[string]any{}
	for _, def := range Catalogue {
		if (r.Traced && def.Kind == KindLayer) || (!r.Traced && def.Contract) {
			out[def.Name] = map[string]any{"value": r.Metrics[def.Name], "unit": def.Unit}
		}
	}
	return out
}

// PrintResult writes a run's metrics by name and unit, in catalogue
// order.
func PrintResult(w io.Writer, r *Result) {
	mode := "untraced"
	if r.Traced {
		mode = "traced"
	}
	fmt.Fprintf(w, "%s  %s  seed=%d rows=%d clients=%d window=%.0fs  recommend samples=%d  ops attempted=%d failed=%d\n",
		r.Workload, mode, r.Seed, r.Rows, r.Clients, r.WindowS, r.Samples, r.Attempted, r.Failed)
	for _, def := range Catalogue {
		v, ok := r.Metrics[def.Name]
		if !ok {
			if !r.Traced && def.Kind == KindE2E {
				fmt.Fprintf(w, "  %-28s %14s %-6s %s\n", def.Name, "null", def.Unit, "ungated (too few samples, or not this workload)")
			}
			continue
		}
		note := def.Kind
		if b, gated := Bounds[r.Workload][def.Name]; gated {
			note = fmt.Sprintf("e2e, bound %.0f%%", b*100)
		} else if def.Kind == KindE2E {
			note = "e2e, ungated"
		}
		fmt.Fprintf(w, "  %-28s %14.6g %-6s %s\n", def.Name, v, def.Unit, note)
	}
}

// Record is one ledger line: one workload measured once on one commit
// and host. Layers is absent when only the untraced run was made
// (-selfcheck sets).
type Record struct {
	Time       string             `json:"time"`
	GitSHA     string             `json:"git_sha"`
	Host       string             `json:"host"`
	NProc      int                `json:"nproc"`
	GoMaxProcs int                `json:"gomaxprocs"`
	Clients    int                `json:"clients"`
	Seed       int64              `json:"seed"`
	Profile    string             `json:"profile"`
	Workload   string             `json:"workload"`
	Rows       int                `json:"rows"`
	WindowS    float64            `json:"window_s"`
	Samples    int                `json:"recommend_samples"`
	Attempted  int                `json:"ops_attempted"`
	Failed     int                `json:"ops_failed"`
	Metrics    map[string]float64 `json:"metrics"`
	Layers     map[string]float64 `json:"layers,omitempty"`
	// Claim is what a performance change asserts about this record against
	// its parent's; the benchmark itself claims nothing.
	Claim *string `json:"claim"`
}

// NewRecord combines a workload's untraced run and, when made, its
// traced run into a ledger record.
func NewRecord(untraced, traced *Result, gitSHA string) Record {
	host, _ := os.Hostname()
	rec := Record{
		Time: time.Now().UTC().Format(time.RFC3339), GitSHA: gitSHA, Host: host,
		NProc: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0), Clients: untraced.Clients,
		Seed: untraced.Seed, Profile: untraced.Profile, Workload: untraced.Workload,
		Rows: untraced.Rows, WindowS: untraced.WindowS, Samples: untraced.Samples,
		Attempted: untraced.Attempted, Failed: untraced.Failed, Metrics: untraced.Metrics,
	}
	if traced != nil {
		rec.Layers = traced.Metrics
		if p50 := untraced.Metrics["recommend_p50_ms"]; p50 > 0 {
			rec.Metrics["trace_overhead_ratio"] = traced.Metrics["traced.recommend_p50_ms"] / p50
		}
	}
	return rec
}

// GitSHA asks git for the commit of the checkout containing dir;
// "unknown" outside a repository.
func GitSHA(dir string) string {
	cmd := exec.Command("git", "rev-parse", "--short", "HEAD")
	cmd.Dir = dir
	out, err := cmd.Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// AppendRecords appends ledger lines to path.
func AppendRecords(path string, recs []Record) error {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	defer f.Close() // error paths; the success path checks Close below
	enc := json.NewEncoder(f)
	for _, r := range recs {
		if err := enc.Encode(r); err != nil {
			return err
		}
	}
	return f.Close()
}

// ReadRecords reads a ledger file (one JSON record per line).
func ReadRecords(path string) ([]Record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var recs []Record
	dec := json.NewDecoder(f)
	for {
		var r Record
		if err := dec.Decode(&r); err == io.EOF {
			return recs, nil
		} else if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		recs = append(recs, r)
	}
}

// PrintShares prints, per workload, each layer's share of the traced
// client-observed request time — the table that shows the workloads
// stress different layers.
func PrintShares(w io.Writer, recs []Record) {
	layers := []string{"transport.self_ms", "server_core.self_ms", "shardbe.self_ms", "sqldb.exec_ms", "backend.stats_ms", "backend.meta_ms"}
	fmt.Fprintf(w, "%-15s %10s", "share of request", "client_ms")
	for _, l := range layers {
		fmt.Fprintf(w, " %20s", l)
	}
	fmt.Fprintf(w, " %10s %10s\n", "sum", "overhead")
	for _, r := range recs {
		total := r.Layers["request.client_ms"]
		if total == 0 {
			continue
		}
		fmt.Fprintf(w, "%-15s %10.4g", r.Workload, total)
		for _, l := range layers {
			fmt.Fprintf(w, " %19.1f%%", 100*r.Layers[l]/total)
		}
		fmt.Fprintf(w, " %9.1f%% %9.3fx\n", 100*r.Layers["layers.sum_ratio"], r.Metrics["trace_overhead_ratio"])
	}
}
