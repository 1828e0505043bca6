// Package docscheck keeps the repository's documentation from rotting:
// it verifies that every relative markdown link in README.md and docs/
// points at a file that exists, that every markdown file a Go source
// names exists, that the architecture docs stay linked from the README,
// and that the two tables documenting declared-once
// schemas — the README's /api/recommend fields and OBSERVABILITY.md's
// metric families — list exactly what the code declares. CI runs it as
// a dedicated step.
package docscheck

import (
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"runtime"
	"strings"
	"testing"

	"seedb/internal/core"
	"seedb/internal/server"
	"seedb/internal/sqldb"
)

// repoRoot locates the repository root from this file's location.
func repoRoot(t *testing.T) string {
	t.Helper()
	_, file, _, ok := runtime.Caller(0)
	if !ok {
		t.Fatal("cannot locate caller")
	}
	return filepath.Clean(filepath.Join(filepath.Dir(file), "..", ".."))
}

// mdFiles returns the markdown files under the docs contract: README.md
// plus everything in docs/.
func mdFiles(t *testing.T, root string) []string {
	t.Helper()
	files := []string{filepath.Join(root, "README.md")}
	entries, err := os.ReadDir(filepath.Join(root, "docs"))
	if err != nil {
		t.Fatalf("docs/ directory: %v", err)
	}
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".md") {
			files = append(files, filepath.Join(root, "docs", e.Name()))
		}
	}
	return files
}

// linkRE matches markdown inline links [text](target).
var linkRE = regexp.MustCompile(`\[[^\]]*\]\(([^)\s]+)\)`)

// TestRelativeLinksResolve fails on any relative markdown link whose
// target file does not exist.
func TestRelativeLinksResolve(t *testing.T) {
	root := repoRoot(t)
	for _, f := range mdFiles(t, root) {
		body, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range linkRE.FindAllStringSubmatch(string(body), -1) {
			target := m[1]
			if strings.HasPrefix(target, "http://") || strings.HasPrefix(target, "https://") ||
				strings.HasPrefix(target, "mailto:") || strings.HasPrefix(target, "#") {
				continue
			}
			if i := strings.IndexByte(target, '#'); i >= 0 {
				target = target[:i]
			}
			if target == "" {
				continue
			}
			resolved := filepath.Join(filepath.Dir(f), target)
			if _, err := os.Stat(resolved); err != nil {
				rel, _ := filepath.Rel(root, f)
				t.Errorf("%s: dangling link %q (resolved %s)", rel, m[1], resolved)
			}
		}
	}
}

// mdPathRE matches a markdown file name or path in Go source.
var mdPathRE = regexp.MustCompile(`[A-Za-z0-9_./-]*[A-Za-z0-9_]\.md\b`)

// TestGoFilesCiteExistingDocs fails on any markdown file a root-module
// Go file names (in code or comments) that does not exist, resolved
// against the file's directory, the repository root or docs/.
func TestGoFilesCiteExistingDocs(t *testing.T) {
	root := repoRoot(t)
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			// benchmarks/ is its own module; dot directories hold no source.
			if path != root && (d.Name() == "benchmarks" || strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, name := range mdPathRE.FindAllString(string(src), -1) {
			found := false
			for _, dir := range []string{filepath.Dir(path), root, filepath.Join(root, "docs")} {
				if _, err := os.Stat(filepath.Join(dir, name)); err == nil {
					found = true
				}
			}
			if !found {
				rel, _ := filepath.Rel(root, path)
				t.Errorf("%s names %s, which does not exist", rel, name)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestArchitectureDocsLinkedFromREADME pins the documentation contract
// of the backend seam: both guides exist, the README links them, and
// each names the four layers and the capability flag it documents.
func TestArchitectureDocsLinkedFromREADME(t *testing.T) {
	root := repoRoot(t)
	readme, err := os.ReadFile(filepath.Join(root, "README.md"))
	if err != nil {
		t.Fatal(err)
	}
	for _, doc := range []string{"docs/ARCHITECTURE.md", "docs/BACKENDS.md", "docs/OBSERVABILITY.md"} {
		if !strings.Contains(string(readme), "("+doc+")") {
			t.Errorf("README.md does not link %s", doc)
		}
	}

	arch, err := os.ReadFile(filepath.Join(root, "docs", "ARCHITECTURE.md"))
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"internal/core", "internal/cache", "internal/backend",
		"internal/sqldb", "internal/server", "SupportsPhasedExecution"} {
		if !strings.Contains(string(arch), want) {
			t.Errorf("ARCHITECTURE.md does not mention %s", want)
		}
	}

	be, err := os.ReadFile(filepath.Join(root, "docs", "BACKENDS.md"))
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Capabilities", "TableVersion", "conformancetest",
		"SupportsPhasedExecution", "RegisterBackend",
		// cross-process tracing wire contract
		"Traceparent", "child.query", "remote=child"} {
		if !strings.Contains(string(be), want) {
			t.Errorf("BACKENDS.md does not mention %s", want)
		}
	}
}

// TestBenchmarksDocPinned pins the one-benchmark-generation contract.
// docs/BENCHMARKS.md is the seedb-loadgen report guide (workload model,
// accounting invariant, gates); performance numbers live under
// benchmarks/ and nowhere else: the root holds BENCHMARK.json and no
// BENCH_*.json snapshot, and the paper-reproduction harness renders its
// scorecard as markdown (docs/REPRODUCTION.md, linked from the README)
// rather than growing a machine-readable format of its own.
func TestBenchmarksDocPinned(t *testing.T) {
	root := repoRoot(t)
	readme, err := os.ReadFile(filepath.Join(root, "README.md"))
	if err != nil {
		t.Fatal(err)
	}
	for _, link := range []string{"(docs/BENCHMARKS.md)", "(benchmarks/README.md)", "(docs/REPRODUCTION.md)"} {
		if !strings.Contains(string(readme), link) {
			t.Errorf("README.md does not link %s", link)
		}
	}
	doc, err := os.ReadFile(filepath.Join(root, "docs", "BENCHMARKS.md"))
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"seedb-loadgen", "benchmarks/README.md",
		// load workload model + gates
		"recommend", "ingest", "cache-hostile", "tail_fraction",
		"driver_queries_observed", "server_queries_delta", "queries_match",
		"p50_ms", "p95_ms", "p99_ms", "Report.Validate", "-chaos",
	} {
		if !strings.Contains(string(doc), want) {
			t.Errorf("BENCHMARKS.md does not mention %s", want)
		}
	}

	if _, err := os.Stat(filepath.Join(root, "BENCHMARK.json")); err != nil {
		t.Errorf("the repository root must hold BENCHMARK.json: %v", err)
	}
	snapshots, err := filepath.Glob(filepath.Join(root, "BENCH_*.json"))
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range snapshots {
		t.Errorf("%s: benchmark results belong in benchmarks/ledger.jsonl, not in a root snapshot", filepath.Base(m))
	}
	for _, dir := range []string{"internal/bench", "cmd/seedb-bench"} {
		files, err := filepath.Glob(filepath.Join(root, dir, "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		if len(files) == 0 {
			t.Errorf("%s holds no Go files", dir)
		}
		for _, f := range files {
			src, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			if strings.Contains(string(src), "json:\"") {
				t.Errorf("%s/%s declares a JSON payload; machine-readable numbers belong to benchmarks/", dir, filepath.Base(f))
			}
		}
	}
}

// TestObservabilityDocPinned pins the telemetry documentation contract:
// the guide must describe the span taxonomy, the slow-log schema and the
// knobs that switch each piece on. (The metric families are checked
// against the server's own table by TestMetricTableMatchesServer.)
func TestObservabilityDocPinned(t *testing.T) {
	root := repoRoot(t)
	obs, err := os.ReadFile(filepath.Join(root, "docs", "OBSERVABILITY.md"))
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		// span taxonomy
		"recommend", "cache.do", "sqldb.scan", "shard.fanout", "shard.exec",
		// slow-log schema + knobs
		"elapsed_ms", "threshold_ms", "-slow-query",
		"-slowlog", "-pprof", "trace",
		// distributed tracing: identity, propagation, sampling, retention
		"Traceparent", "WithRemoteTrace", "child.query", "AttachRemote",
		"-trace-sample", "SetTraceSampling", "/api/traces",
		"spans_dropped", "trace_id", "TraceStore",
		// tooling
		"seedb-promlint", "ValidatePrometheusText",
	} {
		if !strings.Contains(string(obs), want) {
			t.Errorf("OBSERVABILITY.md does not mention %s", want)
		}
	}
	arch, err := os.ReadFile(filepath.Join(root, "docs", "ARCHITECTURE.md"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(arch), "## Telemetry") {
		t.Error("ARCHITECTURE.md has no Telemetry section")
	}
	if !strings.Contains(string(arch), "OBSERVABILITY.md") {
		t.Error("ARCHITECTURE.md does not link OBSERVABILITY.md")
	}
}

// TestResilienceDocPinned pins the graceful-degradation documentation
// contract: the guide must exist, be linked from the README, and
// describe the breaker state machine, the degraded/stale response
// markers, the admission knobs and the chaos harness.
func TestResilienceDocPinned(t *testing.T) {
	root := repoRoot(t)
	readme, err := os.ReadFile(filepath.Join(root, "README.md"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(readme), "(docs/RESILIENCE.md)") {
		t.Error("README.md does not link docs/RESILIENCE.md")
	}
	doc, err := os.ReadFile(filepath.Join(root, "docs", "RESILIENCE.md"))
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		// breaker state machine + knobs
		"closed", "open", "half_open", "FailureThreshold", "Cooldown",
		"-breakers",
		// degraded results contract
		"allow_partial", "degraded_shards", "ShardsDegraded",
		"never admitted to the result cache",
		// admission control
		"-max-inflight", "-queue-wait", "Retry-After", "503", "429",
		// stale serving, panics, drain
		"serve_stale", "seedb_panics_total", "-drain-timeout", "SIGTERM",
		// chaos harness
		"seedb-loadgen -chaos", "faultbe",
	} {
		if !strings.Contains(string(doc), want) {
			t.Errorf("RESILIENCE.md does not mention %s", want)
		}
	}
}

// tableRows returns the first cell's `code` text (and the second cell)
// of every markdown table row in doc whose first cell matches cellRE.
func tableRows(doc string, cellRE *regexp.Regexp) map[string]string {
	rows := map[string]string{}
	for _, line := range strings.Split(doc, "\n") {
		cells := strings.Split(line, "|")
		if len(cells) < 3 {
			continue
		}
		if m := cellRE.FindStringSubmatch(strings.TrimSpace(cells[1])); m != nil {
			rows[m[1]] = strings.TrimSpace(cells[2])
		}
	}
	return rows
}

// TestRecommendFieldsMatchSchema compares the README's /api/recommend
// field table with the JSON tags of the one request struct, in both
// directions: a field added to the schema must be documented, and a
// documented field must exist.
func TestRecommendFieldsMatchSchema(t *testing.T) {
	readme, err := os.ReadFile(filepath.Join(repoRoot(t), "README.md"))
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(readme), "The `POST /api/recommend` body")
	if !ok {
		t.Fatal("README.md has no /api/recommend field list")
	}
	section, _, _ = strings.Cut(section, "\n#")
	documented := tableRows(section, regexp.MustCompile("^`([a-z_]+)`$"))

	rt := reflect.TypeOf(core.RecommendRequest{})
	for i := 0; i < rt.NumField(); i++ {
		tag, _, _ := strings.Cut(rt.Field(i).Tag.Get("json"), ",")
		if _, ok := documented[tag]; !ok {
			t.Errorf("README.md does not document /api/recommend field %q (RecommendRequest.%s)", tag, rt.Field(i).Name)
		}
		delete(documented, tag)
	}
	for tag := range documented {
		t.Errorf("README.md documents /api/recommend field %q, which RecommendRequest does not have", tag)
	}
}

// TestMetricTableMatchesServer compares OBSERVABILITY.md's metric table
// with the families a server actually exposes (every family writes its
// TYPE line even with no samples), in both directions and including
// the type column.
func TestMetricTableMatchesServer(t *testing.T) {
	obs, err := os.ReadFile(filepath.Join(repoRoot(t), "docs", "OBSERVABILITY.md"))
	if err != nil {
		t.Fatal(err)
	}
	documented := tableRows(string(obs), regexp.MustCompile("^`(seedb_[a-z_]+)(?:\\{[a-z_]+\\})?`$"))

	rec := httptest.NewRecorder()
	server.New(sqldb.NewDB()).ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	served := 0
	for _, line := range strings.Split(rec.Body.String(), "\n") {
		f := strings.Fields(line)
		if len(f) != 4 || f[0] != "#" || f[1] != "TYPE" {
			continue
		}
		served++
		name, kind := f[2], f[3]
		switch got, ok := documented[name]; {
		case !ok:
			t.Errorf("OBSERVABILITY.md does not list %s (%s)", name, kind)
		case got != kind:
			t.Errorf("OBSERVABILITY.md lists %s as %s, /metrics serves a %s", name, got, kind)
		}
		delete(documented, name)
	}
	if served == 0 {
		t.Fatalf("/metrics served no families:\n%s", rec.Body.String())
	}
	for name := range documented {
		t.Errorf("OBSERVABILITY.md lists %s, which /metrics does not serve", name)
	}
}
