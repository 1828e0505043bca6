package harness

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"

	"seedb/internal/backend"
	"seedb/internal/core"
	"seedb/internal/distance"
)

// utilityTolerance is how far a served utility may sit from the exact
// one: the two computations may sum floats in different orders (scan
// workers, shard merges), nothing more.
const utilityTolerance = 1e-9

// checker issues the correctness check's own requests, outside any
// timed window, and keeps the query count the server will have added
// for them.
type checker struct {
	e       *env
	hc      *http.Client
	queries int64
}

func (c *checker) getJSON(path string, out any) error {
	resp, err := c.hc.Get(c.e.base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// postOK posts a JSON body and returns the reply body of a 200.
func postOK(hc *http.Client, url string, body []byte) ([]byte, error) {
	resp, err := hc.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	reply, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("POST %s: status %d: %.200s", url, resp.StatusCode, reply)
	}
	return reply, nil
}

func (c *checker) recommend(b recBody) (*recResp, error) {
	reply, err := postOK(c.hc, c.e.base+recommendPath, mustJSON(b))
	if err != nil {
		return nil, err
	}
	var r recResp
	if err := json.Unmarshal(reply, &r); err != nil {
		return nil, err
	}
	c.queries += int64(r.QueriesExecuted)
	return &r, nil
}

// serverQueries reads the server's cumulative queries_executed.
func (c *checker) serverQueries() (int64, error) {
	var h struct {
		Executor struct {
			QueriesExecuted int64 `json:"queries_executed"`
		} `json:"executor"`
	}
	err := c.getJSON("/healthz", &h)
	return h.Executor.QueriesExecuted, err
}

// tableRows reads the served table's row count.
func (c *checker) tableRows() (int, error) {
	var tables []struct {
		Name string `json:"name"`
		Rows int    `json:"rows"`
	}
	if err := c.getJSON("/api/tables", &tables); err != nil {
		return 0, err
	}
	for _, t := range tables {
		if t.Name == c.e.spec.Name {
			return t.Rows, nil
		}
	}
	return 0, fmt.Errorf("table %q not served", c.e.spec.Name)
}

func rankingOf(r *recResp) ([]core.View, []float64) {
	views := make([]core.View, len(r.Recommendations))
	utils := make([]float64, len(r.Recommendations))
	for i, rec := range r.Recommendations {
		views[i] = core.View{Dimension: rec.Dimension, Measure: rec.Measure, Agg: core.AggFunc(rec.Aggregate)}
		utils[i] = rec.Utility
	}
	return views, utils
}

// sameRanking compares a served top-k with a reference one.
func sameRanking(got *recResp, wantViews []core.View, wantUtil []float64) error {
	views, utils := rankingOf(got)
	if len(views) != len(wantViews) {
		return fmt.Errorf("%d recommendations, want %d", len(views), len(wantViews))
	}
	for i, v := range views {
		if v != wantViews[i] {
			return fmt.Errorf("rank %d is %s, want %s", i+1, v, wantViews[i])
		}
		if math.Abs(utils[i]-wantUtil[i]) > utilityTolerance {
			return fmt.Errorf("rank %d (%s) utility %.12g, want %.12g", i+1, v, utils[i], wantUtil[i])
		}
	}
	return nil
}

// validity applies the workload's own predicate to the timed responses:
// the run measured what the workload says it measures.
func validity(w Workload, t *tally) []string {
	var v []string
	n := len(t.RecLat)
	if n == 0 {
		return []string{"no recommend completed inside the window"}
	}
	if t.Failed > 0 {
		v = append(v, fmt.Sprintf("%d requests failed or were refused (first: %v)", t.Failed, t.FirstErrors))
	}
	if t.WrongBackend > 0 {
		v = append(v, fmt.Sprintf("%d responses came from another backend than the workload names", t.WrongBackend))
	}
	switch {
	case w.Scan:
		if t.ServedFromCache > 0 {
			v = append(v, fmt.Sprintf("%d of %d timed responses were served from cache; the workload must miss every time", t.ServedFromCache, n))
		}
		if t.Fallback > 0 {
			v = append(v, fmt.Sprintf("%d queries fell back to the row interpreter", t.Fallback))
		}
		if w.Shard && t.NoFanout > 0 {
			v = append(v, fmt.Sprintf("%d responses report no shard fan-out", t.NoFanout))
		}
	case w.Hot:
		if float64(t.HitNoQueries) < 0.99*float64(n) {
			v = append(v, fmt.Sprintf("only %d of %d timed responses were whole-request cache hits with no query", t.HitNoQueries, n))
		}
	case w.Ingest:
		if len(t.IngLat) == 0 {
			v = append(v, "no ingest completed inside the window")
		}
	}
	return v
}

// checkRun verifies the outputs of a finished run. It returns every
// violation found and two diagnostics: the mean top-k accuracy of the
// measured (default COMB+CI) configuration against the exact ranking, and
// — on ingest_stream — how many check requests the cache answered with a
// result that a cache-bypassing computation at the same, final version
// does not reproduce.
//
// For each of the plan's check requests the served result under
// strategy "sharing" / pruning "none" must equal core.Engine.ExactTopK
// computed here on an embedded backend over the same table — through the
// workload's own backend, and on shard_fanout through the embedded
// default too. queriesBefore and rowsBefore are the server's counters
// right after set-up.
//
// A stale cache answer is counted, not failed: the engine at this commit
// reads a table's row count before its version token, so a request that
// overlaps an ingest can cache a scan of the old rows under the new
// version (README, "Findings"). Failing on it would make ingest_stream
// unrunnable until that is fixed; the count makes the fix visible.
func checkRun(e *env, w Workload, pl *plan, t *tally, queriesBefore int64, rowsBefore int) (violations []string, accuracy float64, stale int, err error) {
	c := &checker{e: e, hc: &http.Client{}}
	defer c.hc.CloseIdleConnections()
	violations = validity(w, t)
	add := func(format string, args ...any) {
		if len(violations) < 12 {
			violations = append(violations, fmt.Sprintf(format, args...))
		}
	}

	ctx := context.Background()
	oracle := core.NewEngine(backend.NewEmbedded(e.db))
	noCache := false
	served := []string{recommendBackend(w, e.rec != nil)}
	if w.Shard {
		served = append(served, "")
	}
	var accSum float64
	for _, b := range pl.checks {
		exact, err := oracle.ExactTopK(ctx, core.Request{Table: b.Table, TargetWhere: b.TargetWhere}, distance.EMD, b.K)
		if err != nil {
			return nil, 0, 0, fmt.Errorf("exact top-k for %q: %w", b.TargetWhere, err)
		}
		wantViews := core.ViewsOf(exact.Recommendations)
		wantUtil := make([]float64, len(exact.Recommendations))
		for i, r := range exact.Recommendations {
			wantUtil[i] = r.Utility
		}
		for _, be := range served {
			sb := b
			sb.Strategy, sb.Pruning, sb.Cache, sb.Backend = "sharing", "none", &noCache, be
			got, err := c.recommend(sb)
			if err != nil {
				return nil, 0, 0, err
			}
			if err := sameRanking(got, wantViews, wantUtil); err != nil {
				add("%q via backend %q (sharing, no pruning) differs from the exact top-%d: %v", b.TargetWhere, be, b.K, err)
			}
		}
		got, err := c.recommend(b)
		if err != nil {
			return nil, 0, 0, err
		}
		gotViews, _ := rankingOf(got)
		accSum += core.Accuracy(wantViews, gotViews)
		if w.Ingest {
			// Writes have stopped. Whatever the cache serves now should be
			// what a cache-bypassing computation returns at the final
			// version; an answer computed on older rows differs.
			fresh := b
			fresh.Cache = &noCache
			want, err := c.recommend(fresh)
			if err != nil {
				return nil, 0, 0, err
			}
			wantViews, wantUtil := rankingOf(want)
			if sameRanking(got, wantViews, wantUtil) != nil {
				stale++
			}
		}
	}
	accuracy = accSum / float64(len(pl.checks))

	if w.Ingest {
		rows, err := c.tableRows()
		if err != nil {
			return nil, 0, 0, err
		}
		if rows != rowsBefore+t.AckedRows {
			add("table holds %d rows, want %d initial + %d acknowledged", rows, rowsBefore, t.AckedRows)
		}
	}
	after, err := c.serverQueries()
	if err != nil {
		return nil, 0, 0, err
	}
	if got, want := t.AllQueries+c.queries, after-queriesBefore; got != want {
		add("responses report %d queries executed, the server's /healthz counted %d", got, want)
	}
	return violations, accuracy, stale, nil
}
