// Package layers holds the replay probes of the benchmark: each probe
// times one layer's public functions on inputs captured from real
// requests (request and response bodies, the SQL the engine generated),
// with no server and no load around them. The traced benchmark run calls
// them after its measured window to fill the per-layer table, and the
// testing.B wrappers in this package call the very same functions on a
// small fixture, so a layer regression is attributable with benchstat
// and without a load run.
package layers

import (
	"context"
	"encoding/json"
	"fmt"

	"seedb/internal/backend"
	"seedb/internal/backend/shardbe"
	"seedb/internal/core"
	"seedb/internal/dataset"
	"seedb/internal/distance"
	"seedb/internal/server"
	"seedb/internal/sqldb"
)

// maxReplay bounds how many captured SQL texts a fixture replays to
// materialize result rows and shard parts: enough to cover the query
// shapes of one request's phases without making fixture construction a
// second benchmark.
const maxReplay = 8

// Merge is one captured query decomposed for the shard merge probe: the
// plan and the per-child partial results the router would hand to it.
type Merge struct {
	Plan  *sqldb.ShardPlan
	Parts []sqldb.ShardPart
}

// Distribution is one view's raw target/reference aggregates, the input
// of the utility computation.
type Distribution struct {
	Target, Reference map[string]float64
}

// Fixture is the captured input set the probes run on.
type Fixture struct {
	DB      *sqldb.DB
	Backend backend.Backend // embedded store over DB
	Table   string

	// Requests and Responses are /api/recommend bodies as they crossed
	// the wire; SQL is the engine-generated query text seen at the
	// backend seam.
	Requests  [][]byte
	Responses [][]byte
	SQL       []string

	// Derived by replaying the captures through public functions.
	Rows          []*backend.Rows
	Merges        []Merge // empty without shard children
	Request       core.Request
	Cardinalities []int
	Distributions []Distribution
	decoded       []server.RecommendResponse // Responses, as the handler held them
}

// NewFixture derives the probe inputs from captured traffic. children,
// when non-nil, are shard stores holding a partition of the same table;
// the captured SQL is then also replayed on them to obtain the parts the
// merge probe folds.
func NewFixture(ctx context.Context, db *sqldb.DB, table string, requests, responses [][]byte, sqls []string, children []*sqldb.DB) (*Fixture, error) {
	if len(requests) == 0 || len(responses) == 0 || len(sqls) == 0 {
		return nil, fmt.Errorf("layers: fixture needs captured requests (%d), responses (%d) and SQL (%d)",
			len(requests), len(responses), len(sqls))
	}
	f := &Fixture{
		DB: db, Backend: backend.NewEmbedded(db), Table: table,
		Requests: requests, Responses: responses, SQL: sqls,
	}
	t, ok := db.Table(table)
	if !ok {
		return nil, fmt.Errorf("layers: table %q not loaded", table)
	}
	f.decoded = make([]server.RecommendResponse, len(responses))
	for i, body := range responses {
		if err := json.Unmarshal(body, &f.decoded[i]); err != nil {
			return nil, fmt.Errorf("layers: captured response: %w", err)
		}
	}
	replay := sqls
	if len(replay) > maxReplay {
		replay = replay[:maxReplay]
	}
	for _, q := range replay {
		rows, _, err := f.Backend.Exec(ctx, q, EngineExecOptions())
		if err != nil {
			return nil, fmt.Errorf("layers: replaying %q: %w", q, err)
		}
		f.Rows = append(f.Rows, rows)
		if len(children) == 0 {
			continue
		}
		stmt, err := sqldb.Parse(q)
		if err != nil {
			return nil, err
		}
		plan, err := sqldb.NewShardPlan(stmt, t.Schema())
		if err != nil {
			return nil, err
		}
		m := Merge{Plan: plan}
		for _, child := range children {
			res, err := child.QueryOpts(plan.ChildSQL(), sqldb.ExecOptions{Ctx: ctx})
			if err != nil {
				return nil, fmt.Errorf("layers: child replay of %q: %w", plan.ChildSQL(), err)
			}
			m.Parts = append(m.Parts, sqldb.ShardPart{Rows: res.Rows, Groups: res.Stats.Groups})
		}
		f.Merges = append(f.Merges, m)
	}

	var req server.RecommendRequest
	if err := json.Unmarshal(requests[0], &req); err != nil {
		return nil, fmt.Errorf("layers: captured request: %w", err)
	}
	f.Request = core.Request{Table: table, TargetWhere: req.TargetWhere}
	eng := core.NewEngine(f.Backend)
	views, err := eng.Generator().Views(ctx, f.Request)
	if err != nil {
		return nil, err
	}
	var dims []string
	seen := map[string]bool{}
	for _, v := range views {
		if !seen[v.Dimension] {
			seen[v.Dimension] = true
			dims = append(dims, v.Dimension)
		}
	}
	if f.Cardinalities, err = eng.Generator().DimensionCardinalities(ctx, table, dims); err != nil {
		return nil, err
	}
	exact, err := eng.ExactTopK(ctx, f.Request, distance.EMD, len(views))
	if err != nil {
		return nil, err
	}
	for _, rec := range exact.AllViews {
		f.Distributions = append(f.Distributions, Distribution{Target: rec.TargetAgg, Reference: rec.ReferenceAgg})
	}
	return f, nil
}

// recorder captures the SQL an engine sends through the backend seam.
// Only SmallFixture uses it; the benchmark's tracing decorator captures
// SQL itself.
type recorder struct {
	backend.Backend
	sql []string
}

func (r *recorder) Exec(ctx context.Context, query string, opts backend.ExecOptions) (*backend.Rows, backend.ExecStats, error) {
	r.sql = append(r.sql, query)
	return r.Backend.Exec(ctx, query, opts)
}

// SmallFixture builds a fixture without a server: it generates a small
// traffic table, runs one default-configuration recommendation through
// a SQL-recording backend, and scatters the table over four shard
// stores, so every probe has real inputs. Request and response bodies
// are encoded from the same request and result.
func SmallFixture(rows int, seed int64) (*Fixture, error) {
	ctx := context.Background()
	db := sqldb.NewDB()
	spec := dataset.TrafficSpec().WithRows(rows).WithSeed(seed)
	if _, err := dataset.BuildSynth(db, spec, sqldb.LayoutCol); err != nil {
		return nil, err
	}
	rec := &recorder{Backend: backend.NewEmbedded(db)}
	req := server.RecommendRequest{Table: spec.Name, TargetWhere: "price > 25 AND sessions < 40", K: 5}
	// Parallelism 1 keeps the recorder's append single-threaded.
	res, err := core.NewEngine(rec).Recommend(ctx,
		core.Request{Table: req.Table, TargetWhere: req.TargetWhere},
		core.Options{K: req.K, Strategy: core.Comb, Pruning: core.CIPruning, Parallelism: 1})
	if err != nil {
		return nil, err
	}
	resp := server.RecommendResponse{Views: res.Metrics.Views, QueriesExecuted: res.Metrics.QueriesExecuted}
	for i, r := range res.Recommendations {
		resp.Recommendations = append(resp.Recommendations, server.RecommendedView{
			Rank: i + 1, Dimension: r.View.Dimension, Measure: r.View.Measure, Aggregate: string(r.View.Agg),
			Utility: r.Utility, Groups: r.Groups, Target: r.Target, Reference: r.Reference,
		})
	}
	reqBody, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	respBody, err := json.Marshal(resp)
	if err != nil {
		return nil, err
	}
	children, _ := shardbe.EmbeddedChildren(4)
	if err := shardbe.ScatterTable(db, spec.Name, children, shardbe.Blocks{Total: rows}); err != nil {
		return nil, err
	}
	return NewFixture(ctx, db, spec.Name, [][]byte{reqBody}, [][]byte{respBody}, rec.sql, children)
}
