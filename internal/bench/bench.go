// Package bench reproduces the SeeDB paper's evaluation (Sections 5 and
// 6) as a scorecard. Each experiment measures what one figure or table
// is about in host-independent terms — SQL queries executed, base-table
// rows scanned, the largest distinct-group count of one query, accuracy,
// utility distance, AUROC — and turns every claim the paper makes about
// it into one Row: the claim, where the paper makes it, a predicate over
// the measurements, the measured value and the verdict. Wall time is
// measured alongside and only reported.
//
// Every run pins core.Options.ScanParallelism to 1, so float sums add in
// row order and the rows are byte-identical on any host and core count.
// docs/REPRODUCTION.md is Render's output at quick scale without wall
// times; go test ./internal/bench fails when the two differ, and
// cmd/seedb-bench prints the same rows at any scale, with wall times.
package bench

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"time"

	"seedb/internal/backend"
	"seedb/internal/core"
	"seedb/internal/dataset"
	"seedb/internal/distance"
	"seedb/internal/sqldb"
)

// Config scales the experiments.
type Config struct {
	// Quick shrinks datasets and sweeps; docs/REPRODUCTION.md is rendered
	// at this scale.
	Quick bool
	// PaperScale uses the full Table 1 row counts (hours of runtime).
	PaperScale bool
	// Runs is the number of data orders the pruning-quality figures
	// average over (the paper uses 20; default 5, quick 2).
	Runs int
	// Seed drives run-to-run data shuffling and the RANDOM baseline.
	Seed int64
}

// withDefaults fills unset fields.
func (c Config) withDefaults() Config {
	if c.Runs <= 0 {
		if c.Quick {
			c.Runs = 2
		} else {
			c.Runs = 5
		}
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// pick returns the sweep for the configured scale.
func (c Config) pick(quick, normal, paper []int) []int {
	switch {
	case c.PaperScale:
		return paper
	case c.Quick:
		return quick
	}
	return normal
}

// rowsFor picks the generated row count for a dataset under the config.
func (c Config) rowsFor(spec dataset.Spec) int {
	if c.PaperScale {
		return spec.PaperRows
	}
	rows := spec.Rows
	if c.Quick {
		// Quick mode caps dataset sizes so the whole scorecard runs in
		// seconds (air10 stays 5x air, as in Table 1).
		caps := map[string]int{
			"syn": 20_000, "syn10": 20_000, "syn100": 20_000,
			"bank": 12_000, "diab": 16_000, "air": 2_000, "air10": 10_000,
			"census": 8_000, "housing": 500, "movies": 1000,
		}
		if cap, ok := caps[spec.Name]; ok && rows > cap {
			rows = cap
		}
	}
	return rows
}

// Row is one paper claim checked against this reproduction.
type Row struct {
	// ID names the row stably: "<experiment>.<claim>".
	ID string
	// Source is where the paper makes the claim.
	Source string
	// Claim is the paper's claim; Predicate is what is checked, stated
	// over the measurements.
	Claim, Predicate string
	// Measured is the value the predicate was evaluated on.
	Measured string
	// Pass is the verdict.
	Pass bool
	// Wall lists the wall times behind the measurement: reported, never
	// asserted, and left out of docs/REPRODUCTION.md.
	Wall string
}

// Experiment measures one figure or table and returns its rows.
type Experiment struct {
	ID   string
	Name string
	Run  func(ctx context.Context, cfg Config) ([]Row, error)
}

// All returns every experiment, in paper order.
func All() []Experiment {
	return []Experiment{
		{"table1", "Dataset inventory (Table 1)", Table1},
		{"fig5", "Performance gains from all optimizations (Figure 5)", Figure5},
		{"fig6", "Baseline NO_OPT scaling (Figure 6)", Figure6},
		{"fig7", "Multiple aggregates per query (Figure 7a)", Figure7},
		{"fig8", "Bin packing vs MAX_GB (Figure 8b)", Figure8},
		{"fig9", "All sharing optimizations (Figure 9)", Figure9},
		{"fig10", "Distribution of view utilities (Figure 10)", Figure10},
		{"fig11", "BANK pruning quality (Figure 11)", Figure11},
		{"fig12", "DIAB pruning quality (Figure 12)", Figure12},
		{"fig13", "Pruning work reduction (Figure 13)", Figure13},
		{"fig15", "Deviation ranking vs planted interestingness (Figure 15)", Figure15},
		{"distance", "Alternative distance functions (technical report)", DistanceAgreement},
		{"early", "COMB_EARLY approximation (Figure 5)", EarlyReturn},
	}
}

// ByID resolves one experiment.
func ByID(id string) (Experiment, error) {
	for _, e := range All() {
		if e.ID == id {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("bench: unknown experiment %q", id)
}

// Run runs the experiments in order and concatenates their rows.
func Run(ctx context.Context, cfg Config, exps []Experiment) ([]Row, error) {
	var rows []Row
	for _, e := range exps {
		rs, err := e.Run(ctx, cfg)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", e.ID, err)
		}
		rows = append(rows, rs...)
	}
	return rows, nil
}

// buildShuffled generates a dataset with rows inserted in a shuffled
// order (the paper randomizes data order between quality-experiment
// runs) and returns a single-table DB; seed 0 keeps generation order.
func buildShuffled(spec dataset.Spec, layout sqldb.Layout, seed int64) (*sqldb.DB, error) {
	if seed == 0 {
		db, _, err := dataset.BuildDB(spec, layout)
		return db, err
	}
	var rows [][]sqldb.Value
	err := spec.Generate(func(vals []sqldb.Value) error {
		rows = append(rows, append([]sqldb.Value(nil), vals...))
		return nil
	})
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(rows), func(i, j int) { rows[i], rows[j] = rows[j], rows[i] })
	db := sqldb.NewDB()
	t, err := db.CreateTable(spec.Name, spec.Schema(), layout)
	if err != nil {
		return nil, err
	}
	if err := t.Append(rows); err != nil {
		return nil, err
	}
	return db, nil
}

// engineFor generates a dataset in insertion order and wires an engine
// over it through the backend seam.
func engineFor(spec dataset.Spec, layout sqldb.Layout) (*core.Engine, error) {
	db, err := buildShuffled(spec, layout, 0)
	if err != nil {
		return nil, err
	}
	return core.NewEngine(backend.NewEmbedded(db)), nil
}

// requestFor builds the standard request for a dataset spec: target
// subset per the spec's predicate, complement reference (which maps the
// planted intended utilities 1:1 onto measured utilities), view space
// from the spec's view dimensions and measures, AVG aggregate.
func requestFor(spec dataset.Spec) core.Request {
	return core.Request{
		Table:       spec.Name,
		TargetWhere: spec.TargetPredicate(),
		Reference:   core.RefComplement,
		Dimensions:  spec.ViewDimNames(),
		Measures:    spec.MeasureNames(),
		Aggs:        []core.AggFunc{core.AggAvg},
	}
}

// cost is what one Recommend did: SQL queries executed, base-table rows
// visited, the largest distinct-group count of one query, and the wall
// time, which is only reported.
type cost struct {
	queries   int
	rows      int64
	maxGroups int
	wall      time.Duration
}

// recommend runs one request with every scan on one worker, so float
// sums add in row order and utilities are identical on every host.
func recommend(ctx context.Context, eng *core.Engine, req core.Request, opts core.Options) (*core.Result, cost, error) {
	opts.ScanParallelism = 1
	start := time.Now()
	res, err := eng.Recommend(ctx, req, opts)
	if err != nil {
		return nil, cost{}, err
	}
	m := res.Metrics
	return res, cost{m.QueriesExecuted, m.RowsScanned, m.MaxGroups, time.Since(start)}, nil
}

// oracle scores every view exactly (SHARING, no pruning) under dist and
// returns them ranked: the ground truth the quality metrics compare to.
func oracle(ctx context.Context, eng *core.Engine, req core.Request, dist distance.Func) (*core.Result, error) {
	res, _, err := recommend(ctx, eng, req, core.Options{
		Strategy: core.Sharing, Distance: dist, KeepAllViews: true,
	})
	return res, err
}

// list formats every element with f and joins them with ", ".
func list[T any](xs []T, f func(T) string) string {
	out := make([]string, len(xs))
	for i, x := range xs {
		out[i] = f(x)
	}
	return strings.Join(out, ", ")
}

// round trims a wall time for the report's wall column.
func round(d time.Duration) time.Duration { return d.Round(100 * time.Microsecond) }
