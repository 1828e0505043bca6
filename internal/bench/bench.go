// Package bench contains the experiment harness that regenerates every
// table and figure of the SeeDB paper's evaluation (Sections 5 and 6).
// Each experiment is a function from a Config to a formatted Table whose
// rows mirror what the paper reports; bench_test.go exposes each as a
// testing.B benchmark and cmd/seedb-bench drives them from the command
// line.
//
// Absolute numbers depend on the host and on the embedded substrate; the
// experiments are designed so the paper's *shapes* reproduce: who wins,
// by roughly what factor, and where crossovers fall. Each table carries
// the paper's expectation as a note; "seedb-bench -all -o FILE" keeps a
// run's tables.
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

// newEngine wires an engine over the embedded store through the backend
// seam; the experiments always run against the in-process substrate.
func newEngine(db *sqldb.DB) *core.Engine {
	return core.NewEngine(backend.NewEmbedded(db))
}

// Config scales the experiments.
type Config struct {
	// Quick shrinks datasets and sweeps for CI-friendly runtimes.
	Quick bool
	// PaperScale uses the full Table 1 row counts (hours of runtime).
	PaperScale bool
	// Runs is the number of repetitions for quality experiments (the
	// paper uses 20; default 5, quick 3).
	Runs int
	// Seed drives run-to-run data shuffling.
	Seed int64
	// Parallelism for parallel-query execution (0 = GOMAXPROCS).
	Parallelism int
}

// withDefaults fills unset fields.
func (c Config) withDefaults() Config {
	if c.Runs <= 0 {
		if c.Quick {
			c.Runs = 3
		} else {
			c.Runs = 5
		}
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// rowsFor picks the generated row count for a dataset under the config.
func (c Config) rowsFor(spec dataset.Spec) int {
	if c.PaperScale {
		return spec.PaperRows
	}
	rows := spec.Rows
	if c.Quick {
		// Quick mode: cap dataset sizes so the full suite runs in
		// minutes on a laptop (air10 stays 5x air, as in Table 1).
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

// Table is a formatted experiment result.
type Table struct {
	ID     string // e.g. "figure5a"
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// AddRow appends one formatted row.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// String renders the table as aligned text.
func (t *Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Header)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, row := range t.Rows {
		writeRow(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// Experiment is a named, runnable experiment.
type Experiment struct {
	ID   string
	Name string
	Run  func(ctx context.Context, cfg Config) ([]*Table, error)
}

// All returns every experiment, in paper order.
func All() []Experiment {
	return []Experiment{
		{"table1", "Dataset inventory (Table 1)", Table1},
		{"fig5", "Performance gains from all optimizations (Figure 5)", Figure5},
		{"fig6", "Baseline NO_OPT scaling (Figure 6)", Figure6},
		{"fig7", "Multiple aggregates and parallelism (Figure 7)", Figure7},
		{"fig8", "Group-by memory and bin packing (Figure 8)", Figure8},
		{"fig9", "All sharing optimizations (Figure 9)", Figure9},
		{"fig10", "Distribution of view utilities (Figure 10)", Figure10},
		{"fig11", "BANK pruning quality (Figure 11)", Figure11},
		{"fig12", "DIAB pruning quality (Figure 12)", Figure12},
		{"fig13", "Pruning latency reduction (Figure 13)", Figure13},
		{"fig15", "Deviation metric vs expert ground truth (Figure 15)", Figure15},
		{"table2", "SEEDB vs MANUAL bookmarking (Table 2)", Table2},
		{"ablations", "Design-choice ablations (beyond the paper)", Ablations},
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

// buildShuffled generates a dataset with rows inserted in a shuffled
// order (the paper randomizes data order between quality-experiment
// runs) and returns a single-table DB.
func buildShuffled(spec dataset.Spec, layout sqldb.Layout, shuffleSeed int64) (*sqldb.DB, error) {
	var rows [][]sqldb.Value
	err := spec.Generate(func(vals []sqldb.Value) error {
		row := make([]sqldb.Value, len(vals))
		copy(row, vals)
		rows = append(rows, row)
		return nil
	})
	if err != nil {
		return nil, err
	}
	if shuffleSeed != 0 {
		rng := rand.New(rand.NewSource(shuffleSeed))
		rng.Shuffle(len(rows), func(i, j int) { rows[i], rows[j] = rows[j], rows[i] })
	}
	db := sqldb.NewDB()
	t, err := db.CreateTable(spec.Name, spec.Schema(), layout)
	if err != nil {
		return nil, err
	}
	for _, r := range rows {
		if err := t.AppendRow(r); err != nil {
			return nil, err
		}
	}
	return db, nil
}

// build generates a dataset in insertion order.
func build(spec dataset.Spec, layout sqldb.Layout) (*sqldb.DB, error) {
	db, _, err := dataset.BuildDB(spec, layout)
	return db, err
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

// timeRecommend runs one Recommend call and returns elapsed time plus the
// result.
func timeRecommend(ctx context.Context, eng *core.Engine, req core.Request, opts core.Options) (time.Duration, *core.Result, error) {
	start := time.Now()
	res, err := eng.Recommend(ctx, req, opts)
	return time.Since(start), res, err
}

// ms formats a duration as milliseconds with sensible precision.
func ms(d time.Duration) string {
	v := float64(d.Microseconds()) / 1000
	switch {
	case v >= 1000:
		return fmt.Sprintf("%.1fs", v/1000)
	case v >= 100:
		return fmt.Sprintf("%.0fms", v)
	default:
		return fmt.Sprintf("%.2fms", v)
	}
}

// speedup formats a ratio as "N.Nx".
func speedup(base, other time.Duration) string {
	if other <= 0 {
		return "-"
	}
	return fmt.Sprintf("%.1fx", float64(base)/float64(other))
}

// f3 formats a float with 3 decimals.
func f3(x float64) string { return fmt.Sprintf("%.3f", x) }

// f4 formats a float with 4 decimals.
func f4(x float64) string { return fmt.Sprintf("%.4f", x) }

// oracleFor computes exact utilities for a request.
func oracleFor(ctx context.Context, db *sqldb.DB, req core.Request, k int) (*core.Result, error) {
	return newEngine(db).ExactTopK(ctx, req, distance.EMD, k)
}
