package conformancetest

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"seedb/internal/core"
	"seedb/internal/dataset"
	"seedb/internal/distance"
	"seedb/internal/sqldb"
)

// SourceTable is the name of every generated case's table.
const SourceTable = "conf"

// numCases is how many Recommend cases every harness run generates; the
// case with index i is generated from seed i+1.
const numCases = 25

// orders are the physical row orders cases cycle through — the axis
// the pruners' random row-order assumption rests on: generation order,
// sorted by the target predicate's column, sorted by another dimension,
// sorted by a measure, and a drifted tail appended after load.
var orders = []string{"generated", "target", "dim", "measure", "drift"}

// Case is one generated Recommend case: a table, its physical row order,
// a request over it and the configuration a backend runs it under. Its
// Go literal (%#v), which every failing check prints, reproduces it
// without the generator: paste it in place of the check's genCase call.
type Case struct {
	Seed   int64
	Spec   dataset.SynthSpec
	Layout sqldb.Layout
	Order  string // one of orders
	// SortBy is the column Order sorts by: the target predicate's first
	// column for "target", another column otherwise.
	SortBy string
	// Tail is the number of drifted rows appended after the backend
	// under test is built ("drift" only).
	Tail   int
	Req    core.Request
	Config string
	Opts   core.Options
}

// config is one named engine configuration a case may run under.
type config struct {
	name string
	opts core.Options
}

// configs spans strategies × pruning schemes × group-by strategies ×
// aggregate sharing; cases cycle through it.
var configs = []config{
	{"noopt", core.Options{Strategy: core.NoOpt}},
	{"sharing", core.Options{Strategy: core.Sharing}},
	{"sharing/multi-agg", core.Options{Strategy: core.Sharing, MaxAggregatesPerQuery: 2}},
	{"sharing/no-combine-aggs", core.Options{Strategy: core.Sharing, MaxAggregatesPerQuery: 1}},
	{"sharing/binpack", core.Options{Strategy: core.Sharing, GroupBy: core.GroupByBinPack, MemoryBudget: 64}},
	{"sharing/maxgb", core.Options{Strategy: core.Sharing, GroupBy: core.GroupByMaxN, MaxGroupBy: 2}},
	{"comb/ci", core.Options{Strategy: core.Comb, Pruning: core.CIPruning, Phases: 6}},
	{"comb/mab", core.Options{Strategy: core.Comb, Pruning: core.MABPruning}},
	{"comb/nopruning", core.Options{Strategy: core.Comb, Pruning: core.NoPruning, Phases: 5}},
	{"comb/random", core.Options{Strategy: core.Comb, Pruning: core.RandomPruning, Seed: 7}},
	{"combearly/ci", core.Options{Strategy: core.CombEarly, Pruning: core.CIPruning, Phases: 8, ConfidenceScale: 0.4}},
}

// genCase generates case i of numCases. The axes every backend must see
// are functions of the case index, so the cases together cover each row
// order × distance pair, both layouts, all reference modes, both target
// shapes, listed and derived views and every configuration; the data is
// drawn from the case's seed. Every target predicate selects on a column
// other columns depend on — d1 nests under d0, and code and price follow
// qty — so each case has views that stand out, which is what pruning has
// to find.
func genCase(i int) Case {
	seed := int64(i + 1)
	rng := rand.New(rand.NewSource(seed))
	maxCode := 3 + rng.Intn(6)
	// Quantized floats with bounded magnitude make every partial sum
	// exact, so every comparison can be bit for bit.
	cols := []dataset.SynthColumn{
		{Name: "d0", Type: "string", Cardinality: 3 + rng.Intn(4), Dist: []string{dataset.DistUniform, dataset.DistZipf}[rng.Intn(2)]},
		{Name: "d1", Type: "string", Parent: "d0", Fanout: 2 + rng.Intn(2), NullRate: 0.02},
		{Name: "d2", Type: "string", Cardinality: 2 + rng.Intn(6), Dist: dataset.DistNormal},
		{Name: "flag", Type: "bool", Dist: dataset.DistWeighted, Weights: []float64{0.3 + 0.4*rng.Float64()}},
		{Name: "qty", Type: "int", Min: 1, Max: 400},
		{Name: "code", Type: "int", Parent: "qty", Scale: float64(maxCode) / 400, StdDev: 0.5, Max: float64(maxCode)},
		{Name: "price", Type: "float", Parent: "qty", Scale: 0.25 + 0.5*rng.Float64(), StdDev: 10, Max: 250, Quantum: 0.25, NullRate: 0.05},
		{Name: "score", Type: "float", Max: 60, Quantum: 0.25},
	}
	c := Case{
		Seed:   seed,
		Spec:   dataset.SynthSpec{Name: SourceTable, Rows: 400 + rng.Intn(400), Seed: seed, Columns: cols},
		Layout: []sqldb.Layout{sqldb.LayoutCol, sqldb.LayoutCol, sqldb.LayoutRow}[i%3],
		Config: configs[i%len(configs)].name,
		Opts:   configs[i%len(configs)].opts,
	}
	c.Opts.K, c.Opts.Distance = 3+rng.Intn(2), distance.Funcs()[i/len(orders)%len(distance.Funcs())]
	c.Req = core.Request{Table: SourceTable, Reference: []core.RefMode{core.RefAll, core.RefComplement, core.RefCustom}[i%3]}
	// The two target shapes the benchmark sends: an equality and a
	// range conjunction.
	switch {
	case i/2%2 == 1:
		c.Req.TargetWhere = fmt.Sprintf("price > %d AND qty < %d", 20+rng.Intn(60), 150+rng.Intn(200))
	case rng.Intn(2) == 0:
		c.Req.TargetWhere = fmt.Sprintf("code = %d", rng.Intn(maxCode))
	default:
		c.Req.TargetWhere = fmt.Sprintf("d0 = '%s'", c.Spec.ValueName("d0", rng.Intn(3)))
	}
	if c.Req.Reference == core.RefCustom {
		c.Req.ReferenceWhere = fmt.Sprintf("score >= %d OR flag = TRUE", 10+rng.Intn(30))
	}
	if i/3%2 == 0 {
		c.Req.Dimensions = append([]string{"d0", "d1", "code"}, []string{"d2", "flag"}[:rng.Intn(3)]...)
		c.Req.Measures = []string{"qty", "price", "score"}[:2+rng.Intn(2)]
	}
	aggs := []core.AggFunc{core.AggAvg, core.AggSum, core.AggCount, core.AggMin, core.AggMax}
	rng.Shuffle(len(aggs), func(a, b int) { aggs[a], aggs[b] = aggs[b], aggs[a] })
	c.Req.Aggs = aggs[:2]
	return c.withOrder(orders[i%len(orders)])
}

// withOrder returns the case with its table in row order o.
func (c Case) withOrder(o string) Case {
	c.Order, c.SortBy, c.Tail = o, "", 0
	switch o {
	case "target":
		c.SortBy = strings.Fields(c.Req.TargetWhere)[0]
	case "dim":
		c.SortBy = map[bool]string{true: "d2", false: "flag"}[c.Seed%2 == 0]
	case "measure":
		c.SortBy = "score"
	case "drift":
		c.Tail = c.Spec.Rows / 4
	}
	return c
}

// String is the case's reproduction: its seed and its Go literal, as
// written inside this package.
func (c Case) String() string {
	return fmt.Sprintf("seed %d: %s", c.Seed, strings.TrimPrefix(fmt.Sprintf("%#v", c), "conformancetest."))
}

// source builds the case's table, in its row order and without the
// drift tail, in a new database.
func (c Case) source(tb testing.TB) *sqldb.DB {
	tb.Helper()
	var rows [][]sqldb.Value
	err := c.Spec.Generate(func(v []sqldb.Value) error {
		rows = append(rows, slices.Clone(v))
		return nil
	})
	if err != nil {
		tb.Fatal(err)
	}
	schema, _ := c.Spec.Schema() // Generate validated the spec
	db := sqldb.NewDB()
	tab, err := db.CreateTable(SourceTable, schema, c.Layout)
	if err != nil {
		tb.Fatal(err)
	}
	if col, ok := schema.Lookup(c.SortBy); ok {
		slices.SortStableFunc(rows, func(a, b []sqldb.Value) int { return a[col].Compare(b[col]) })
	}
	if err := tab.Append(rows); err != nil {
		tb.Fatal(err)
	}
	return db
}

// appendTail appends n drifted rows to db's table as one batch, the way
// /api/ingest does: every numeric column shifted up by half its range,
// drawn from another seed.
func (c Case) appendTail(tb testing.TB, db *sqldb.DB, n int) {
	tb.Helper()
	spec := c.Spec.WithSeed(c.Seed + 1000).WithRows(n)
	spec.Columns = slices.Clone(spec.Columns)
	for i, col := range spec.Columns {
		if col.Type == "int" || col.Type == "float" {
			shift := math.Floor((col.Max - col.Min) / 2)
			spec.Columns[i].Min, spec.Columns[i].Max, spec.Columns[i].Mean = col.Min+shift, col.Max+shift, col.Mean+shift
		}
	}
	var rows [][]sqldb.Value
	if err := spec.Generate(func(v []sqldb.Value) error {
		rows = append(rows, slices.Clone(v))
		return nil
	}); err != nil {
		tb.Fatal(err)
	}
	tab, _ := db.Table(SourceTable)
	if err := tab.Append(rows); err != nil {
		tb.Fatal(err)
	}
}
