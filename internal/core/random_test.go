package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"seedb/internal/distance"
	"seedb/internal/sqldb"
)

// randomTable builds a random schema (2-4 string dims, 1-3 float
// measures) and fills it with random rows in both layouts.
func randomTable(rng *rand.Rand) (*sqldb.DB, *sqldb.DB, Request) {
	nd := 2 + rng.Intn(3)
	nm := 1 + rng.Intn(3)
	cols := make([]sqldb.Column, 0, nd+nm)
	var dims, measures []string
	cards := make([]int, nd)
	for i := 0; i < nd; i++ {
		name := fmt.Sprintf("d%d", i)
		dims = append(dims, name)
		cards[i] = 2 + rng.Intn(6)
		cols = append(cols, sqldb.Column{Name: name, Type: sqldb.TypeString})
	}
	for j := 0; j < nm; j++ {
		name := fmt.Sprintf("m%d", j)
		measures = append(measures, name)
		cols = append(cols, sqldb.Column{Name: name, Type: sqldb.TypeFloat})
	}
	schema := sqldb.MustSchema(cols...)
	dbRow, dbCol := sqldb.NewDB(), sqldb.NewDB()
	tRow, _ := dbRow.CreateTable("t", schema, sqldb.LayoutRow)
	tCol, _ := dbCol.CreateTable("t", schema, sqldb.LayoutCol)
	n := 300 + rng.Intn(700)
	for r := 0; r < n; r++ {
		row := make([]sqldb.Value, 0, nd+nm)
		for i := 0; i < nd; i++ {
			row = append(row, sqldb.Str(fmt.Sprintf("v%d", rng.Intn(cards[i]))))
		}
		for j := 0; j < nm; j++ {
			row = append(row, sqldb.Float(rng.NormFloat64()*10+50))
		}
		if err := tRow.AppendRow(row); err != nil {
			panic(err)
		}
		if err := tCol.AppendRow(row); err != nil {
			panic(err)
		}
	}
	req := Request{
		Table:       "t",
		TargetWhere: "d0 = 'v0'",
		Dimensions:  dims,
		Measures:    measures,
		Aggs:        []AggFunc{AggAvg, AggSum, AggCount, AggMin, AggMax}[0 : 1+rng.Intn(4)],
	}
	switch rng.Intn(3) {
	case 0:
		req.Reference = RefAll
	case 1:
		req.Reference = RefComplement
	default:
		req.Reference = RefCustom
		req.ReferenceWhere = "d1 = 'v1' OR d1 = 'v0'"
	}
	return dbRow, dbCol, req
}

// utilitiesOf runs a strategy and returns view-key → utility.
func utilitiesOf(t *testing.T, db *sqldb.DB, req Request, opts Options) map[string]float64 {
	t.Helper()
	opts.KeepAllViews = true
	opts.K = 1000
	res, err := newTestEngine(db).Recommend(context.Background(), req, opts)
	if err != nil {
		t.Fatalf("%v/%v: %v", opts.Strategy, opts.Pruning, err)
	}
	out := make(map[string]float64, len(res.AllViews))
	for _, r := range res.AllViews {
		out[r.View.Key()] = r.Utility
	}
	return out
}

// TestStrategiesEquivalentOnRandomInputs checks the property
// docs/ARCHITECTURE.md states under "How the optimizations compose": on
// arbitrary schemas, data, reference modes and aggregate sets, every
// optimization level produces identical utilities for every view, on
// both physical layouts.
func TestStrategiesEquivalentOnRandomInputs(t *testing.T) {
	rng := rand.New(rand.NewSource(2024))
	for trial := 0; trial < 6; trial++ {
		dbRow, dbCol, req := randomTable(rng)
		base := utilitiesOf(t, dbRow, req, Options{Strategy: NoOpt})
		configs := []Options{
			{Strategy: Sharing},
			{Strategy: Sharing, GroupBy: GroupByBinPack, MemoryBudget: 50},
			{Strategy: Sharing, GroupBy: GroupByMaxN, MaxGroupBy: 2},
			{Strategy: Sharing, MaxAggregatesPerQuery: 1},
			{Strategy: Sharing, DisableCombineTargetRef: true},
			{Strategy: Comb, Pruning: NoPruning, Phases: 7},
			{Strategy: Comb, Pruning: NoPruning, Phases: 1},
		}
		for ci, opts := range configs {
			for li, db := range []*sqldb.DB{dbRow, dbCol} {
				got := utilitiesOf(t, db, req, opts)
				if len(got) != len(base) {
					t.Fatalf("trial %d cfg %d layout %d: %d views vs %d", trial, ci, li, len(got), len(base))
				}
				for k, u := range base {
					if math.Abs(got[k]-u) > 1e-9 {
						t.Errorf("trial %d cfg %d layout %d: view %s utility %g != %g",
							trial, ci, li, k, got[k], u)
					}
				}
			}
		}
	}
}

// TestDistanceFunctionsConsistentAcrossStrategies verifies that switching
// the distance function changes scores but not the execution semantics.
func TestDistanceFunctionsConsistentAcrossStrategies(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	dbRow, _, req := randomTable(rng)
	for _, f := range distance.Funcs() {
		a := utilitiesOf(t, dbRow, req, Options{Strategy: NoOpt, Distance: f})
		b := utilitiesOf(t, dbRow, req, Options{Strategy: Sharing, Distance: f})
		for k, u := range a {
			if math.Abs(b[k]-u) > 1e-9 {
				t.Errorf("%v: sharing disagrees with noopt on %s: %g vs %g", f, k, b[k], u)
			}
		}
	}
}

// TestOptionDefaults pins the defaulting rules.
func TestOptionDefaults(t *testing.T) {
	o := Options{}.withDefaults(sqldb.LayoutRow, 100)
	if o.K != 10 || o.GroupBy != GroupByBinPack || o.MemoryBudget != DefaultRowMemoryBudget {
		t.Errorf("row defaults wrong: %+v", o)
	}
	if o.Phases != 10 || o.Delta != 0.05 || o.ConfidenceScale != 1 || o.Seed != 1 {
		t.Errorf("row defaults wrong: %+v", o)
	}
	o = Options{}.withDefaults(sqldb.LayoutCol, 100)
	if o.GroupBy != GroupBySingle || o.MemoryBudget != DefaultColMemoryBudget {
		t.Errorf("col defaults wrong: %+v", o)
	}
	// MAB auto-phases: one bandit action per non-top view.
	o = Options{Pruning: MABPruning, K: 10}.withDefaults(sqldb.LayoutCol, 88)
	if o.Phases != 78 {
		t.Errorf("MAB phases = %d, want 78", o.Phases)
	}
	o = Options{Pruning: MABPruning, K: 80}.withDefaults(sqldb.LayoutCol, 88)
	if o.Phases != 10 {
		t.Errorf("MAB phases floor = %d, want 10", o.Phases)
	}
	// Explicit settings survive.
	o = Options{GroupBy: GroupBySingle, Phases: 3, Parallelism: 2}.withDefaults(sqldb.LayoutRow, 10)
	if o.GroupBy != GroupBySingle || o.Phases != 3 || o.Parallelism != 2 {
		t.Errorf("explicit options overridden: %+v", o)
	}
	// Degenerate delta falls back.
	o = Options{Delta: 2}.withDefaults(sqldb.LayoutRow, 10)
	if o.Delta != 0.05 {
		t.Errorf("delta fallback = %g", o.Delta)
	}
}

// TestPhasesClampedToRows: more phases than rows must not break.
func TestPhasesClampedToRows(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	dbRow, _, req := randomTable(rng)
	res, err := newTestEngine(dbRow).Recommend(context.Background(), req, Options{
		Strategy: Comb, Pruning: NoPruning, Phases: 1_000_000, K: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Recommendations) == 0 {
		t.Error("no recommendations")
	}
}
