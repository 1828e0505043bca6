package core

import (
	"context"
	"testing"

	"seedb/internal/sqldb"
)

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
	if o.GroupBy != GroupByUnion || o.MemoryBudget != DefaultColMemoryBudget {
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
	e, req := buildCensus(t, sqldb.LayoutRow, 300)
	res, err := e.Recommend(context.Background(), req, Options{
		Strategy: Comb, Pruning: NoPruning, Phases: 1_000_000, K: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Recommendations) == 0 {
		t.Error("no recommendations")
	}
}
