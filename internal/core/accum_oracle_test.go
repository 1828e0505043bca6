package core

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"seedb/internal/backend"
	"seedb/internal/distance"
	"seedb/internal/sqldb"
)

// mapCell and mapSide are the accumulators the dense cells replaced —
// group rendered key → cell, created on the first value that folds, with
// MIN/MAX tracking their own seen flag — kept as the reference the dense
// path must reproduce bit for bit.
type mapCell struct {
	sum, count, min, max float64
	seen                 bool
}

func (c *mapCell) fold(role accumRole, v float64) {
	switch role {
	case roleSum:
		c.sum += v
	case roleCount:
		c.count += v
	case roleMin:
		if !c.seen || v < c.min {
			c.min = v
		}
		if !c.seen {
			c.max, c.seen = v, true
		}
	case roleMax:
		if !c.seen || v > c.max {
			c.max = v
		}
		if !c.seen {
			c.min, c.seen = v, true
		}
	}
}

type mapSide map[string]*mapCell

func (s mapSide) at(group string) *mapCell {
	c, ok := s[group]
	if !ok {
		c = &mapCell{}
		s[group] = c
	}
	return c
}

// finalize is the reference finalize rule: COUNT keeps every group it
// holds a cell for, SUM/AVG need a positive count, MIN/MAX a seen value.
func (s mapSide) finalize(f AggFunc) map[string]float64 {
	out := make(map[string]float64, len(s))
	for g, c := range s {
		switch f {
		case AggAvg:
			if c.count > 0 {
				out[g] = c.sum / c.count
			}
		case AggSum:
			if c.count > 0 {
				out[g] = c.sum
			}
		case AggCount:
			out[g] = c.count
		case AggMin:
			if c.seen {
				out[g] = c.min
			}
		case AggMax:
			if c.seen {
				out[g] = c.max
			}
		}
	}
	return out
}

// mapRecommendation is the reference scoring and emission: finalize both
// sides into maps, Align them on the sorted union of rendered keys,
// Normalize, Distance. When no group is a string (vals maps rendered
// keys back to values) the axis is re-sorted into Value.Compare order
// first, the rule for numeric and BOOL dimensions.
func mapRecommendation(f distance.Func, agg AggFunc, target, reference mapSide, vals map[string]sqldb.Value) Recommendation {
	t, r := target.finalize(agg), reference.finalize(agg)
	groups, tv, rv := distance.Align(t, r)
	numeric := true
	for _, v := range vals {
		numeric = numeric && v.Kind != sqldb.KindString
	}
	if numeric {
		sort.SliceStable(groups, func(i, j int) bool { return vals[groups[i]].Compare(vals[groups[j]]) < 0 })
		for i, g := range groups {
			tv[i], rv[i] = t[g], r[g]
		}
	}
	rec := Recommendation{Groups: groups, Target: distance.Normalize(tv), Reference: distance.Normalize(rv),
		TargetAgg: t, ReferenceAgg: r}
	if len(t) > 0 || len(r) > 0 {
		rec.Utility = distance.Distance(f, rec.Target, rec.Reference)
	}
	return rec
}

// oracleGroupPools are the dimension value sets the property draws from:
// a string dimension with NULLs, an INT one with NULLs and a BOOL one.
var oracleGroupPools = [][]sqldb.Value{
	{sqldb.Str("na"), sqldb.Str("emea"), sqldb.Str("apac"), sqldb.Str("latam"), sqldb.Str("NULLS"),
		sqldb.Str(""), sqldb.Str("Zürich"), sqldb.Null()},
	{sqldb.Int(9), sqldb.Int(10), sqldb.Int(1), sqldb.Int(-3), sqldb.Int(100), sqldb.Int(2), sqldb.Null()},
	{sqldb.Bool(true), sqldb.Bool(false), sqldb.Null()},
}

// oracleRows draws one query result for the SUM/COUNT/MIN/MAX columns
// aggPlan lays out for the five views: per row a group, and either an
// ordinary group (all four aggregates set) or an all-NULL-measure group
// (SUM/MIN/MAX NULL, COUNT 0).
func oracleRows(rng *rand.Rand, pool []sqldb.Value, n int) *backend.Rows {
	res := &backend.Rows{}
	for i := 0; i < n; i++ {
		g := pool[rng.Intn(len(pool))]
		if rng.Intn(5) == 0 {
			res.Rows = append(res.Rows, []sqldb.Value{g, sqldb.Null(), sqldb.Int(0), sqldb.Null(), sqldb.Null()})
			continue
		}
		cnt := 1 + rng.Intn(20)
		lo := rng.NormFloat64() * 50
		if rng.Intn(4) != 0 {
			lo = math.Abs(lo)
		}
		hi := lo + rng.Float64()*100
		sum := float64(cnt) * (lo + hi) / 2
		res.Rows = append(res.Rows, []sqldb.Value{g, sqldb.Float(sum), sqldb.Int(int64(cnt)),
			sqldb.Float(lo), sqldb.Float(hi)})
	}
	return res
}

// TestDenseAccumMatchesMapReference folds seeded random target and
// reference results into both the dense accumulators (through
// mergeResult) and the map reference, phase by phase, and requires
// identical utility bits under every distance function and identical
// emitted groups, distributions and raw aggregates — for all five
// aggregates, string, INT and BOOL dimensions, target-only,
// reference-only and empty sides and COUNT-0 cells.
func TestDenseAccumMatchesMapReference(t *testing.T) {
	for seed := int64(0); seed < 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		pool := oracleGroupPools[seed%int64(len(oracleGroupPools))]
		pool = pool[:1+rng.Intn(len(pool))]
		var views []View
		idxs := make([]int, len(allAggs))
		for i, f := range allAggs {
			views = append(views, View{Dimension: "d", Measure: "m", Agg: f})
			idxs[i] = i
		}
		qb := &queryBuilder{}
		exprs, consumers := qb.aggPlan(views, idxs, map[string]int{"d": 0}, 1)
		if fmt.Sprint(exprs) != "[SUM(m) COUNT(m) MIN(m) MAX(m)]" {
			t.Fatalf("aggPlan columns %v; oracleRows lays out SUM, COUNT, MIN, MAX", exprs)
		}
		tq := &sharedQuery{branches: []queryBranch{{side: sideTarget, dimCols: []int{0}, consumers: consumers}}}
		rq := &sharedQuery{branches: []queryBranch{{side: sideReference, dimCols: []int{0}, consumers: consumers}}}
		accums, _ := newAccums(views)
		st := &execState{views: views, accums: accums}
		vals := map[string]sqldb.Value{}
		refT, refR := make([]mapSide, len(views)), make([]mapSide, len(views))
		for i := range views {
			refT[i], refR[i] = mapSide{}, mapSide{}
		}
		// Each side is empty, or fed by 0–8 rows per phase.
		tRows, rRows := rng.Intn(4) != 0, rng.Intn(4) != 0
		for phase := 0; phase < 4; phase++ {
			for _, side := range []struct {
				on  bool
				q   *sharedQuery
				ref []mapSide
			}{{tRows, tq, refT}, {rRows, rq, refR}} {
				if !side.on {
					continue
				}
				res := oracleRows(rng, pool, rng.Intn(9))
				st.mergeResult(side.q, res.Rows)
				for _, row := range res.Rows {
					vals[row[0].String()] = row[0]
					for _, c := range consumers {
						if v := row[c.col]; !v.IsNull() {
							f, _ := v.AsFloat()
							side.ref[c.viewIdx].at(row[0].String()).fold(c.role, f)
						}
					}
				}
			}
			for i, acc := range st.accums {
				for _, f := range distance.Funcs() {
					want := mapRecommendation(f, acc.view.Agg, refT[i], refR[i], vals)
					got := acc.utility(f, &st.scratch)
					if math.Float64bits(got) != math.Float64bits(want.Utility) {
						t.Fatalf("seed %d phase %d %s %s: utility %v, reference %v",
							seed, phase, acc.view, f, got, want.Utility)
					}
					if f != distance.EMD {
						continue
					}
					rec := acc.recommendation(&st.scratch)
					if err := sameDistributions(rec, want); err != nil {
						t.Fatalf("seed %d phase %d %s: %v", seed, phase, acc.view, err)
					}
				}
			}
		}
	}
}

// sameDistributions compares everything a recommendation emits besides
// the view, utility and Partial, floats by bits.
func sameDistributions(got, want Recommendation) error {
	if (got.Groups == nil) != (want.Groups == nil) || fmt.Sprintf("%q", got.Groups) != fmt.Sprintf("%q", want.Groups) {
		return fmt.Errorf("groups %q, reference %q", got.Groups, want.Groups)
	}
	for _, p := range []struct {
		name      string
		got, want []float64
	}{{"target", got.Target, want.Target}, {"reference", got.Reference, want.Reference}} {
		if (p.got == nil) != (p.want == nil) || len(p.got) != len(p.want) {
			return fmt.Errorf("%s %v, reference %v", p.name, p.got, p.want)
		}
		for i := range p.got {
			if math.Float64bits(p.got[i]) != math.Float64bits(p.want[i]) {
				return fmt.Errorf("%s %v, reference %v", p.name, p.got, p.want)
			}
		}
	}
	for _, m := range []struct {
		name      string
		got, want map[string]float64
	}{{"target agg", got.TargetAgg, want.TargetAgg}, {"reference agg", got.ReferenceAgg, want.ReferenceAgg}} {
		if len(m.got) != len(m.want) {
			return fmt.Errorf("%s %v, reference %v", m.name, m.got, m.want)
		}
		for g, v := range m.want {
			if gv, ok := m.got[g]; !ok || math.Float64bits(gv) != math.Float64bits(v) {
				return fmt.Errorf("%s %v, reference %v", m.name, m.got, m.want)
			}
		}
	}
	return nil
}

// TestNumericAxisOrdersByValue pins the axis rule on an INT dimension:
// with groups 8, 9 and 10, byte order would place "10" first, so moving
// all mass from 8 to 10 would cost one EMD step; in value order it
// costs two.
func TestNumericAxisOrdersByValue(t *testing.T) {
	views := []View{{Dimension: "quantity", Measure: "m", Agg: AggCount}}
	accums, _ := newAccums(views)
	acc := accums[0]
	for _, g := range []struct {
		v    int64
		t, r float64
	}{{10, 0, 1}, {9, 0, 0}, {8, 1, 0}} {
		o := acc.groups.ordinal(sqldb.Int(g.v))
		fold(acc.target.at(o), roleCount, g.t)
		fold(acc.reference.at(o), roleCount, g.r)
	}
	var sc scoreScratch
	if got := acc.recommendation(&sc).Groups; fmt.Sprint(got) != "[8 9 10]" {
		t.Errorf("groups %q, want value order [8 9 10]", got)
	}
	if u := acc.utility(distance.EMD, &sc); u != 2 {
		t.Errorf("EMD in value order = %v, want 2", u)
	}
	t8, r10 := map[string]float64{"8": 1, "9": 0, "10": 0}, map[string]float64{"8": 0, "9": 0, "10": 1}
	if u := distance.Deviation(distance.EMD, t8, r10); u != 1 {
		t.Errorf("EMD in byte order = %v, want 1 (the axis this replaces)", u)
	}
}
