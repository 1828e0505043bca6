// Package core implements the SeeDB engine: metadata-driven enumeration
// of candidate aggregate views, the deviation-based utility metric, and
// the execution engine with the paper's sharing optimizations (combined
// aggregates, bin-packed multi-attribute GROUP BYs, combined
// target/reference queries, parallel execution) and pruning optimizations
// (confidence-interval and multi-armed-bandit pruning) composed through
// the phased execution framework.
//
// The engine is store-agnostic: it executes against the Backend
// interface (internal/backend), obtaining schema metadata, dataset
// version tokens and query results through that seam, and degrading per
// the backend's declared capabilities (see EffectiveStrategy). Cross-
// request reuse comes from the shared result cache (internal/cache),
// consulted at two granularities: whole requests and individual shared
// queries. docs/ARCHITECTURE.md walks one Recommend invocation through
// all of it.
package core

import (
	"fmt"
	"math"
	"slices"
	"strings"

	"seedb/internal/distance"
	"seedb/internal/sqldb"
)

// AggFunc is an aggregate function applicable to a measure attribute.
type AggFunc string

// Supported aggregate functions (the paper's F = {COUNT, SUM, AVG}; MIN
// and MAX are also supported).
const (
	AggAvg   AggFunc = "AVG"
	AggSum   AggFunc = "SUM"
	AggCount AggFunc = "COUNT"
	AggMin   AggFunc = "MIN"
	AggMax   AggFunc = "MAX"
)

// ValidAggFunc reports whether f is a supported aggregate.
func ValidAggFunc(f AggFunc) bool {
	switch f {
	case AggAvg, AggSum, AggCount, AggMin, AggMax:
		return true
	}
	return false
}

// View is one candidate aggregate view V ≡ (a, m, f): group rows by
// dimension attribute a and aggregate measure m with f (Section 2 of the
// paper). Applied to the target data D_Q it yields the target view;
// applied to the reference data D_R, the reference view.
type View struct {
	Dimension string
	Measure   string
	Agg       AggFunc
}

// String renders the view as "f(m) BY a".
func (v View) String() string {
	return fmt.Sprintf("%s(%s) BY %s", v.Agg, v.Measure, v.Dimension)
}

// Key returns a unique map key for the view.
func (v View) Key() string {
	return v.Dimension + "\x00" + v.Measure + "\x00" + string(v.Agg)
}

// cell is the mergeable accumulator for one group of one side of a view.
// All aggregate functions finalize from these four fields, which is what
// lets partial results accumulate across phases and across the subgroups
// of a bin-packed multi-attribute GROUP BY. set marks a cell some partial
// result folded into: group membership on the side, so a COUNT cell fed
// only zero counts (an all-NULL measure) stays present. A view folds one
// aggregate's roles only, so min (or max) is valid exactly when set.
type cell struct {
	sum      float64
	count    float64
	min, max float64
	set      bool
}

// fold applies one role update to a cell.
func fold(c *cell, role accumRole, v float64) {
	switch role {
	case roleSum:
		c.sum += v
	case roleCount:
		c.count += v
	case roleMin:
		if !c.set || v < c.min {
			c.min = v
		}
	case roleMax:
		if !c.set || v > c.max {
			c.max = v
		}
	}
	c.set = true
}

// value finalizes the cell under the view's aggregate function. ok is
// false for a group with no contributing rows — never folded, or count
// 0 for SUM/AVG — which the view omits.
func (c *cell) value(f AggFunc) (v float64, ok bool) {
	switch {
	case !c.set:
	case f == AggAvg && c.count > 0:
		return c.sum / c.count, true
	case f == AggSum && c.count > 0:
		return c.sum, true
	case f == AggCount:
		return c.count, true
	case f == AggMin:
		return c.min, true
	case f == AggMax:
		return c.max, true
	}
	return 0, false
}

// groupDict numbers the groups of one dimension for one request: every
// rendered group key gets a dense ordinal that indexes the cells of every
// view on the dimension. Groups are identified by their rendered key,
// the form Recommendation.Groups shows; each also keeps the first value
// seen under it, which orders the axis of a numeric or BOOL dimension.
type groupDict struct {
	ords map[string]int32 // rendered key → ordinal
	// scalar memoizes non-string values by kind and payload bits, so a
	// repeated value finds its ordinal without being rendered again.
	scalar map[[2]uint64]int32
	keys   []string      // ordinal → rendered key
	vals   []sqldb.Value // ordinal → first value seen
	strs   bool          // some group is a string: the axis is byte order
	order  []int32       // ordinals in axis order; stale while shorter than keys
}

// ordinal returns the group ordinal of a dimension value, adding the
// group on first sight.
func (d *groupDict) ordinal(v sqldb.Value) int32 {
	if v.Kind == sqldb.KindString {
		return d.lookup(v.S, v)
	}
	k := [2]uint64{uint64(v.Kind), uint64(v.I)}
	if v.Kind == sqldb.KindFloat {
		k[1] = math.Float64bits(v.F)
	}
	o, ok := d.scalar[k]
	if !ok {
		o = d.lookup(v.String(), v)
		d.scalar[k] = o
	}
	return o
}

// lookup returns the ordinal of v's rendered key, adding it if new.
func (d *groupDict) lookup(key string, v sqldb.Value) int32 {
	o, ok := d.ords[key]
	if !ok {
		o = int32(len(d.keys))
		d.ords[key] = o
		d.keys, d.vals = append(d.keys, key), append(d.vals, v)
		d.strs = d.strs || v.Kind == sqldb.KindString
	}
	return o
}

// sorted returns the ordinals in axis order, re-sorting only when a group
// was added since the last call. A string dimension's axis is its
// rendered keys in byte order (NULL sorts as "NULL"); a numeric or BOOL
// dimension's is Value.Compare order, NULL first, so EMD's ground
// distance puts 9 next to 10 rather than "10" next to "1".
func (d *groupDict) sorted() []int32 {
	if len(d.order) < len(d.keys) {
		for o := len(d.order); o < len(d.keys); o++ {
			d.order = append(d.order, int32(o))
		}
		slices.SortFunc(d.order, func(a, b int32) int {
			if c := d.vals[a].Compare(d.vals[b]); c != 0 && !d.strs {
				return c
			}
			return strings.Compare(d.keys[a], d.keys[b])
		})
	}
	return d.order
}

// sideAccum accumulates one side (target or reference) of a view: its
// cells, indexed by the dimension's group ordinals.
type sideAccum []cell

// at returns the cell of a group, growing the side to reach it.
func (s *sideAccum) at(o int32) *cell {
	if n := int(o) + 1; n > len(*s) {
		*s = append(*s, make([]cell, n-len(*s))...)
	}
	return &(*s)[o]
}

// value finalizes one group of the side (see cell.value).
func (s sideAccum) value(o int32, f AggFunc) (float64, bool) {
	if int(o) >= len(s) {
		return 0, false
	}
	return s[o].value(f)
}

// viewAccum is the running state of one candidate view during execution.
type viewAccum struct {
	view      View
	groups    *groupDict // shared by every view on the dimension
	target    sideAccum
	reference sideAccum
}

// newAccums creates empty accumulators for the views, with one group
// dictionary per dimension shared by all of the dimension's views, and
// returns the dimensions in first-use order.
func newAccums(views []View) (accums []*viewAccum, dims []string) {
	dicts := make(map[string]*groupDict)
	for _, v := range views {
		d := dicts[v.Dimension]
		if d == nil {
			d = &groupDict{ords: map[string]int32{}, scalar: map[[2]uint64]int32{}}
			dicts[v.Dimension] = d
			dims = append(dims, v.Dimension)
		}
		accums = append(accums, &viewAccum{view: v, groups: d})
	}
	return accums, dims
}

// scoreScratch holds the aligned vectors scoring builds, reused across
// views and phases so that scoring does not allocate: the raw target and
// reference values and the group ordinal of each position.
type scoreScratch struct {
	t, r []float64
	ords []int32
}

// align fills sc with the view's groups present on either side, in axis
// order, and both sides' raw values for them (0 where a side lacks the
// group).
func (a *viewAccum) align(sc *scoreScratch) {
	sc.t, sc.r, sc.ords = sc.t[:0], sc.r[:0], sc.ords[:0]
	for _, o := range a.groups.sorted() {
		tv, tok := a.target.value(o, a.view.Agg)
		rv, rok := a.reference.value(o, a.view.Agg)
		if tok || rok {
			sc.t = append(sc.t, tv)
			sc.r = append(sc.r, rv)
			sc.ords = append(sc.ords, o)
		}
	}
}

// utility computes the deviation-based utility from the current partial
// state: normalize both sides into probability distributions and measure
// their distance (Section 2). A view with no groups scores 0, as every
// distance of two empty vectors is.
func (a *viewAccum) utility(f distance.Func, sc *scoreScratch) float64 {
	a.align(sc)
	distance.NormalizeInPlace(sc.t)
	distance.NormalizeInPlace(sc.r)
	return distance.Distance(f, sc.t, sc.r)
}

// recommendation materializes the view's current state: its groups in
// axis order, both normalized distributions and both raw aggregates.
// The caller stamps Utility and Partial.
func (a *viewAccum) recommendation(sc *scoreScratch) Recommendation {
	a.align(sc)
	rec := Recommendation{View: a.view, TargetAgg: map[string]float64{}, ReferenceAgg: map[string]float64{}}
	for i, o := range sc.ords {
		g := a.groups.keys[o]
		rec.Groups = append(rec.Groups, g)
		if _, ok := a.target.value(o, a.view.Agg); ok {
			rec.TargetAgg[g] = sc.t[i]
		}
		if _, ok := a.reference.value(o, a.view.Agg); ok {
			rec.ReferenceAgg[g] = sc.r[i]
		}
	}
	rec.Target, rec.Reference = distance.Normalize(sc.t), distance.Normalize(sc.r)
	return rec
}
