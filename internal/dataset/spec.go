// Package dataset provides deterministic generators for every dataset in
// Table 1 of the SeeDB paper, plus CSV import/export.
//
// The real datasets (BANK, DIAB, AIR, AIR10, CENSUS, HOUSING, MOVIES) are
// UCI / US-DOT data that this repository substitutes with synthetic
// equivalents (see the deviations in docs/REPRODUCTION.md). Each
// generator reproduces the dataset's published shape — row count,
// dimension/measure counts, realistic cardinalities — and, crucially for
// the pruning experiments, plants a *deviation profile*: a per-view
// effect size controlling how strongly each (dimension, measure) view
// deviates between the target subset and the reference data. The profiles are shaped to match the utility
// distributions the paper describes (Figure 10): BANK has two
// well-separated top views followed by a cluster; DIAB has ten tightly
// clustered top views.
//
// The measure model: for a row with dimension values v and target flag t,
//
//	M_j = Base_j · (1 + Σ_i e(i,j)·s_i(v_i)·dir(t)) + noise
//
// where s_i ramps linearly from −1 to +1 across dimension i's buckets and
// dir(t) is 0 on target rows and 1 otherwise (the target distribution is
// flat, the reference carries the tilt, matching the paper's Figure 1
// example). In expectation, the view (A_i, M_j, AVG) then shows a
// target-vs-reference tilt proportional to e(i,j), so view utility is a
// monotone function of the planted effect.
package dataset

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"seedb/internal/sqldb"
)

// Dim describes one dimension (group-by) attribute.
type Dim struct {
	// Name is the column name.
	Name string
	// Cardinality is the number of distinct values.
	Cardinality int
	// Values optionally names the distinct values; when shorter than
	// Cardinality the remainder are synthesized as "<name>_<i>".
	Values []string
}

// Value returns the name of the i-th distinct value. Synthesized names
// are zero-padded so their lexicographic order matches bucket order —
// the EMD group axis sorts labels, and the planted tilt is monotone in
// bucket index.
func (d Dim) Value(i int) string {
	if i < len(d.Values) {
		return d.Values[i]
	}
	width := len(fmt.Sprintf("%d", d.Cardinality-1))
	return fmt.Sprintf("%s_%0*d", d.Name, width, i)
}

// Measure describes one measure (aggregated) attribute.
type Measure struct {
	// Name is the column name.
	Name string
	// Base is the measure's baseline mean.
	Base float64
	// Noise is the standard deviation of additive Gaussian noise.
	Noise float64
}

// Spec fully describes a generatable dataset.
type Spec struct {
	// Name is the dataset (and table) name, e.g. "bank".
	Name string
	// Description is a one-line description for Table 1.
	Description string
	// Rows is the default generated row count (test-friendly scale).
	Rows int
	// PaperRows is the row count reported in Table 1 of the paper.
	PaperRows int
	// PaperSizeMB is the on-disk size reported in Table 1.
	PaperSizeMB float64
	// Dims are the dimension attributes; Dims[SelectorIdx] also acts as
	// the target selector.
	Dims []Dim
	// Measures are the measure attributes.
	Measures []Measure
	// SelectorIdx is the index into Dims of the selector attribute.
	SelectorIdx int
	// SelectorInViews includes the selector among the view dimensions.
	// The experiment datasets exclude it: grouping by the attribute the
	// query already conditions on yields a degenerate one-group target
	// view whose utility would swamp the planted profile. Census keeps
	// it (the paper's running example groups the full attribute set).
	SelectorInViews bool
	// TargetValue is the selector value defining the target subset D_Q.
	TargetValue string
	// TargetFrac is the fraction of rows whose selector equals
	// TargetValue.
	TargetFrac float64
	// Effects holds per-view planted *intended utilities* (the EMD the
	// view should exhibit between target and complement-reference),
	// indexed by viewDimIdx*len(Measures)+measureIdx over the view-space
	// dimensions; missing entries default to 0. The generator converts
	// each intended utility into a measure tilt calibrated by the
	// dimension's exact unit-EMD, so the utility ordering matches the
	// profile regardless of dimension cardinality. Effects are assigned
	// to views through a seed-derived permutation unless EffectsInOrder
	// is set.
	Effects []float64
	// EffectsInOrder, when true, assigns Effects[k] directly to flat
	// view index k instead of permuting.
	EffectsInOrder bool
	// Seed makes generation deterministic.
	Seed int64
}

// ViewDims returns the dimensions participating in the view space (all
// dims, minus the selector unless SelectorInViews).
func (s Spec) ViewDims() []Dim {
	if s.SelectorInViews {
		return s.Dims
	}
	out := make([]Dim, 0, len(s.Dims)-1)
	for i, d := range s.Dims {
		if i != s.SelectorIdx {
			out = append(out, d)
		}
	}
	return out
}

// ViewDimNames returns the names of the view-space dimensions.
func (s Spec) ViewDimNames() []string {
	dims := s.ViewDims()
	out := make([]string, len(dims))
	for i, d := range dims {
		out[i] = d.Name
	}
	return out
}

// NumViews returns |A| × |M|, the number of candidate aggregate views for
// a single aggregate function (|A| counts view-space dimensions).
func (s Spec) NumViews() int { return len(s.ViewDims()) * len(s.Measures) }

// Selector returns the selector dimension.
func (s Spec) Selector() Dim { return s.Dims[s.SelectorIdx] }

// TargetPredicate returns the SQL predicate selecting the target subset,
// e.g. "marital = 'Unmarried'".
func (s Spec) TargetPredicate() string {
	return fmt.Sprintf("%s = '%s'", s.Selector().Name, strings.ReplaceAll(s.TargetValue, "'", "''"))
}

// Schema returns the sqldb schema: string dimensions followed by float
// measures.
func (s Spec) Schema() *sqldb.Schema {
	cols := make([]sqldb.Column, 0, len(s.Dims)+len(s.Measures))
	for _, d := range s.Dims {
		cols = append(cols, sqldb.Column{Name: d.Name, Type: sqldb.TypeString})
	}
	for _, m := range s.Measures {
		cols = append(cols, sqldb.Column{Name: m.Name, Type: sqldb.TypeFloat})
	}
	return sqldb.MustSchema(cols...)
}

// WithRows returns a copy of the spec with a different row count.
func (s Spec) WithRows(n int) Spec {
	s.Rows = n
	return s
}

// MeasureNames returns the measure column names in order.
func (s Spec) MeasureNames() []string {
	out := make([]string, len(s.Measures))
	for i, m := range s.Measures {
		out[i] = m.Name
	}
	return out
}

// unitEMD computes, for a dimension with the given bucket ramp, the EMD a
// unit tilt produces between the tilted and flat distributions:
// (1/c)·Σ_j |Σ_{i≤j} ramp_i|. Dividing an intended utility by this value
// calibrates the measure tilt so planted utilities are comparable across
// cardinalities.
func unitEMD(ramp []float64) float64 {
	cum, total := 0.0, 0.0
	for _, r := range ramp {
		cum += r
		total += math.Abs(cum)
	}
	if len(ramp) == 0 {
		return 0
	}
	return total / float64(len(ramp))
}

// rampFor returns the linear −1..+1 ramp for a dimension cardinality.
func rampFor(cardinality int) []float64 {
	ramp := make([]float64, cardinality)
	if cardinality > 1 {
		for v := 0; v < cardinality; v++ {
			ramp[v] = 2*float64(v)/float64(cardinality-1) - 1
		}
	}
	return ramp
}

// effectTable assigns the spec's intended utilities to (view dimension,
// measure) pairs and returns u[viewDimIdx][measureIdx].
//
// With EffectsInOrder the list maps positionally (hand-authored specs
// like census). Otherwise a deterministic balanced assignment places the
// largest intended utilities on the dimensions with the largest unit-EMD
// (where they need the smallest measure tilt) while round-robining across
// measures to minimize each measure's total tilt load — keeping the sum
// of tilts on any one measure far from the clamp region, so measured
// utilities track intended utilities faithfully.
func (s Spec) effectTable() [][]float64 {
	viewDims := s.ViewDims()
	nvd, nm := len(viewDims), len(s.Measures)
	u := make([][]float64, nvd)
	for i := range u {
		u[i] = make([]float64, nm)
	}
	if s.EffectsInOrder {
		for vd := 0; vd < nvd; vd++ {
			for m := 0; m < nm; m++ {
				if k := vd*nm + m; k < len(s.Effects) {
					u[vd][m] = s.Effects[k]
				}
			}
		}
		return u
	}

	// Dimensions ordered by descending unit-EMD (ties: ascending index).
	unit := make([]float64, nvd)
	dimOrder := make([]int, nvd)
	for i, d := range viewDims {
		unit[i] = unitEMD(rampFor(d.Cardinality))
		dimOrder[i] = i
	}
	sort.SliceStable(dimOrder, func(a, b int) bool {
		return unit[dimOrder[a]] > unit[dimOrder[b]]
	})

	// Intended utilities, largest first.
	profile := make([]float64, nvd*nm)
	copy(profile, s.Effects)
	sort.Sort(sort.Reverse(sort.Float64Slice(profile)))

	load := make([]float64, nm) // per-measure Σ tilt
	nextDim := make([]int, nm)  // per-measure progress through dimOrder
	for _, uv := range profile {
		// Measure with the lightest tilt load and free slots.
		m := -1
		for j := 0; j < nm; j++ {
			if nextDim[j] >= nvd {
				continue
			}
			if m < 0 || load[j] < load[m] {
				m = j
			}
		}
		if m < 0 {
			break
		}
		d := dimOrder[nextDim[m]]
		nextDim[m]++
		u[d][m] = uv
		if unit[d] > 0 {
			load[m] += uv / unit[d]
		}
	}
	return u
}
