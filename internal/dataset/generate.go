package dataset

import (
	"fmt"
	"math/rand"

	"seedb/internal/sqldb"
)

// Generate produces the spec's rows deterministically and passes each to
// emit. Row layout matches Spec.Schema(): dimension values first (as
// strings), then measures (as floats).
func (s Spec) Generate(emit func(vals []sqldb.Value) error) error {
	if len(s.Dims) == 0 || len(s.Measures) == 0 {
		return fmt.Errorf("dataset %s: needs at least one dimension and one measure", s.Name)
	}
	if s.SelectorIdx < 0 || s.SelectorIdx >= len(s.Dims) {
		return fmt.Errorf("dataset %s: selector index %d out of range", s.Name, s.SelectorIdx)
	}
	rng := rand.New(rand.NewSource(s.Seed))
	nd, nm := len(s.Dims), len(s.Measures)

	// Per-dimension −1..+1 bucket ramps and their unit-EMDs.
	ramps := make([][]float64, nd)
	unit := make([]float64, nd)
	for i, d := range s.Dims {
		ramps[i] = rampFor(d.Cardinality)
		unit[i] = unitEMD(ramps[i])
	}

	// Map view-space dimension index → dims index.
	viewDimIdx := make([]int, 0, nd)
	for i := range s.Dims {
		if s.SelectorInViews || i != s.SelectorIdx {
			viewDimIdx = append(viewDimIdx, i)
		}
	}

	// Calibrated measure tilts: intended utility / unit-EMD, per the
	// balanced effect assignment.
	effects := s.effectTable()
	tilt := make([][]float64, nd)
	for i := range tilt {
		tilt[i] = make([]float64, nm)
	}
	for vd, d := range viewDimIdx {
		for m := 0; m < nm; m++ {
			if u := effects[vd][m]; u != 0 && unit[d] > 0 {
				e := u / unit[d]
				if e > 0.9 {
					e = 0.9 // keep measures positive
				}
				tilt[d][m] = e
			}
		}
	}

	// Find the selector's target value index.
	sel := s.Dims[s.SelectorIdx]
	targetIdx := -1
	for v := 0; v < sel.Cardinality; v++ {
		if sel.Value(v) == s.TargetValue {
			targetIdx = v
			break
		}
	}
	if targetIdx < 0 {
		return fmt.Errorf("dataset %s: target value %q not among selector values", s.Name, s.TargetValue)
	}

	vals := make([]sqldb.Value, nd+nm)
	dimIdx := make([]int, nd)
	for r := 0; r < s.Rows; r++ {
		// Draw dimension values. The selector honors TargetFrac; other
		// dimensions are uniform.
		for i, d := range s.Dims {
			if i == s.SelectorIdx {
				if rng.Float64() < s.TargetFrac {
					dimIdx[i] = targetIdx
				} else {
					v := rng.Intn(d.Cardinality - 1)
					if v >= targetIdx {
						v++
					}
					if d.Cardinality == 1 {
						v = 0
					}
					dimIdx[i] = v
				}
			} else {
				dimIdx[i] = rng.Intn(d.Cardinality)
			}
			vals[i] = sqldb.Str(d.Value(dimIdx[i]))
		}
		// Target rows are flat; reference rows carry the tilt. This
		// matches the paper's worked example (Figure 1): the unmarried
		// (target) capital-gain split is near even while the married
		// (reference) split is skewed.
		dir := 1.0
		if dimIdx[s.SelectorIdx] == targetIdx {
			dir = 0.0
		}
		// Measures: Base·(1 + Σ_i tilt(i,j)·ramp_i(v_i)·dir) + noise.
		for j, m := range s.Measures {
			shift := 0.0
			for i := range s.Dims {
				if e := tilt[i][j]; e != 0 {
					shift += e * ramps[i][dimIdx[i]]
				}
			}
			x := m.Base*(1+shift*dir) + rng.NormFloat64()*m.Noise
			if x < 0.01*m.Base {
				x = 0.01 * m.Base
			}
			vals[nd+j] = sqldb.Float(x)
		}
		if err := emit(vals); err != nil {
			return err
		}
	}
	return nil
}

// IntendedUtility returns the planted intended utility for the view
// (dimName, measureName), resolving the same balanced effect assignment
// the generator uses. It returns 0 for unknown columns, selector-excluded
// dimensions, and views without a planted effect. The reproduction
// scorecard's Figure 15 row uses it as ground-truth interestingness.
func (s Spec) IntendedUtility(dimName, measureName string) float64 {
	mIdx := -1
	for j, m := range s.Measures {
		if m.Name == measureName {
			mIdx = j
			break
		}
	}
	if mIdx < 0 {
		return 0
	}
	vd := -1
	for i, d := range s.ViewDims() {
		if d.Name == dimName {
			vd = i
			break
		}
	}
	if vd < 0 {
		return 0
	}
	return s.effectTable()[vd][mIdx]
}

// Build generates the dataset into a new table of the given layout inside
// db, returning the table.
func Build(db *sqldb.DB, spec Spec, layout sqldb.Layout) (sqldb.Table, error) {
	t, err := db.CreateTable(spec.Name, spec.Schema(), layout)
	if err != nil {
		return nil, err
	}
	if err := appendBlocks(t, spec.Generate); err != nil {
		return nil, err
	}
	return t, nil
}

// BuildDB creates a fresh single-table database containing the dataset in
// the given layout.
func BuildDB(spec Spec, layout sqldb.Layout) (*sqldb.DB, sqldb.Table, error) {
	db := sqldb.NewDB()
	t, err := Build(db, spec, layout)
	if err != nil {
		return nil, nil, err
	}
	return db, t, nil
}
