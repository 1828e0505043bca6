package sqldb

import "fmt"

// aggKind identifies an aggregate function.
type aggKind uint8

const (
	aggCount aggKind = iota
	aggCountStar
	aggSum
	aggAvg
	aggMin
	aggMax
)

// aggSpec is a planned aggregate slot: the function plus its compiled
// argument expression.
type aggSpec struct {
	kind     aggKind
	arg      evalFn // nil for COUNT(*)
	distinct bool
	// argCol/argType record the base-table column when the argument is a
	// plain column reference (-1 otherwise). The vectorized executor uses
	// them to read the column vector directly instead of calling arg.
	argCol  int
	argType ColumnType
	// src is the aggregate call this slot was planned from. Its argument
	// expressions are base-schema ASTs (slots are planned before the
	// post-aggregation rewrite), which is what lets the shard planner
	// (shardexec.go) re-render a decomposed form of the call as child SQL.
	src *FuncExpr
}

// newAggSpec plans one aggregate function call.
func newAggSpec(f *FuncExpr, schema *Schema) (aggSpec, error) {
	spec := aggSpec{argCol: -1, src: f}
	switch f.Name {
	case "COUNT":
		if f.Star {
			spec.kind = aggCountStar
			return spec, nil
		}
		spec.kind = aggCount
	case "SUM":
		spec.kind = aggSum
	case "AVG":
		spec.kind = aggAvg
	case "MIN":
		spec.kind = aggMin
	case "MAX":
		spec.kind = aggMax
	default:
		return spec, fmt.Errorf("sqldb: unknown aggregate %s", f.Name)
	}
	if len(f.Args) != 1 {
		return spec, fmt.Errorf("sqldb: %s expects exactly one argument", f.Name)
	}
	if IsAggregate(f.Args[0]) {
		return spec, fmt.Errorf("sqldb: nested aggregates are not allowed")
	}
	arg, err := compileScalar(f.Args[0], schema)
	if err != nil {
		return spec, err
	}
	spec.arg = arg
	if c, ok := f.Args[0].(*ColumnExpr); ok {
		if idx, found := schema.Lookup(c.Name); found {
			spec.argCol = idx
			spec.argType = schema.Column(idx).Type
		}
	}
	spec.distinct = f.Distinct
	if spec.distinct && spec.kind != aggCount {
		return spec, fmt.Errorf("sqldb: DISTINCT is only supported with COUNT")
	}
	return spec, nil
}

// aggState is the running accumulator for one aggregate slot within one
// group.
type aggState struct {
	count    int64
	sum      float64
	ext      Value // the running MIN or MAX; a slot is one or the other
	seen     bool
	distinct *distinctSet // only for COUNT(DISTINCT); nil until its first value
}

// update folds one input row into the accumulator.
func (s *aggState) update(spec *aggSpec, row RowView) {
	if spec.kind == aggCountStar {
		s.count++
		return
	}
	v := spec.arg(row)
	if v.IsNull() {
		return // SQL aggregates skip NULLs
	}
	switch spec.kind {
	case aggCount:
		if spec.distinct {
			if s.distinct == nil {
				s.distinct = &distinctSet{}
			}
			s.distinct.add(v)
			return
		}
		s.count++
	case aggSum, aggAvg:
		f, ok := v.AsFloat()
		if !ok {
			return
		}
		s.count++
		s.sum += f
	case aggMin:
		if !s.seen || v.Compare(s.ext) < 0 {
			s.ext = v
			s.seen = true
		}
	case aggMax:
		if !s.seen || v.Compare(s.ext) > 0 {
			s.ext = v
			s.seen = true
		}
	}
}

// final produces the aggregate's result value.
func (s *aggState) final(spec *aggSpec) Value {
	switch spec.kind {
	case aggCountStar:
		return Int(s.count)
	case aggCount:
		if spec.distinct {
			if s.distinct == nil {
				return Int(0)
			}
			return Int(int64(s.distinct.len()))
		}
		return Int(s.count)
	case aggSum:
		if s.count == 0 {
			return Null()
		}
		return Float(s.sum)
	case aggAvg:
		if s.count == 0 {
			return Null()
		}
		return Float(s.sum / float64(s.count))
	case aggMin, aggMax:
		if !s.seen {
			return Null()
		}
		return s.ext
	}
	return Null()
}
