// Package sqldb implements an embedded, in-memory, SQL-compliant database
// engine that serves as the substrate underneath the SeeDB middleware.
//
// The engine supports two physical layouts that mirror the "ROW" and "COL"
// systems in the SeeDB paper's evaluation (Section 5):
//
//   - RowStore: row-oriented storage where each tuple is contiguous in
//     memory. A scan pays the full tuple width regardless of how many
//     columns the query touches.
//   - ColStore: column-oriented storage with typed column vectors and
//     dictionary-encoded strings. A scan touches only referenced columns.
//
// The SQL dialect covers the query class SeeDB generates: single-table
// SELECT with WHERE predicates, expression GROUP BY (including CASE
// expressions, used to combine target and reference views into one query),
// the aggregates COUNT, SUM, AVG, MIN and MAX, ORDER BY and LIMIT.
//
// Queries may additionally be executed against a half-open row range
// ([lo, hi)) of the fact table, which is how SeeDB's phased execution
// framework processes the i-th of n partitions, and with intra-query
// scan parallelism (ExecOptions.Workers). Eligible column-store queries
// run on the vectorized fast path in vexec.go at any worker count:
// dictionary/bool/int/float group keys become small integer ids before
// the scan (narrow-ranging ints by value range, floats and wide ints by
// a dictionary pre-pass, like a string column's), rows are processed a block at a time by typed
// loops over struct-of-arrays accumulators, and WHERE / CASE-flag
// predicates of common shape compile into selection-vector kernels
// (predsel.go) with per-row closures only for residual conjuncts.
// Executions report why the fast path declined
// (ExecStats.FallbackReason) and how predicates ran
// (ExecStats.SelectionKernels / ResidualPredicates).
//
// The recommendation engine does not import this package directly: it
// reaches it through the backend seam (internal/backend's Embedded
// adapter), and internal/sqldriver additionally re-exports this engine
// through database/sql so external-store code paths can be exercised
// in-process. See docs/ARCHITECTURE.md for how the layers compose.
package sqldb

import (
	"fmt"
	"math"
	"strconv"
)

// ValueKind discriminates the runtime type of a Value.
type ValueKind uint8

// Value kinds.
const (
	KindNull ValueKind = iota
	KindInt
	KindFloat
	KindString
	KindBool
)

// String returns a human-readable name for the kind.
func (k ValueKind) String() string {
	switch k {
	case KindNull:
		return "NULL"
	case KindInt:
		return "INT"
	case KindFloat:
		return "FLOAT"
	case KindString:
		return "STRING"
	case KindBool:
		return "BOOL"
	default:
		return fmt.Sprintf("ValueKind(%d)", uint8(k))
	}
}

// Value is the engine's runtime scalar. It is a compact tagged union: the
// active field is selected by Kind. Values are passed by value everywhere;
// they are never mutated after construction.
type Value struct {
	Kind ValueKind
	I    int64   // KindInt, KindBool (0/1)
	F    float64 // KindFloat
	S    string  // KindString
}

// Convenience constructors.

// Null returns the SQL NULL value.
func Null() Value { return Value{Kind: KindNull} }

// Int returns an integer value.
func Int(i int64) Value { return Value{Kind: KindInt, I: i} }

// Float returns a floating-point value.
func Float(f float64) Value { return Value{Kind: KindFloat, F: f} }

// Str returns a string value.
func Str(s string) Value { return Value{Kind: KindString, S: s} }

// Bool returns a boolean value.
func Bool(b bool) Value {
	if b {
		return Value{Kind: KindBool, I: 1}
	}
	return Value{Kind: KindBool}
}

// IsNull reports whether v is SQL NULL.
func (v Value) IsNull() bool { return v.Kind == KindNull }

// Truthy reports whether v is a true boolean. NULL and non-boolean values
// are not truthy, matching SQL's three-valued WHERE semantics where only
// TRUE passes a filter.
func (v Value) Truthy() bool {
	switch v.Kind {
	case KindBool, KindInt:
		return v.I != 0
	case KindFloat:
		return v.F != 0
	default:
		return false
	}
}

// AsFloat coerces numeric values to float64. It returns ok=false for NULL
// and string values.
func (v Value) AsFloat() (f float64, ok bool) {
	switch v.Kind {
	case KindInt, KindBool:
		return float64(v.I), true
	case KindFloat:
		return v.F, true
	default:
		return 0, false
	}
}

// AsInt coerces numeric values to int64, truncating floats.
func (v Value) AsInt() (i int64, ok bool) {
	switch v.Kind {
	case KindInt, KindBool:
		return v.I, true
	case KindFloat:
		return int64(v.F), true
	default:
		return 0, false
	}
}

// String renders the value the way the engine prints result rows.
func (v Value) String() string {
	switch v.Kind {
	case KindNull:
		return "NULL"
	case KindInt:
		return strconv.FormatInt(v.I, 10)
	case KindFloat:
		return strconv.FormatFloat(v.F, 'g', -1, 64)
	case KindString:
		return v.S
	case KindBool:
		if v.I != 0 {
			return "true"
		}
		return "false"
	default:
		return "?"
	}
}

// Equal reports SQL equality between two values. NULL never equals
// anything, including NULL (use IsNull for IS NULL semantics). Numeric
// values compare across int/float/bool kinds.
func (v Value) Equal(o Value) bool {
	if v.Kind == KindNull || o.Kind == KindNull {
		return false
	}
	if v.Kind == KindString || o.Kind == KindString {
		return v.Kind == o.Kind && v.S == o.S
	}
	vf, _ := v.AsFloat()
	of, _ := o.AsFloat()
	return vf == of
}

// Compare orders two non-NULL values: -1 if v < o, 0 if equal, +1 if v > o.
// NULL sorts before everything (returned as -1 against non-NULL), matching
// NULLS FIRST ordering. Strings compare lexicographically; numerics
// compare numerically across kinds.
func (v Value) Compare(o Value) int {
	if v.Kind == KindNull && o.Kind == KindNull {
		return 0
	}
	if v.Kind == KindNull {
		return -1
	}
	if o.Kind == KindNull {
		return 1
	}
	if v.Kind == KindString && o.Kind == KindString {
		switch {
		case v.S < o.S:
			return -1
		case v.S > o.S:
			return 1
		default:
			return 0
		}
	}
	vf, vok := v.AsFloat()
	of, ook := o.AsFloat()
	if !vok || !ook {
		// Mixed string/numeric comparison: order by kind to stay total.
		if v.Kind < o.Kind {
			return -1
		}
		if v.Kind > o.Kind {
			return 1
		}
		return 0
	}
	switch {
	case vf < of:
		return -1
	case vf > of:
		return 1
	default:
		return 0
	}
}

// AppendKey appends a self-delimiting binary encoding of v to dst. The
// encoding is injective per kind, so it can serve as a hash-aggregation
// group key: two values share it exactly when GROUP BY puts them in one
// group (±0 and NaN payloads stay apart).
func (v Value) AppendKey(dst []byte) []byte {
	dst = append(dst, byte(v.Kind))
	switch v.Kind {
	case KindNull:
	case KindInt, KindBool:
		u := uint64(v.I)
		dst = append(dst, byte(u), byte(u>>8), byte(u>>16), byte(u>>24),
			byte(u>>32), byte(u>>40), byte(u>>48), byte(u>>56))
	case KindFloat:
		u := math.Float64bits(v.F)
		dst = append(dst, byte(u), byte(u>>8), byte(u>>16), byte(u>>24),
			byte(u>>32), byte(u>>40), byte(u>>48), byte(u>>56))
	case KindString:
		n := uint32(len(v.S))
		dst = append(dst, byte(n), byte(n>>8), byte(n>>16), byte(n>>24))
		dst = append(dst, v.S...)
	}
	return dst
}

// ColumnType is the declared type of a table column.
type ColumnType uint8

// Column types supported by the storage engines.
const (
	TypeInt ColumnType = iota
	TypeFloat
	TypeString
	TypeBool
)

// String returns the SQL name of the type.
func (t ColumnType) String() string {
	switch t {
	case TypeInt:
		return "INT"
	case TypeFloat:
		return "FLOAT"
	case TypeString:
		return "TEXT"
	case TypeBool:
		return "BOOL"
	default:
		return fmt.Sprintf("ColumnType(%d)", uint8(t))
	}
}

// zeroValue returns the default Value for a column type (used when a
// column is absent from an insert).
func zeroValue(t ColumnType) Value {
	switch t {
	case TypeInt:
		return Int(0)
	case TypeFloat:
		return Float(0)
	case TypeString:
		return Str("")
	case TypeBool:
		return Bool(false)
	default:
		return Null()
	}
}

// storable reports whether v can be stored in a column of type t: NULL
// in any column, a number (INT, FLOAT or BOOL) in an INT or FLOAT
// column, TEXT in a TEXT column, a BOOL or an INT in a BOOL column. The
// stores convert what they take the conventional way: a FLOAT stored in
// an INT column truncates, a nonzero INT stored in a BOOL column is TRUE.
func storable(v Value, t ColumnType) bool {
	switch t {
	case TypeInt, TypeFloat:
		_, ok := v.AsFloat()
		return ok || v.Kind == KindNull
	case TypeString:
		return v.Kind == KindString || v.Kind == KindNull
	case TypeBool:
		return v.Kind == KindBool || v.Kind == KindInt || v.Kind == KindNull
	}
	return false
}
