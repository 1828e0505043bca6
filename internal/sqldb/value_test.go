package sqldb

import (
	"math"
	"testing"
	"testing/quick"
)

func TestValueConstructorsAndString(t *testing.T) {
	cases := []struct {
		v    Value
		kind ValueKind
		str  string
	}{
		{Null(), KindNull, "NULL"},
		{Int(42), KindInt, "42"},
		{Int(-7), KindInt, "-7"},
		{Float(2.5), KindFloat, "2.5"},
		{Str("hi"), KindString, "hi"},
		{Bool(true), KindBool, "true"},
		{Bool(false), KindBool, "false"},
	}
	for _, c := range cases {
		if c.v.Kind != c.kind {
			t.Errorf("kind of %v = %v, want %v", c.v, c.v.Kind, c.kind)
		}
		if got := c.v.String(); got != c.str {
			t.Errorf("String() = %q, want %q", got, c.str)
		}
	}
}

func TestValueTruthy(t *testing.T) {
	if Null().Truthy() {
		t.Error("NULL must not be truthy")
	}
	if !Bool(true).Truthy() || Bool(false).Truthy() {
		t.Error("bool truthiness wrong")
	}
	if !Int(1).Truthy() || Int(0).Truthy() {
		t.Error("int truthiness wrong")
	}
	if !Float(0.5).Truthy() || Float(0).Truthy() {
		t.Error("float truthiness wrong")
	}
	if Str("x").Truthy() {
		t.Error("strings are not truthy")
	}
}

func TestValueEqualNullSemantics(t *testing.T) {
	if Null().Equal(Null()) {
		t.Error("NULL = NULL must be false (SQL semantics)")
	}
	if Null().Equal(Int(0)) || Int(0).Equal(Null()) {
		t.Error("NULL never equals a value")
	}
}

func TestValueEqualCrossNumeric(t *testing.T) {
	if !Int(3).Equal(Float(3.0)) {
		t.Error("3 = 3.0 should hold across kinds")
	}
	if Int(3).Equal(Float(3.5)) {
		t.Error("3 = 3.5 must be false")
	}
	if Int(1).Equal(Str("1")) {
		t.Error("numeric never equals string")
	}
	if !Str("a").Equal(Str("a")) || Str("a").Equal(Str("b")) {
		t.Error("string equality wrong")
	}
	if !Bool(true).Equal(Int(1)) {
		t.Error("true = 1 should hold (bool is numeric 0/1)")
	}
}

func TestValueCompareOrdering(t *testing.T) {
	cases := []struct {
		a, b Value
		want int
	}{
		{Int(1), Int(2), -1},
		{Int(2), Int(1), 1},
		{Int(2), Int(2), 0},
		{Float(1.5), Int(2), -1},
		{Str("a"), Str("b"), -1},
		{Str("b"), Str("a"), 1},
		{Null(), Int(0), -1},
		{Int(0), Null(), 1},
		{Null(), Null(), 0},
	}
	for _, c := range cases {
		if got := c.a.Compare(c.b); got != c.want {
			t.Errorf("Compare(%v, %v) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestValueCompareAntisymmetryProperty(t *testing.T) {
	f := func(a, b int64) bool {
		return Int(a).Compare(Int(b)) == -Int(b).Compare(Int(a))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	g := func(a, b float64) bool {
		if math.IsNaN(a) || math.IsNaN(b) {
			return true
		}
		return Float(a).Compare(Float(b)) == -Float(b).Compare(Float(a))
	}
	if err := quick.Check(g, nil); err != nil {
		t.Error(err)
	}
}

func TestValueKeyEncodingInjectiveProperty(t *testing.T) {
	// Distinct values must encode to distinct group keys.
	f := func(a, b int64) bool {
		ka := string(Int(a).AppendKey(nil))
		kb := string(Int(b).AppendKey(nil))
		return (a == b) == (ka == kb)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	g := func(a, b string) bool {
		ka := string(Str(a).AppendKey(nil))
		kb := string(Str(b).AppendKey(nil))
		return (a == b) == (ka == kb)
	}
	if err := quick.Check(g, nil); err != nil {
		t.Error(err)
	}
}

func TestValueKeyEncodingKindTagged(t *testing.T) {
	// The same bits under different kinds must not collide.
	a := string(Int(1).AppendKey(nil))
	b := string(Bool(true).AppendKey(nil))
	if a == b {
		t.Error("Int(1) and Bool(true) keys must differ")
	}
	c := string(Str("").AppendKey(nil))
	d := string(Null().AppendKey(nil))
	if c == d {
		t.Error("empty string and NULL keys must differ")
	}
}

func TestValueAsFloatAsInt(t *testing.T) {
	if f, ok := Int(7).AsFloat(); !ok || f != 7 {
		t.Error("Int→Float failed")
	}
	if i, ok := Float(7.9).AsInt(); !ok || i != 7 {
		t.Error("Float→Int should truncate")
	}
	if _, ok := Str("7").AsFloat(); ok {
		t.Error("Str must not coerce to float")
	}
	if _, ok := Null().AsInt(); ok {
		t.Error("NULL must not coerce")
	}
}

// TestStorable: which values each column type takes, and how both
// stores convert what they take.
func TestStorable(t *testing.T) {
	for _, c := range []struct {
		v   Value
		typ ColumnType
		ok  bool
	}{
		{Int(3), TypeFloat, true}, {Float(3.7), TypeInt, true}, {Bool(true), TypeInt, true},
		{Int(2), TypeBool, true}, {Null(), TypeInt, true}, {Null(), TypeString, true}, {Null(), TypeBool, true},
		{Str("x"), TypeInt, false}, {Str("x"), TypeFloat, false}, {Float(1), TypeBool, false}, {Int(1), TypeString, false},
	} {
		if got := storable(c.v, c.typ); got != c.ok {
			t.Errorf("storable(%v, %v) = %t, want %t", c.v, c.typ, got, c.ok)
		}
	}
	schema := MustSchema(Column{Name: "f", Type: TypeFloat}, Column{Name: "i", Type: TypeInt}, Column{Name: "b", Type: TypeBool})
	for _, layout := range []Layout{LayoutRow, LayoutCol} {
		tab, _ := NewDB().CreateTable("t", schema, layout)
		if err := tab.Append([][]Value{{Int(3), Float(3.7), Int(2)}}); err != nil {
			t.Fatal(err)
		}
		want := []Value{Float(3), Int(3), Bool(true)}
		_ = tab.ScanRange(0, 1, nil, func(row RowView) error {
			for c, w := range want {
				if got := row.Value(c); got != w {
					t.Errorf("[%v] column %d stored %#v, want %#v", layout, c, got, w)
				}
			}
			return nil
		})
	}
}

func TestColumnTypeAndKindStrings(t *testing.T) {
	if TypeInt.String() != "INT" || TypeString.String() != "TEXT" {
		t.Error("ColumnType.String wrong")
	}
	if KindFloat.String() != "FLOAT" {
		t.Error("ValueKind.String wrong")
	}
}
