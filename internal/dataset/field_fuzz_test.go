package dataset

import (
	"testing"

	"seedb/internal/sqldb"
)

// FuzzParseField drives the cell decoder /api/ingest and CSV loading
// share with arbitrary cells: it must reject what it cannot read rather
// than panic, read NULL from the empty cell only, and give every other
// value it accepts the column's kind.
func FuzzParseField(f *testing.F) {
	for _, s := range []string{
		"", "5", "-0", "9223372036854775808", "1.5", "-0.0", "NaN", "+Inf",
		"1e400", "0x1p-2", "1_000", "true", "F", "yes", "east", " 7", "NULL",
	} {
		for typ := range 4 {
			f.Add(s, uint8(typ))
		}
	}
	kinds := map[sqldb.ColumnType]sqldb.ValueKind{
		sqldb.TypeInt:    sqldb.KindInt,
		sqldb.TypeFloat:  sqldb.KindFloat,
		sqldb.TypeString: sqldb.KindString,
		sqldb.TypeBool:   sqldb.KindBool,
	}
	f.Fuzz(func(t *testing.T, s string, typ uint8) {
		ct := sqldb.ColumnType(typ % 4)
		v, err := ParseField(s, ct)
		if err != nil {
			return
		}
		if v.IsNull() != (s == "") {
			t.Fatalf("ParseField(%q, %s) = %v: NULL must come from the empty cell only", s, ct, v)
		}
		if !v.IsNull() && v.Kind != kinds[ct] {
			t.Errorf("ParseField(%q, %s) has kind %v, want %v", s, ct, v.Kind, kinds[ct])
		}
	})
}
