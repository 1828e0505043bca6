package sqldb

import (
	"math"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// Value palettes for FuzzGroupedScan's key columns, indexed by four
// bits of input each. intKeys straddles the range-coding limits (a
// span of 65534 fits the dense id space alone, 32766 next to a flag);
// wideKeys can never be range-coded together; floatKeys holds the
// identities AppendKey tells apart although Compare does not (±0, NaN
// payloads). A nil entry is NULL.
var (
	intKeys = []any{nil, int64(0), int64(1), int64(-1), int64(2), int64(7), int64(255), int64(-256),
		int64(21844), int64(21845), int64(32766), int64(32767), int64(32768), int64(65534), int64(65535), int64(-65536)}
	wideKeys = []any{nil, int64(math.MinInt64), int64(math.MaxInt64), int64(1 << 40), int64(-1 << 40),
		int64(0), int64(1), int64(-1), int64(1<<53 + 1), int64(1 << 53), int64(1 << 62), int64(-1 << 62),
		int64(65535), int64(-65536), int64(1e6), int64(3e6)}
	floatKeys = []any{nil, 0.0, math.Copysign(0, -1), math.NaN(), math.Float64frombits(0x7ff8000000000001),
		math.Float64frombits(0xfff8000000000000), math.Inf(1), math.Inf(-1), 5e-324, -5e-324,
		1e300, 0.1, 0.5, 2.5, math.MaxFloat64, -math.MaxFloat64}
)

// fuzzFlags are the CASE flag predicates FuzzGroupedScan draws from:
// kernels alone, a residual alone, and a kernel next to a residual.
var fuzzFlags = []string{"m > 0", "f < 1 AND m <> 2.5", "i >= 255 OR w IS NULL",
	"m * 2 > 1", "i >= 255 AND ABS(m) > 1"}

// fuzzWheres are the WHERE clauses FuzzGroupedScan draws from, "" for
// none: a kernel conjunction, a disjunction of three leaves, a negated
// disjunction (two kernels by De Morgan), residual-only shapes and a
// kernel next to a residual.
var fuzzWheres = []string{"", "m > 0 AND i < 255",
	"i IN (0, 7, 255) OR f BETWEEN -1 AND 1 OR w IS NULL", "NOT (i = 0 OR m IS NULL)",
	"i + w > 3", "ABS(m) > 1", "m > 0 AND ABS(f) < 2"}

// fuzzKeyValue picks a palette entry, or NULL.
func fuzzKeyValue(palette []any, b byte) Value {
	switch v := palette[b%16].(type) {
	case int64:
		return Int(v)
	case float64:
		return Float(v)
	default:
		return Null()
	}
}

// fuzzGroupTable builds table "t" (column layout) from body, three bytes
// a row, read reps times with the repetition added to each byte so the
// copies differ; at most 2100 rows, two blocks and a tail. Byte 0 picks
// the int key i (low nibble) and the wide int key w (high nibble); byte
// 1 the float key f, from the palette below 16 and as a multiple of 0.5
// above; byte 2 the measure m, a multiple of 0.25 so every partial sum
// is exact, NULL at 255.
func fuzzGroupTable(t *testing.T, body []byte, reps int) *DB {
	db := NewDB()
	tab, err := db.CreateTable("t", MustSchema(
		Column{Name: "i", Type: TypeInt}, Column{Name: "w", Type: TypeInt},
		Column{Name: "f", Type: TypeFloat}, Column{Name: "m", Type: TypeFloat},
	), LayoutCol)
	if err != nil {
		t.Fatal(err)
	}
	n := min(len(body)/3*reps, 2100)
	for r := 0; r < n; r++ {
		at := func(k int) byte {
			p := 3*r + k
			return body[p%(len(body)/3*3)] + byte(p/len(body))
		}
		row := []Value{fuzzKeyValue(intKeys, at(0)), fuzzKeyValue(wideKeys, at(0)>>4), Null(), Null()}
		if b := at(1); b < 16 {
			row[2] = fuzzKeyValue(floatKeys, b)
		} else {
			row[2] = Float(float64(b)*0.5 - 40)
		}
		if b := at(2); b != 255 {
			row[3] = Float((float64(b) - 128) * 0.25)
		}
		if err := tab.Append([][]Value{row}); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

// fuzzAggs are the aggregate lists the branches of a FuzzGroupedScan
// statement draw from; the first is the one-branch statement's. Sums
// and extremes stay on m and i, whose partial sums are exact: over the
// hostile keys (NaN payloads, ±Inf) they would depend on the chunk
// split, which vexec.go documents.
var fuzzAggs = []string{"COUNT(*), SUM(m), COUNT(m), MIN(m), MAX(m), AVG(m)",
	"SUM(m), COUNT(m)", "MIN(m)", "COUNT(*), AVG(m), MAX(m)", "COUNT(f), SUM(i), COUNT(i), AVG(m), SUM(m)"}

// FuzzGroupedScan is a differential check of the vectorized grouped scan
// against the row interpreter over hostile numeric group keys. The first
// five bytes shape the query: the GROUP BY keys (one or two of i, w, f),
// a CASE flag or none, a WHERE clause or none, 1–4 workers, the scanned
// range [lo, hi) and (h[0]>>6) how many more SELECTs join the first by
// UNION ALL; the rest is the table (fuzzGroupTable). Each further branch
// has its own keys and aggregate list and shares the first one's WHERE
// and flag or brings its own, so one shared scan meets every mix. Every
// input must take the fast path and equal the ROW-layout twin bit for
// bit.
func FuzzGroupedScan(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 0, 1, 2, 3, 4, 5, 6})
	f.Add([]byte{0x44, 3, 200, 15, 0x27, 0x0d, 16, 130, 0xd1, 3, 255, 0x3e, 200, 128})
	f.Add([]byte{0x0e, 0, 0, 3, 0x1a, 0x2d, 2, 100, 0xe3, 1, 0, 0x9c, 4, 132, 0x11, 5, 140})
	// Seed k draws WHERE k and flag k mod 6, so plain go test runs every
	// shape of both palettes; seeds with k ≥ 4 are compounds of k−2
	// branches.
	for k := range len(fuzzWheres) {
		f.Add([]byte{byte(k) | byte(max(k-3, 0))<<6, 0, 255, byte(k%6)<<4 | 15, byte(k)<<4 | byte(k%4)<<2,
			0x0d, 16, 130, 0xd1, 3, 255, 0x3e, 200, 128, 0x9c, 4, 132, 0x11, 5, 140, 0x27, 1, 0})
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 8 {
			return
		}
		h, body := data[:5], data[5:]
		db := fuzzGroupTable(t, body, 1+int(h[3]%16))
		tab, _ := db.Table("t")
		n := tab.NumRows()
		keys := []string{"i", "w", "f"}
		flagOf := func(fl int) string {
			if fl %= len(fuzzFlags) + 1; fl > 0 {
				return "CASE WHEN " + fuzzFlags[fl-1] + " THEN 1 ELSE 0 END"
			}
			return ""
		}
		flag, where := flagOf(int(h[4]%4)+int(h[3]>>4)), fuzzWheres[int(h[4]>>4)%len(fuzzWheres)]
		branches := 1 + int(h[0]>>6)
		items, clauses := make([][]string, branches), make([]string, branches)
		width := 0
		for b := range branches {
			// Branch b's shape comes from the header bytes turned by b;
			// branch 0's is the one-branch statement's.
			hb := h[0] + byte(b)*0x35
			group := []string{keys[hb%3]}
			if hb&4 != 0 {
				group = append(group, keys[(hb>>3)%3])
			}
			bflag, bwhere, aggs := flag, where, fuzzAggs[0]
			if b > 0 {
				if h[3]>>b&1 != 0 {
					bflag = flagOf(int(h[1]) + b)
				}
				if h[2]>>b&1 != 0 {
					bwhere = fuzzWheres[(int(h[4])+b)%len(fuzzWheres)]
				}
				aggs = fuzzAggs[(int(h[1]>>4)+b)%len(fuzzAggs)]
			}
			if bflag != "" {
				group = append(group, bflag)
			}
			items[b] = append(slices.Clone(group), strings.Split(aggs, ", ")...)
			if branches > 1 {
				items[b] = append([]string{strconv.Itoa(b)}, items[b]...)
			}
			width = max(width, len(items[b]))
			clauses[b] = " FROM t"
			if bwhere != "" {
				clauses[b] += " WHERE " + bwhere
			}
			clauses[b] += " GROUP BY " + strings.Join(group, ", ")
		}
		var parts []string
		for b := range branches {
			for len(items[b]) < width {
				items[b] = append(items[b], "NULL")
			}
			parts = append(parts, "SELECT "+strings.Join(items[b], ", ")+clauses[b])
		}
		sql := strings.Join(parts, " UNION ALL ")
		lo := int(h[1]) * n / 256
		hi := lo + int(h[2])*(n-lo+1)/256
		opts := ExecOptions{Lo: lo, Hi: hi}
		ref := interpret(t, rowTwin(t, db), sql, opts)
		opts.Workers = 1 + int(h[4]>>2)%4
		got, err := db.QueryOpts(sql, opts)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		if !got.Stats.Vectorized {
			t.Fatalf("%s over [%d, %d): fell back: %s", sql, lo, hi, got.Stats.FallbackReason)
		}
		mustEqualResults(t, sql, ref, got)
		if got.Stats.RowsScanned != ref.Stats.RowsScanned {
			t.Fatalf("%s over [%d, %d): %d row visits, interpreter %d", sql, lo, hi, got.Stats.RowsScanned, ref.Stats.RowsScanned)
		}
	})
}
