package wire

import (
	"encoding/json"
	"math"
	"strconv"
	"testing"
)

// FuzzDecodeRows feeds arbitrary JSON through the /api/query row
// decoder: DecodeRows must reject what it cannot read rather than
// panic, and every row it accepts must re-encode to the wire values it
// came from — the same kind and payload, floats by bits however the
// input spelled them.
func FuzzDecodeRows(f *testing.F) {
	for _, s := range []string{
		`[[{"k":"n"},{"k":"i","i":-7},{"k":"f","f":"0x1.8p+01"},{"k":"s","s":"east"},{"k":"b","b":true}]]`,
		`[[{"k":"f","f":"-0x0p+00"},{"k":"f","f":"NaN"},{"k":"f","f":"+Inf"},{"k":"f","f":"0x1p-1074"}]]`,
		`[[],[{"k":"i","i":9223372036854775807,"s":"ignored"}]]`,
		`[[{"k":"f","f":"1.5"},{"k":"f","f":"1e400"},{"k":"f","f":"bogus"}]]`,
		`[[{"k":"x"}]]`,
		`[[{}]]`,
		`[null]`,
		`null`,
		`{"k":"n"}`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var in [][]Value
		if json.Unmarshal(data, &in) != nil {
			return
		}
		rows, err := DecodeRows(in)
		if err != nil {
			return
		}
		out := EncodeRows(rows)
		if len(out) != len(in) {
			t.Fatalf("%d rows re-encode as %d", len(in), len(out))
		}
		for r := range in {
			if len(out[r]) != len(in[r]) {
				t.Fatalf("row %d: %d values re-encode as %d", r, len(in[r]), len(out[r]))
			}
			for i, w := range in[r] {
				if got := out[r][i]; !samePayload(got, w) {
					t.Errorf("row %d column %d: %+v re-encodes as %+v", r, i, w, got)
				}
			}
		}
	})
}

// samePayload reports whether got carries w's kind and the payload that
// kind reads.
func samePayload(got, w Value) bool {
	if got.K != w.K {
		return false
	}
	switch w.K {
	case "i":
		return got.I == w.I
	case "f":
		a, _ := strconv.ParseFloat(w.F, 64)
		b, err := strconv.ParseFloat(got.F, 64)
		return err == nil && math.Float64bits(a) == math.Float64bits(b)
	case "s":
		return got.S == w.S
	case "b":
		return got.B == w.B
	}
	return true
}
