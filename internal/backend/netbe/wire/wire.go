// Package wire defines the JSON wire protocol between a seedb-server
// and the netbe network-backend client — the cross-process half of the
// paper's middleware/DBMS split. The server (internal/server) encodes
// these types on its introspection endpoints and on the typed
// /api/query path; netbe decodes them back into backend.Backend
// results. Both sides compile against this one package, so the contract
// cannot drift silently. The introspection payloads (/api/backend/info
// and /stats) and the execution options and stats are the backend
// package's own structs under their own JSON tags; this package adds
// only what exists on the wire alone — typed values, the handshake and
// the query envelope.
//
// Values round-trip bit-exactly: integers travel as JSON numbers
// (decoded straight into int64, no float detour), and floats travel as
// hexadecimal float strings (strconv 'x' format), which preserves the
// exact bit pattern — including -0.0, ±Inf and NaN — where a decimal
// JSON number could not. That is what lets a netbe-backed engine stay
// bit-identical to the embedded reference in backend/conformancetest.
package wire

import (
	"fmt"
	"strconv"

	"seedb/internal/backend"
	"seedb/internal/sqldb"
	"seedb/internal/telemetry"
)

// ProtoVersion identifies the wire protocol generation. The handshake
// endpoint reports it; a client refusing to speak to a newer server
// fails loudly instead of mis-decoding. Version 2 carries the table's
// version token in the info payload and drops the version endpoint.
const ProtoVersion = 2

// Value is one engine scalar on the wire. Exactly one of the payload
// fields is meaningful, selected by K.
type Value struct {
	// K is the value kind: "n" (NULL), "i" (int), "f" (float),
	// "s" (string), "b" (bool).
	K string `json:"k"`
	I int64  `json:"i,omitempty"`
	// F is the float payload in strconv's hexadecimal 'x' format
	// ("0x1.8p+01"), or "NaN"/"+Inf"/"-Inf". Hex keeps the round trip
	// bit-exact.
	F string `json:"f,omitempty"`
	S string `json:"s,omitempty"`
	B bool   `json:"b,omitempty"`
}

// FromValue encodes one engine scalar.
func FromValue(v sqldb.Value) Value {
	switch v.Kind {
	case sqldb.KindNull:
		return Value{K: "n"}
	case sqldb.KindInt:
		return Value{K: "i", I: v.I}
	case sqldb.KindFloat:
		return Value{K: "f", F: strconv.FormatFloat(v.F, 'x', -1, 64)}
	case sqldb.KindString:
		return Value{K: "s", S: v.S}
	case sqldb.KindBool:
		return Value{K: "b", B: v.I != 0}
	default:
		return Value{K: "n"}
	}
}

// ToValue decodes one wire scalar.
func (w Value) ToValue() (sqldb.Value, error) {
	switch w.K {
	case "n":
		return sqldb.Null(), nil
	case "i":
		return sqldb.Int(w.I), nil
	case "f":
		f, err := strconv.ParseFloat(w.F, 64)
		if err != nil {
			return sqldb.Null(), fmt.Errorf("wire: bad float payload %q: %w", w.F, err)
		}
		return sqldb.Float(f), nil
	case "s":
		return sqldb.Str(w.S), nil
	case "b":
		return sqldb.Bool(w.B), nil
	default:
		return sqldb.Null(), fmt.Errorf("wire: unknown value kind %q", w.K)
	}
}

// EncodeRows converts a materialized result to wire rows.
func EncodeRows(rows [][]sqldb.Value) [][]Value {
	out := make([][]Value, len(rows))
	for r, row := range rows {
		wr := make([]Value, len(row))
		for i, v := range row {
			wr[i] = FromValue(v)
		}
		out[r] = wr
	}
	return out
}

// DecodeRows converts wire rows back to engine rows.
func DecodeRows(rows [][]Value) ([][]sqldb.Value, error) {
	out := make([][]sqldb.Value, len(rows))
	for r, row := range rows {
		vr := make([]sqldb.Value, len(row))
		for i, wv := range row {
			v, err := wv.ToValue()
			if err != nil {
				return nil, fmt.Errorf("row %d column %d: %w", r, i, err)
			}
			vr[i] = v
		}
		out[r] = vr
	}
	return out, nil
}

// Handshake is GET /api/backend/caps's payload: the remote backend's
// identity and capability flags, checked once when a netbe client is
// constructed.
type Handshake struct {
	Proto   int    `json:"proto"`
	Backend string `json:"backend"`
	backend.Capabilities
}

// QueryRequest is the typed POST /api/query payload a netbe client
// sends: Wire true selects the typed response (string cells otherwise,
// for human clients), and the execution options travel alongside under
// their own JSON tags. AllowPartial is the wire form of the
// backend.WithAllowPartial context marker, which cannot cross a process
// boundary on its own: the client sets it from the calling context and
// the server turns it back into the marker.
type QueryRequest struct {
	SQL     string `json:"sql"`
	Backend string `json:"backend,omitempty"`
	Wire    bool   `json:"wire,omitempty"`
	backend.ExecOptions
	AllowPartial bool `json:"allow_partial,omitempty"`
}

// QueryResponse is the typed /api/query response (Wire true). Trace is
// the child process's span tree for this execution, present only when
// the request carried a Traceparent header: the client grafts it under
// the span that issued the call, stitching one cross-process tree.
type QueryResponse struct {
	Columns []string            `json:"columns"`
	Rows    [][]Value           `json:"vrows"`
	Stats   backend.ExecStats   `json:"stats"`
	Trace   *telemetry.SpanNode `json:"trace,omitempty"`
}

// Error is the uniform error payload netbe decodes from non-200
// responses (the server's errorResponse shape).
type Error struct {
	Error string `json:"error"`
}
