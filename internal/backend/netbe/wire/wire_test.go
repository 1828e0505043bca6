package wire

import (
	"encoding/json"
	"reflect"
	"testing"
	"time"

	"seedb/internal/backend"
	"seedb/internal/sqldb"
)

// TestGoldenBytes pins proto v2: the literals below were captured from
// the encoder as it stood when this package declared its own mirror of
// every payload (QueryRequest's five execution options, ExecStats,
// Column, TableInfo, ColumnStats, TableStats, the handshake's capability
// flags) and converted field by field; v2 changed only the handshake's
// proto number and added TableInfo's optional version token. The wire now carries the backend
// and sqldb structs under their own JSON tags, so a tag that drifts
// there — a rename, a reordering, a lost omitempty — fails here rather
// than against a child running the previous build.
func TestGoldenBytes(t *testing.T) {
	stats := backend.ExecStats{
		RowsScanned: 1, Groups: 2, Vectorized: true, FallbackReason: "row-store table", Workers: 3,
		SelectionKernels: 4, ResidualPredicates: 5, ShardFanout: 6, ShardStragglerMax: 7 * time.Microsecond,
		HedgedPartials: 8, HedgeWins: 9, NetRetries: 10, ShardsDegraded: 2, DegradedShards: []int{1, 3},
	}
	for _, tc := range []struct {
		name string
		v    any
		want string
	}{
		{"request, every field", QueryRequest{SQL: "SELECT 1", Backend: "shard", Wire: true,
			ExecOptions: backend.ExecOptions{Lo: 10, Hi: 20, Workers: 4}, AllowPartial: true},
			`{"sql":"SELECT 1","backend":"shard","wire":true,"lo":10,"hi":20,"workers":4,"allow_partial":true}`},
		{"request, zero options", QueryRequest{SQL: "SELECT 1"},
			`{"sql":"SELECT 1"}`},
		{"response, every stat", QueryResponse{Columns: []string{"a"}, Rows: EncodeRows([][]sqldb.Value{{sqldb.Int(1)}}), Stats: stats},
			`{"columns":["a"],"vrows":[[{"k":"i","i":1}]],"stats":{"rows_scanned":1,"groups":2,"vectorized":true,"fallback_reason":"row-store table","workers":3,"selection_kernels":4,"residual_predicates":5,"shard_fanout":6,"shard_straggler_ns":7000,"hedged_partials":8,"hedge_wins":9,"net_retries":10,"shards_degraded":2,"degraded_shards":[1,3]}}`},
		{"response, zero stats", QueryResponse{Columns: []string{"a"}, Rows: [][]Value{}},
			`{"columns":["a"],"vrows":[],"stats":{"rows_scanned":0,"groups":0,"vectorized":false,"workers":0,"selection_kernels":0,"residual_predicates":0,"shard_fanout":0,"shard_straggler_ns":0,"hedged_partials":0,"hedge_wins":0,"net_retries":0}}`},
		{"caps", Handshake{Proto: ProtoVersion, Backend: "sqldb", Capabilities: backend.Capabilities{SupportsPhasedExecution: true}},
			`{"proto":2,"backend":"sqldb","supports_phased_execution":true}`},
		{"caps, degraded store", Handshake{Proto: ProtoVersion, Backend: "sql"},
			`{"proto":2,"backend":"sql","supports_phased_execution":false}`},
		{"info", backend.TableInfo{Name: "sales", Rows: 42, Layout: backend.LayoutCol, Columns: []backend.Column{
			{Name: "region", Type: backend.TypeString}, {Name: "qty", Type: backend.TypeInt},
			{Name: "price", Type: backend.TypeFloat}, {Name: "promo", Type: backend.TypeBool}}},
			`{"name":"sales","columns":[{"name":"region","type":2},{"name":"qty","type":0},{"name":"price","type":1},{"name":"promo","type":3}],"rows":42,"layout":"col"}`},
		{"info, row layout", backend.TableInfo{Name: "t", Columns: []backend.Column{{Name: "a", Type: backend.TypeInt}}},
			`{"name":"t","columns":[{"name":"a","type":0}],"rows":0,"layout":"row"}`},
		{"info, versioned", backend.TableInfo{Name: "t", Rows: 7, Version: "1.2.7"},
			`{"name":"t","columns":null,"rows":7,"layout":"row","version":"1.2.7"}`},
		{"stats", backend.TableStats{Rows: 42, Columns: []backend.ColumnStats{
			{Name: "region", Type: backend.TypeString, Distinct: 4}, {Name: "price", Type: backend.TypeFloat, Distinct: 40}}},
			`{"rows":42,"columns":[{"name":"region","type":2,"distinct":4},{"name":"price","type":1,"distinct":40}]}`},
	} {
		got, err := json.Marshal(tc.v)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if string(got) != tc.want {
			t.Errorf("%s:\n got %s\nwant %s", tc.name, got, tc.want)
		}
		// And the bytes decode back to what was sent.
		back := reflect.New(reflect.TypeOf(tc.v))
		if err := json.Unmarshal(got, back.Interface()); err != nil {
			t.Fatalf("%s: decoding: %v", tc.name, err)
		}
		if !reflect.DeepEqual(back.Elem().Interface(), tc.v) {
			t.Errorf("%s: round trip = %+v, want %+v", tc.name, back.Elem().Interface(), tc.v)
		}
	}

	// The layout's text form is closed: anything but "row" or "col" is a
	// damaged or foreign payload, not a row store.
	if err := json.Unmarshal([]byte(`{"name":"t","layout":"heap"}`), new(backend.TableInfo)); err == nil {
		t.Error(`info with layout "heap" decoded`)
	}

	// A router one build behind may still send the retired
	// no_selection_kernels option; a child must decode the rest of the
	// request rather than reject it.
	var old QueryRequest
	if err := json.Unmarshal([]byte(`{"sql":"SELECT 1","wire":true,"workers":4,"no_selection_kernels":true}`), &old); err != nil {
		t.Fatalf("request carrying the retired field: %v", err)
	}
	if want := (QueryRequest{SQL: "SELECT 1", Wire: true, ExecOptions: backend.ExecOptions{Workers: 4}}); !reflect.DeepEqual(old, want) {
		t.Errorf("request carrying the retired field = %+v, want %+v", old, want)
	}
}
