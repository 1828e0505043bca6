// Ingest and synthetic-load endpoints.
//
// Appends run alongside query traffic without a reader lock: the
// embedded store publishes appended rows only once they are complete
// (sqldb.Table), and every Recommend pins the row count its one
// TableInfo read, bounding every scan it makes by it (core, and the
// shard router's per-child counts). So a request reads one table state
// however many ingests land during it. The mutating handlers
// (/api/ingest, /api/datasets/load, /api/datasets/synth) and
// EnableSharding serialize among themselves on the server's writer
// mutex, dataMu: appends to one table must not interleave, and a batch
// reaches the primary store and the shard children in the same order.
package server

import (
	"cmp"
	"fmt"
	"net/http"

	"seedb/internal/backend/shardbe"
	"seedb/internal/dataset"
	"seedb/internal/sqldb"
)

// ingestRequest is the POST /api/ingest payload: rows as string cells
// in schema column order, "" meaning NULL — the CSV cell format, so one
// decoder (dataset.ParseField) serves files and the wire.
type ingestRequest struct {
	Table string     `json:"table"`
	Rows  [][]string `json:"rows"`
}

// ingestResponse reports an append.
type ingestResponse struct {
	Table     string `json:"table"`
	Appended  int    `json:"appended"`
	TotalRows int    `json:"total_rows"`
}

// handleIngest implements POST /api/ingest: append rows to a loaded
// table while the server keeps answering queries. Appends invalidate
// cached results for the table via the existing version tokens (every
// append changes the row count they embed). When embedded sharding is
// enabled the rows are also routed into the shard children, keeping
// {"backend": "shard"} answers consistent with the primary store.
func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	req, ok := decode[ingestRequest](w, r)
	if !ok {
		return
	}
	if len(req.Rows) == 0 {
		writeError(w, http.StatusBadRequest, fmt.Errorf("no rows to ingest"))
		return
	}
	t, ok := s.db.Table(req.Table)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("table %q does not exist", req.Table))
		return
	}
	schema := t.Schema()

	// Decode every cell before taking the writer mutex, so malformed
	// requests cost other writers nothing.
	parsed := make([][]sqldb.Value, len(req.Rows))
	for i, cells := range req.Rows {
		if len(cells) != schema.NumColumns() {
			writeError(w, http.StatusBadRequest,
				fmt.Errorf("row %d has %d cells, table %s has %d columns", i, len(cells), req.Table, schema.NumColumns()))
			return
		}
		vals := make([]sqldb.Value, len(cells))
		for j, cell := range cells {
			v, err := dataset.ParseField(cell, schema.Column(j).Type)
			if err != nil {
				writeError(w, http.StatusBadRequest,
					fmt.Errorf("row %d column %s: %w", i, schema.Column(j).Name, err))
				return
			}
			vals[j] = v
		}
		parsed[i] = vals
	}

	s.dataMu.Lock()
	defer s.dataMu.Unlock()
	for i, vals := range parsed {
		if err := t.AppendRow(vals); err != nil {
			writeError(w, http.StatusInternalServerError, fmt.Errorf("appending row %d: %w", i, err))
			return
		}
		if len(s.shardDBs) > 0 {
			if err := shardbe.AppendRow(s.shardDBs, req.Table, vals); err != nil {
				writeError(w, http.StatusInternalServerError, fmt.Errorf("mirroring row %d to shards: %w", i, err))
				return
			}
		}
	}
	writeJSON(w, http.StatusOK, ingestResponse{
		Table:     req.Table,
		Appended:  len(parsed),
		TotalRows: t.NumRows(),
	})
}

// synthLoadRequest is the POST /api/datasets/synth payload.
type synthLoadRequest struct {
	Spec   dataset.SynthSpec `json:"spec"`
	Layout string            `json:"layout"` // "row" or "col" (default col)
	Rows   int               `json:"rows"`   // override spec rows when > 0
	Seed   int64             `json:"seed"`   // override spec seed when != 0
}

// handleLoadSynth implements POST /api/datasets/synth: generate a
// synthetic-spec table directly inside the server. The load driver uses
// it to populate a remote server before replay (generation streams
// server-side, so a million-row load ships a ~1 KB spec instead of a
// CSV).
func (s *Server) handleLoadSynth(w http.ResponseWriter, r *http.Request) {
	req, ok := decode[synthLoadRequest](w, r)
	if !ok {
		return
	}
	spec := req.Spec
	if req.Rows > 0 {
		spec = spec.WithRows(req.Rows)
	}
	if req.Seed != 0 {
		spec = spec.WithSeed(req.Seed)
	}
	if err := spec.Validate(); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	layout, err := sqldb.ParseLayout(cmp.Or(req.Layout, "col"))
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	s.install(w, spec.Name, spec.Rows, func() error {
		_, err := dataset.BuildSynth(s.db, spec, layout)
		return err
	})
}
