// Ingest and synthetic-load endpoints, plus the reader/writer guard
// that makes them safe to run concurrently with query traffic.
//
// The embedded store's Table contract says writes are not synchronized
// with reads, and every query the server executes flows through a
// registered backend.Backend (PR 3's seam). That makes the seam the one
// chokepoint where a server-level reader/writer lock covers all
// execution paths at once: RegisterBackend wraps each backend so Exec
// and introspection hold the read side, and the mutating handlers
// (/api/ingest, /api/datasets/load, /api/datasets/synth) hold the write
// side. Readers proceed concurrently with each other exactly as before;
// a write drains in-flight queries, applies, and releases.
package server

import (
	"cmp"
	"context"
	"fmt"
	"net/http"
	"sync"

	"seedb/internal/backend"
	"seedb/internal/backend/shardbe"
	"seedb/internal/dataset"
	"seedb/internal/sqldb"
)

// guardedBackend wraps a backend so every read-side operation holds the
// server's data lock, serializing queries against ingest writes without
// reducing query-query concurrency.
type guardedBackend struct {
	inner backend.Backend
	mu    *sync.RWMutex
}

func (g guardedBackend) Name() string                       { return g.inner.Name() }
func (g guardedBackend) Capabilities() backend.Capabilities { return g.inner.Capabilities() }

func (g guardedBackend) TableInfo(ctx context.Context, table string) (backend.TableInfo, error) {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.inner.TableInfo(ctx, table)
}

func (g guardedBackend) TableVersion(ctx context.Context, table string) (string, bool) {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.inner.TableVersion(ctx, table)
}

func (g guardedBackend) TableStats(ctx context.Context, table string) (*backend.TableStats, error) {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.inner.TableStats(ctx, table)
}

func (g guardedBackend) Exec(ctx context.Context, query string, opts backend.ExecOptions) (*backend.Rows, backend.ExecStats, error) {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.inner.Exec(ctx, query, opts)
}

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
// append bumps Table.Generation). When embedded sharding is enabled the
// rows are also routed into the shard children, keeping {"backend":
// "shard"} answers consistent with the primary store.
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

	// Decode every cell before taking the write lock, so malformed
	// requests cost readers nothing.
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

	s.mu.RLock()
	shardDBs := s.shardDBs
	s.mu.RUnlock()

	s.dataMu.Lock()
	defer s.dataMu.Unlock()
	for i, vals := range parsed {
		if err := t.AppendRow(vals); err != nil {
			writeError(w, http.StatusInternalServerError, fmt.Errorf("appending row %d: %w", i, err))
			return
		}
		if len(shardDBs) > 0 {
			if err := shardbe.AppendRow(shardDBs, req.Table, vals); err != nil {
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
