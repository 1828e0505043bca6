// Backend introspection endpoints and error classification for the
// netbe wire protocol (internal/backend/netbe/wire). With these four
// GET endpoints plus the typed /api/query path, a remote seedb-server
// is a complete backend.Backend: a netbe client in another process —
// typically a child of a shardbe router — introspects schemas, keys its
// caches off version tokens, and executes queries exactly as an
// in-process backend would.
package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"

	"seedb/internal/backend"
	"seedb/internal/backend/netbe/wire"
	"seedb/internal/sqldb"
)

// statusForError classifies an error for the HTTP status line, so
// clients — above all the netbe retry policy — can tell a mistake from
// an outage without parsing message text:
//
//	sqldb.ErrParse / anything else client-shaped → 400 (never retry)
//	backend.ErrNoTable                           → 404 (never retry)
//	backend.ErrUnavailable                       → 502 (retryable)
//	context.DeadlineExceeded                     → 504 (retryable)
//
// The deadline check runs first: a timed-out call often wraps the
// deadline error inside backend failures, and "we ran out of time" is
// the more actionable diagnosis.
func statusForError(err error) int {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, backend.ErrNoTable):
		return http.StatusNotFound
	case errors.Is(err, backend.ErrUnavailable):
		return http.StatusBadGateway
	case errors.Is(err, sqldb.ErrParse):
		return http.StatusBadRequest
	default:
		// Unknown executor complaints (unknown column, unsupported
		// construct) are requests the client should not repeat verbatim.
		return http.StatusBadRequest
	}
}

// wireBackend resolves the ?backend= selector for the wire endpoints.
func (s *Server) wireBackend(w http.ResponseWriter, r *http.Request) (*registeredBackend, bool) {
	rb, err := s.backendFor(r.URL.Query().Get("backend"))
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return nil, false
	}
	return rb, true
}

// wireTable extracts the mandatory ?table= parameter.
func wireTable(w http.ResponseWriter, r *http.Request) (string, bool) {
	table := r.URL.Query().Get("table")
	if table == "" {
		writeError(w, http.StatusBadRequest, fmt.Errorf("missing table parameter"))
		return "", false
	}
	return table, true
}

// handleBackendCaps implements GET /api/backend/caps — the netbe
// handshake: protocol version plus the selected backend's capability
// flags, so a remote engine degrades for this store exactly as a local
// one would.
func (s *Server) handleBackendCaps(w http.ResponseWriter, r *http.Request) {
	rb, ok := s.wireBackend(w, r)
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, wire.Handshake{Proto: wire.ProtoVersion, Backend: rb.name, Capabilities: rb.be.Capabilities()})
}

// handleBackendInfo implements GET /api/backend/info?table=t: the
// table's schema description. A missing table is 404 (ErrNoTable on the
// client), an introspection outage 502.
func (s *Server) handleBackendInfo(w http.ResponseWriter, r *http.Request) {
	rb, ok := s.wireBackend(w, r)
	if !ok {
		return
	}
	table, ok := wireTable(w, r)
	if !ok {
		return
	}
	ti, err := rb.be.TableInfo(r.Context(), table)
	if err != nil {
		writeError(w, statusForError(err), err)
		return
	}
	writeJSON(w, http.StatusOK, ti)
}

// handleBackendStats implements GET /api/backend/stats?table=t: the
// per-column statistics the view generator needs.
func (s *Server) handleBackendStats(w http.ResponseWriter, r *http.Request) {
	rb, ok := s.wireBackend(w, r)
	if !ok {
		return
	}
	table, ok := wireTable(w, r)
	if !ok {
		return
	}
	ts, err := rb.be.TableStats(r.Context(), table)
	if err != nil {
		writeError(w, statusForError(err), err)
		return
	}
	writeJSON(w, http.StatusOK, ts)
}

// handleBackendVersion implements GET /api/backend/version?table=t: the
// table's current version token. The payload's OK field carries the
// existence bit; the call itself only fails on bad parameters, matching
// TableVersion's (token, ok) shape rather than an error contract.
func (s *Server) handleBackendVersion(w http.ResponseWriter, r *http.Request) {
	rb, ok := s.wireBackend(w, r)
	if !ok {
		return
	}
	table, ok := wireTable(w, r)
	if !ok {
		return
	}
	v, vok := rb.be.TableVersion(r.Context(), table)
	writeJSON(w, http.StatusOK, wire.TableVersion{Version: v, OK: vok})
}
