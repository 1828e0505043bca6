// The request chain every call crosses before it reaches a handler, and
// the helpers every handler shares: recover → admit → mux, then inside
// the handler decode (bounded) and, for the two executing endpoints,
// the request deadline.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime/debug"

	"seedb/internal/resilience"
	"seedb/internal/telemetry"
)

// recoverPanics converts a handler panic to a 500 (instead of
// net/http's per-connection reset, which looks like an outage to load
// balancers), counts it in seedb_panics_total, and logs it with its
// stack to the slow-query sink.
func (s *Server) recoverPanics(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if p := recover(); p != nil {
				s.panics.Add(1)
				if sl := s.tel.Slow(); sl != nil {
					sl.Log(telemetry.SlowEntry{
						Kind:  "panic",
						Path:  r.URL.Path,
						Stack: fmt.Sprintf("panic: %v\n%s", p, debug.Stack()),
					})
				}
				// Best-effort: if the handler already wrote headers this is a
				// no-op on the status, but the connection still closes cleanly.
				writeError(w, http.StatusInternalServerError, fmt.Errorf("internal error: %v", p))
			}
		}()
		next.ServeHTTP(w, r)
	})
}

// admit holds the request's admission slot (see SetAdmission) for as
// long as the rest of the chain runs. A rejection maps to 429 for a
// full wait queue (clients should back off harder), 503 for a timed
// shed, and the blameless 503 for a caller that gave up while queued;
// all carry Retry-After so well-behaved clients pace themselves.
func (s *Server) admit(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if gate := s.gateFor(r.URL.Path); gate != nil {
			release, err := gate.Acquire(r.Context())
			if err != nil {
				status := http.StatusServiceUnavailable
				if errors.Is(err, resilience.ErrQueueFull) {
					status = http.StatusTooManyRequests
				}
				w.Header().Set("Retry-After", "1")
				writeError(w, status, err)
				return
			}
			defer release()
		}
		next.ServeHTTP(w, r)
	})
}

// gateFor classifies a request path into an admission budget (nil =
// ungated: health, metrics and introspection must stay reachable
// exactly when the server is saturated).
func (s *Server) gateFor(path string) *resilience.Gate {
	switch path {
	case "/api/recommend", "/api/query":
		return s.queryGate
	case "/api/ingest", "/api/datasets/load", "/api/datasets/synth":
		return s.ingestGate
	}
	return nil
}

// maxBodyBytes caps a POST body. The largest legitimate one is an
// ingest batch; at ~100 bytes a row this admits a few hundred thousand
// rows per request, far past what one write-lock hold should carry.
const maxBodyBytes = 32 << 20

// decode reads the request body as exactly one JSON value of type T.
// On failure it has already answered — 413 for a body over
// maxBodyBytes, 400 for malformed JSON or anything but whitespace after
// the value — and reports false.
func decode[T any](w http.ResponseWriter, r *http.Request) (v T, ok bool) {
	r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
	dec := json.NewDecoder(r.Body)
	err := dec.Decode(&v)
	if err == nil {
		if _, terr := dec.Token(); terr == nil {
			err = errors.New("unexpected data after the JSON value")
		} else if terr != io.EOF {
			err = terr
		}
	}
	if err == nil {
		return v, true
	}
	status := http.StatusBadRequest
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		status = http.StatusRequestEntityTooLarge
	}
	writeError(w, status, fmt.Errorf("bad request body: %w", err))
	return v, false
}

// deadline bounds an executing request by the server's Timeout.
func (s *Server) deadline(ctx context.Context) (context.Context, context.CancelFunc) {
	if s.Timeout <= 0 {
		return ctx, func() {}
	}
	return context.WithTimeout(ctx, s.Timeout)
}

// errorResponse is the uniform error payload.
type errorResponse struct {
	Error string `json:"error"`
}

// writeJSON writes v with the given status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// writeError writes a JSON error.
func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, errorResponse{Error: err.Error()})
}
