package harness

import (
	"bufio"
	"context"
	"encoding/json"
	"net/http"
	"os"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"seedb/internal/backend"
)

// Tracing lives entirely in this package: spans are recorded around the
// calls into each layer's public surface — the HTTP handler, and every
// backend.Backend the server and the shard router call — and nothing in
// the program under test is edited. Span names carry the layer as their
// prefix: client.*, server.*, shardbe.* (the router), sqldb.* (a leaf
// store).

// Span is one timed call. Start and End are nanoseconds since the
// recorder's epoch. Spans of one request share Req, which is also the
// ID of the request's root (client) span.
type Span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Req    uint64 `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Counts taken at the same boundary as the times.
	Path        string `json:"path,omitempty"`         // client.* and server.handle
	Rows        int64  `json:"rows_scanned,omitempty"` // *.exec
	Vectorized  bool   `json:"vectorized,omitempty"`   // sqldb.exec
	Fanout      int    `json:"fanout,omitempty"`       // shardbe.exec
	StragglerNS int64  `json:"straggler_ns,omitempty"` // shardbe.exec
}

// reqHeader carries the request (root span) ID from the client to the
// handler wrapper.
const reqHeader = "X-Bench-Request"

// maxCapturedSQL bounds the SQL texts kept for the replay probes.
const maxCapturedSQL = 64

// Recorder keeps spans in memory until the run ends.
type Recorder struct {
	epoch  time.Time
	nextID atomic.Uint64
	opened atomic.Int64

	mu    sync.Mutex
	spans []Span
	sql   []string
}

func NewRecorder() *Recorder { return &Recorder{epoch: time.Now()} }

func (r *Recorder) now() int64 { return int64(time.Since(r.epoch)) }

// open reserves a span ID; the span is stored when closed.
func (r *Recorder) open() uint64 {
	r.opened.Add(1)
	return r.nextID.Add(1)
}

func (r *Recorder) close(s Span) {
	s.End = r.now()
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

func (r *Recorder) captureSQL(q string) {
	r.mu.Lock()
	if len(r.sql) < maxCapturedSQL {
		r.sql = append(r.sql, q)
	}
	r.mu.Unlock()
}

// Spans returns the closed spans, grouped by request in request order
// (closing order within a request), and how many were ever opened; the
// two counts differ only if some call never returned. Call it once the
// run is over.
func (r *Recorder) Spans() (spans []Span, opened int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	sort.SliceStable(r.spans, func(a, b int) bool { return r.spans[a].Req < r.spans[b].Req })
	return r.spans, int(r.opened.Load())
}

// spanRef is what a span hands down through the context to the calls it
// makes: the request it belongs to and itself as their parent.
type spanRef struct{ req, id uint64 }

type ctxKey struct{}

// Handler wraps the server so every request that carries reqHeader gets
// a server.handle span; the backend decorators below find their parent
// in the request context. Requests without the header (set-up, health
// probes) pass through untraced.
func (r *Recorder) Handler(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, q *http.Request) {
		req, err := strconv.ParseUint(q.Header.Get(reqHeader), 10, 64)
		if err != nil {
			next.ServeHTTP(w, q)
			return
		}
		s := Span{ID: r.open(), Parent: req, Req: req, Name: "server.handle", Path: q.URL.Path, Start: r.now()}
		next.ServeHTTP(w, q.WithContext(context.WithValue(q.Context(), ctxKey{}, spanRef{req, s.ID})))
		r.close(s)
	})
}

// tracedBackend is the timing decorator at the backend seam: one span
// per call, parented to whatever span the context carries. It delegates
// Name and Capabilities, so version tokens, cache keys and strategy
// choice are those of the undecorated store.
type tracedBackend struct {
	inner backend.Backend
	rec   *Recorder
	layer string // span-name prefix: "sqldb" for a leaf store, "shardbe" for the router
	top   bool   // called by the engine directly: capture its SQL for the replay probes
}

func (t *tracedBackend) Name() string                       { return t.inner.Name() }
func (t *tracedBackend) Capabilities() backend.Capabilities { return t.inner.Capabilities() }

// begin opens a span under the context's span. Calls outside a traced
// request (set-up, correctness replays) are not recorded.
func (t *tracedBackend) begin(ctx context.Context, op string) (context.Context, Span, bool) {
	ref, ok := ctx.Value(ctxKey{}).(spanRef)
	if !ok {
		return ctx, Span{}, false
	}
	s := Span{ID: t.rec.open(), Parent: ref.id, Req: ref.req, Name: t.layer + "." + op, Start: t.rec.now()}
	return context.WithValue(ctx, ctxKey{}, spanRef{ref.req, s.ID}), s, true
}

func (t *tracedBackend) TableInfo(ctx context.Context, table string) (backend.TableInfo, error) {
	ctx, s, ok := t.begin(ctx, "info")
	ti, err := t.inner.TableInfo(ctx, table)
	if ok {
		t.rec.close(s)
	}
	return ti, err
}

func (t *tracedBackend) TableVersion(ctx context.Context, table string) (string, bool) {
	ctx, s, ok := t.begin(ctx, "version")
	v, found := t.inner.TableVersion(ctx, table)
	if ok {
		t.rec.close(s)
	}
	return v, found
}

func (t *tracedBackend) TableStats(ctx context.Context, table string) (*backend.TableStats, error) {
	ctx, s, ok := t.begin(ctx, "stats")
	ts, err := t.inner.TableStats(ctx, table)
	if ok {
		t.rec.close(s)
	}
	return ts, err
}

func (t *tracedBackend) Exec(ctx context.Context, query string, opts backend.ExecOptions) (*backend.Rows, backend.ExecStats, error) {
	ctx, s, ok := t.begin(ctx, "exec")
	rows, stats, err := t.inner.Exec(ctx, query, opts)
	if ok {
		s.Rows, s.Vectorized = int64(stats.RowsScanned), stats.Vectorized
		s.Fanout, s.StragglerNS = stats.ShardFanout, int64(stats.ShardStragglerMax)
		t.rec.close(s)
	}
	if t.top && err == nil {
		// Set-up requests count too: hot_dashboard executes SQL only then.
		t.rec.captureSQL(query)
	}
	return rows, stats, err
}

// maxTraceRequests bounds the trace file: the per-layer metrics use
// every span, the file keeps the spans of the first requests only (a
// hot_dashboard window records several hundred thousand spans).
const maxTraceRequests = 5000

// WriteTrace writes one JSON span per line for the first
// maxTraceRequests requests of spans (grouped by request).
func WriteTrace(path string, spans []Span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close() // error paths; the success path checks Close below
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	requests := 0
	for i, s := range spans {
		if i == 0 || s.Req != spans[i-1].Req {
			if requests++; requests > maxTraceRequests {
				break
			}
		}
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	if err := w.Flush(); err != nil {
		return err
	}
	return f.Close()
}
