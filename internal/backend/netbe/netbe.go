// Package netbe implements the network child backend: an HTTP client
// adapter that makes a remote seedb-server a conforming backend.Backend.
// It is the cross-process step of the middleware/DBMS split the paper's
// architecture draws (Section 3) — the engine, the shard router, the
// cache, none of them change; a remote server simply becomes one more
// store behind the seam, and a shardbe router over N netbe children is
// a scale-out deployment instead of an in-process simulation.
//
// Wire contract (shared types in the wire subpackage; the server side
// lives in internal/server):
//
//	GET  /api/backend/caps     handshake: protocol version + capability flags
//	GET  /api/backend/info     TableInfo with its version token (404 ⇒ backend.ErrNoTable)
//	GET  /api/backend/stats    TableStats
//	POST /api/query            Exec with {"wire":true}: typed values + ExecStats
//
// Tracing: when the caller's context carries a span, every call is
// stamped with a Traceparent header (telemetry.TraceparentHeader), and
// /api/query responses bring the child process's span tree home, which
// Exec grafts under the calling span — one stitched cross-process
// trace. Untraced calls send no header and pay nothing.
//
// Robustness: every call runs under a per-call timeout and a bounded,
// jittered-backoff retry budget. Retries are safe because every call is
// an idempotent read (the server's query path is SELECT-only); they
// fire only on transport failures, torn responses and 5xx statuses —
// 4xx are the caller's mistake and surface immediately. The retry loop
// is context-deadline aware: it never sleeps past the caller's deadline
// and never retries a cancelled call. Exhausted budgets surface as
// errors wrapping backend.ErrUnavailable, which the HTTP server maps to
// 502 — so a router stacked on top of THIS server keys its own retry
// policy off the same status codes.
package netbe

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"time"

	"seedb/internal/backend"
	"seedb/internal/backend/netbe/wire"
	"seedb/internal/telemetry"
)

// DefaultName is the backend name when Options.Name is empty.
const DefaultName = "net"

// Options configures a Client.
type Options struct {
	// Name labels the backend instance (default "net"). Version tokens
	// additionally embed the base URL and remote backend name, so two
	// same-named clients of different servers never share cache entries.
	Name string
	// Backend selects which backend of the remote server serves this
	// client's calls ("" = the remote default).
	Backend string
	// HTTPClient overrides the pooled default client (tests inject
	// fault-injecting transports here). Its Timeout is left alone;
	// per-call deadlines come from CallTimeout and the caller's ctx.
	HTTPClient *http.Client
	// MaxAttempts bounds tries per call, first attempt included
	// (default 3; 1 disables retries).
	MaxAttempts int
	// BaseBackoff is the backoff before the first retry; it doubles per
	// retry up to MaxBackoff, with ±50% jitter (defaults 25ms / 1s).
	BaseBackoff time.Duration
	MaxBackoff  time.Duration
	// CallTimeout bounds each individual attempt (default 30s), on top
	// of whatever deadline the caller's ctx carries.
	CallTimeout time.Duration
}

// withDefaults fills the zero fields.
func (o Options) withDefaults() Options {
	if o.Name == "" {
		o.Name = DefaultName
	}
	if o.MaxAttempts <= 0 {
		o.MaxAttempts = 3
	}
	if o.BaseBackoff <= 0 {
		o.BaseBackoff = 25 * time.Millisecond
	}
	if o.MaxBackoff <= 0 {
		o.MaxBackoff = time.Second
	}
	if o.CallTimeout <= 0 {
		o.CallTimeout = 30 * time.Second
	}
	return o
}

// Client is the network backend. It is safe for concurrent use.
type Client struct {
	base string // normalized base URL, no trailing slash
	opts Options
	hc   *http.Client
	caps backend.Capabilities
}

// New connects to a seedb-server at baseURL and performs the capability
// handshake (under the same retry budget as every other call). The
// returned client reports the remote backend's capabilities, so an
// engine — or a shard router — degrades for the remote store exactly as
// it would in-process.
func New(ctx context.Context, baseURL string, opts Options) (*Client, error) {
	opts = opts.withDefaults()
	u, err := url.Parse(baseURL)
	if err != nil || u.Scheme == "" || u.Host == "" {
		return nil, fmt.Errorf("netbe: invalid base URL %q", baseURL)
	}
	c := &Client{
		base: strings.TrimRight(baseURL, "/"),
		opts: opts,
		hc:   opts.HTTPClient,
	}
	if c.hc == nil {
		// Pooled transport: netbe children sit on a router's hot path, so
		// keep-alive connections matter more than the default's 2-per-host
		// idle cap allows.
		tr := http.DefaultTransport.(*http.Transport).Clone()
		tr.MaxIdleConnsPerHost = 32
		c.hc = &http.Client{Transport: tr}
	}
	var hs wire.Handshake
	if _, err := c.getJSON(ctx, c.endpoint("/api/backend/caps", ""), &hs); err != nil {
		return nil, fmt.Errorf("netbe: handshake with %s: %w", c.base, err)
	}
	if hs.Proto != wire.ProtoVersion {
		return nil, fmt.Errorf("netbe: server %s speaks wire protocol %d, this client speaks %d", c.base, hs.Proto, wire.ProtoVersion)
	}
	c.caps = hs.Capabilities
	return c, nil
}

// endpoint builds an API URL with the backend selector and optional
// table parameter.
func (c *Client) endpoint(path, table string) string {
	q := url.Values{}
	if c.opts.Backend != "" {
		q.Set("backend", c.opts.Backend)
	}
	if table != "" {
		q.Set("table", table)
	}
	if enc := q.Encode(); enc != "" {
		return c.base + path + "?" + enc
	}
	return c.base + path
}

// Name identifies the backend instance.
func (c *Client) Name() string { return c.opts.Name }

// Capabilities reports the remote backend's flags from the handshake.
func (c *Client) Capabilities() backend.Capabilities { return c.caps }

// TableInfo fetches the remote table description. Its version token is
// prefixed with the base URL and remote backend name: remote tokens are
// only unique within one server process, and the cache must never
// conflate two servers that happen to hand out the same tokens. A remote
// 404 surfaces as backend.ErrNoTable; outages (after the retry budget)
// wrap backend.ErrUnavailable.
func (c *Client) TableInfo(ctx context.Context, table string) (backend.TableInfo, error) {
	var ti backend.TableInfo
	if _, err := c.getJSON(ctx, c.endpoint("/api/backend/info", table), &ti); err != nil {
		return backend.TableInfo{}, fmt.Errorf("netbe: table info %s: %w", table, err)
	}
	if ti.Version != "" {
		ti.Version = c.base + "#" + c.opts.Backend + "#" + ti.Version
	}
	return ti, nil
}

// TableStats fetches the remote per-column statistics.
func (c *Client) TableStats(ctx context.Context, table string) (*backend.TableStats, error) {
	var ts backend.TableStats
	if _, err := c.getJSON(ctx, c.endpoint("/api/backend/stats", table), &ts); err != nil {
		return nil, fmt.Errorf("netbe: table stats %s: %w", table, err)
	}
	return &ts, nil
}

// TableVersion is TableInfo's Version. Any failure — cancelled ctx
// included — reports the table absent, per the Backend contract.
func (c *Client) TableVersion(ctx context.Context, table string) (string, bool) {
	return backend.VersionOf(c.TableInfo(ctx, table))
}

// Exec runs one query on the remote server over the typed wire protocol
// and returns the decoded rows and stats. Retries this call performed
// are reported in ExecStats.NetRetries, which the metrics pipeline sums
// into /healthz and /metrics. A degraded-results opt-in on ctx travels
// as the request's allow_partial field.
func (c *Client) Exec(ctx context.Context, query string, opts backend.ExecOptions) (*backend.Rows, backend.ExecStats, error) {
	reqBody, err := json.Marshal(wire.QueryRequest{SQL: query, Backend: c.opts.Backend, Wire: true, ExecOptions: opts,
		AllowPartial: backend.AllowPartialFrom(ctx)})
	if err != nil {
		return nil, backend.ExecStats{}, err
	}
	var w wire.QueryResponse
	retries, err := c.doJSON(ctx, http.MethodPost, c.base+"/api/query", reqBody, &w)
	if err != nil {
		return nil, backend.ExecStats{}, fmt.Errorf("netbe: exec: %w", err)
	}
	rows, err := wire.DecodeRows(w.Rows)
	if err != nil {
		return nil, backend.ExecStats{}, fmt.Errorf("netbe: exec: %w", err)
	}
	stats := w.Stats
	stats.NetRetries += retries
	if w.Trace != nil {
		if sp := telemetry.SpanFromContext(ctx); sp != nil {
			// Stitch the child process's span tree under the span that
			// issued the call, marked so renderers show the process hop.
			if w.Trace.Attrs == nil {
				w.Trace.Attrs = make(map[string]string, 2)
			}
			w.Trace.Attrs["remote"] = "child"
			w.Trace.Attrs["process"] = c.opts.Name + " " + c.base
			sp.AttachRemote(w.Trace)
		}
	}
	return &backend.Rows{Columns: w.Columns, Rows: rows}, stats, nil
}

// getJSON is doJSON for body-less GETs.
func (c *Client) getJSON(ctx context.Context, url string, out any) (int, error) {
	return c.doJSON(ctx, http.MethodGet, url, nil, out)
}

// RemoteError is a non-2xx response from the remote server, carrying
// the HTTP status the retry policy and error classification key off.
type RemoteError struct {
	Status int
	Msg    string
}

// Error renders the remote failure.
func (e *RemoteError) Error() string {
	return fmt.Sprintf("remote status %d: %s", e.Status, e.Msg)
}

// Is maps statuses onto the backend sentinel errors: 404 is
// backend.ErrNoTable (the remote store says the table does not exist),
// any 5xx is backend.ErrUnavailable (the remote store is the problem).
func (e *RemoteError) Is(target error) bool {
	switch target {
	case backend.ErrNoTable:
		return e.Status == http.StatusNotFound
	case backend.ErrUnavailable:
		return e.Status >= 500
	}
	return false
}

// retryableStatus reports whether a status is worth another attempt:
// transient server-side failures only. 4xx repeats identically, so it
// never retries.
func retryableStatus(status int) bool {
	switch status {
	case http.StatusInternalServerError, http.StatusBadGateway,
		http.StatusServiceUnavailable, http.StatusGatewayTimeout,
		http.StatusTooManyRequests:
		return true
	}
	return false
}

// doJSON performs one logical call: up to MaxAttempts HTTP round trips
// with exponential jittered backoff, each under CallTimeout, the whole
// loop under the caller's ctx. On success the body decodes into out.
// Returns how many retries (attempts beyond the first) were spent.
func (c *Client) doJSON(ctx context.Context, method, url string, body []byte, out any) (int, error) {
	var lastErr error
	for attempt := 0; attempt < c.opts.MaxAttempts; attempt++ {
		if attempt > 0 {
			if err := c.sleepBackoff(ctx, attempt); err != nil {
				// The caller's deadline leaves no room for another attempt:
				// the last real failure is the answer, not the sleep abort.
				return attempt - 1, lastErr
			}
		}
		if err := ctx.Err(); err != nil {
			if lastErr == nil {
				lastErr = err
			}
			return attempt, lastErr
		}
		err := c.attempt(ctx, method, url, body, out)
		if err == nil {
			return attempt, nil
		}
		lastErr = err
		if !retryable(err) {
			return attempt, err
		}
	}
	return c.opts.MaxAttempts - 1, fmt.Errorf("%w: %d attempts failed, last: %v", backend.ErrUnavailable, c.opts.MaxAttempts, lastErr)
}

// attempt is one HTTP round trip.
func (c *Client) attempt(ctx context.Context, method, url string, body []byte, out any) error {
	actx, cancel := context.WithTimeout(ctx, c.opts.CallTimeout)
	defer cancel()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(actx, method, url, rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if tp := telemetry.SpanFromContext(ctx).Traceparent(); tp != "" {
		// Cross-process propagation: the child server opens its own
		// trace under the span that issued this call and returns its
		// span tree in the wire response.
		req.Header.Set(telemetry.TraceparentHeader, tp)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		// Transport failure: unreachable, reset, attempt timeout. The
		// caller's own cancellation must surface as such, not as an
		// outage.
		if ctx.Err() != nil {
			return ctx.Err()
		}
		return &transportError{err: err}
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg := readErrorBody(resp.Body)
		return &RemoteError{Status: resp.StatusCode, Msg: msg}
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		// A torn or malformed response body: the bytes on the wire were
		// damaged, so treat it like a transport failure and retry.
		if ctx.Err() != nil {
			return ctx.Err()
		}
		return &transportError{err: fmt.Errorf("decoding response: %w", err)}
	}
	return nil
}

// transportError marks connection-level failures (and torn responses)
// as retryable outages.
type transportError struct{ err error }

func (e *transportError) Error() string { return e.err.Error() }
func (e *transportError) Unwrap() error { return e.err }
func (e *transportError) Is(target error) bool {
	return target == backend.ErrUnavailable
}

// retryable decides whether one attempt's failure is worth another try.
func retryable(err error) bool {
	if re, ok := err.(*RemoteError); ok {
		return retryableStatus(re.Status)
	}
	if _, ok := err.(*transportError); ok {
		return true
	}
	return false // caller cancellation, marshalling bugs, 4xx
}

// readErrorBody extracts the server's error payload (bounded).
func readErrorBody(r io.Reader) string {
	data, err := io.ReadAll(io.LimitReader(r, 4096))
	if err != nil || len(data) == 0 {
		return "(no body)"
	}
	var we wire.Error
	if json.Unmarshal(data, &we) == nil && we.Error != "" {
		return we.Error
	}
	return strings.TrimSpace(string(data))
}
