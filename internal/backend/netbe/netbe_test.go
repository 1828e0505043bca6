package netbe_test

import (
	"context"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"seedb/internal/backend"
	"seedb/internal/backend/netbe"
	"seedb/internal/server"
	"seedb/internal/sqldb"
)

// buildDB creates a small table with values a decimal wire format would
// mangle: non-representable fractions, negative zero, NaN and infinity.
func buildDB(t *testing.T) *sqldb.DB {
	t.Helper()
	db := sqldb.NewDB()
	schema := sqldb.MustSchema(
		sqldb.Column{Name: "k", Type: sqldb.TypeString},
		sqldb.Column{Name: "v", Type: sqldb.TypeInt},
		sqldb.Column{Name: "f", Type: sqldb.TypeFloat},
	)
	tab, err := db.CreateTable("t", schema, sqldb.LayoutCol)
	if err != nil {
		t.Fatal(err)
	}
	rows := [][]sqldb.Value{
		{sqldb.Str("a"), sqldb.Int(1), sqldb.Float(0.1)},
		{sqldb.Str("a"), sqldb.Int(1 << 60), sqldb.Float(math.Copysign(0, -1))},
		{sqldb.Str("b"), sqldb.Int(-7), sqldb.Float(math.NaN())},
		{sqldb.Str("b"), sqldb.Int(0), sqldb.Float(math.Inf(1))},
		{sqldb.Null(), sqldb.Int(3), sqldb.Null()},
	}
	if err := tab.Append(rows); err != nil {
		t.Fatal(err)
	}
	return db
}

// flaky is an HTTP middleman that sabotages the next N requests in a
// configurable way before delegating to the real server.
type flaky struct {
	inner http.Handler

	mu       sync.Mutex
	fail     int
	mode     string // "503", "abort", "torn"
	requests int
}

func (f *flaky) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	f.mu.Lock()
	f.requests++
	sabotage := f.fail > 0
	if sabotage {
		f.fail--
	}
	mode := f.mode
	f.mu.Unlock()
	if !sabotage {
		f.inner.ServeHTTP(w, r)
		return
	}
	switch mode {
	case "abort":
		// net/http closes the connection mid-response: the client sees a
		// connection reset, not a status.
		panic(http.ErrAbortHandler)
	case "torn":
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write([]byte(`{"columns":["k"],"vrows":[[{"k":`))
	default:
		http.Error(w, `{"error":"injected outage"}`, http.StatusServiceUnavailable)
	}
}

// sabotage arms the next n requests with the given failure mode.
func (f *flaky) sabotage(n int, mode string) {
	f.mu.Lock()
	f.fail, f.mode = n, mode
	f.mu.Unlock()
}

// count returns how many requests the middleman has seen.
func (f *flaky) count() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.requests
}

// newClient stands up a seedb-server behind a flaky middleman and
// connects a netbe client with a tight, deterministic retry budget.
func newClient(t *testing.T, opts netbe.Options) (*netbe.Client, *flaky) {
	t.Helper()
	db := buildDB(t)
	f := &flaky{inner: server.New(db)}
	srv := httptest.NewServer(f)
	t.Cleanup(srv.Close)
	if opts.MaxAttempts == 0 {
		opts.MaxAttempts = 3
	}
	if opts.BaseBackoff == 0 {
		opts.BaseBackoff = time.Millisecond
		opts.MaxBackoff = 4 * time.Millisecond
	}
	c, err := netbe.New(context.Background(), srv.URL, opts)
	if err != nil {
		t.Fatal(err)
	}
	return c, f
}

const testQuery = "SELECT k, v, f FROM t"

// wantRows is the embedded reference result for testQuery.
func wantRows(t *testing.T) *backend.Rows {
	t.Helper()
	rows, _, err := backend.NewEmbedded(buildDB(t)).Exec(context.Background(), testQuery, backend.ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return rows
}

// sameValues compares results with bit-level float identity (NaN equals
// NaN, -0.0 differs from +0.0 — exactly what the wire must preserve).
func sameValues(a, b *backend.Rows) bool {
	if !reflect.DeepEqual(a.Columns, b.Columns) || len(a.Rows) != len(b.Rows) {
		return false
	}
	for r := range a.Rows {
		if len(a.Rows[r]) != len(b.Rows[r]) {
			return false
		}
		for c, va := range a.Rows[r] {
			vb := b.Rows[r][c]
			if va.Kind != vb.Kind || va.I != vb.I || va.S != vb.S || math.Float64bits(va.F) != math.Float64bits(vb.F) {
				return false
			}
		}
	}
	return true
}

// TestExecRoundTripBitExact drives the full wire path with hostile
// float values and requires bit identity with an in-process execution.
func TestExecRoundTripBitExact(t *testing.T) {
	c, _ := newClient(t, netbe.Options{})
	rows, stats, err := c.Exec(context.Background(), testQuery, backend.ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !sameValues(rows, wantRows(t)) {
		t.Errorf("wire round trip diverged:\ngot  %+v\nwant %+v", rows.Rows, wantRows(t).Rows)
	}
	if stats.NetRetries != 0 {
		t.Errorf("NetRetries = %d on a healthy exchange", stats.NetRetries)
	}
}

// TestIntrospectionRoundTrip checks the schema/stats/version endpoints
// against the embedded source of truth.
func TestIntrospectionRoundTrip(t *testing.T) {
	c, _ := newClient(t, netbe.Options{})
	ctx := context.Background()

	ti, err := c.TableInfo(ctx, "t")
	if err != nil {
		t.Fatal(err)
	}
	if ti.Name != "t" || ti.Rows != 5 || len(ti.Columns) != 3 || ti.Columns[2].Type != backend.TypeFloat {
		t.Errorf("TableInfo = %+v", ti)
	}
	ts, err := c.TableStats(ctx, "t")
	if err != nil {
		t.Fatal(err)
	}
	if ts.Rows != 5 || len(ts.Columns) != 3 {
		t.Errorf("TableStats = %+v", ts)
	}
	if kc, ok := ts.Column("k"); !ok || kc.Distinct != 2 {
		t.Errorf("k distinct = %+v", kc)
	}
	caps := c.Capabilities()
	if !caps.SupportsPhasedExecution {
		t.Errorf("embedded remote should keep full capabilities, got %+v", caps)
	}

	if _, err := c.TableInfo(ctx, "nope"); !errors.Is(err, backend.ErrNoTable) {
		t.Errorf("missing table error = %v, want ErrNoTable", err)
	}
}

// TestVersionTokensAreServerScoped: two servers holding identical data
// must hand out distinct version tokens — remote generation counters
// are process-scoped and must never collide across servers in a shared
// cache.
func TestVersionTokensAreServerScoped(t *testing.T) {
	c1, _ := newClient(t, netbe.Options{})
	c2, _ := newClient(t, netbe.Options{})
	v1, ok1 := c1.TableVersion(context.Background(), "t")
	v2, ok2 := c2.TableVersion(context.Background(), "t")
	if !ok1 || !ok2 {
		t.Fatalf("versions absent: %t %t", ok1, ok2)
	}
	if v1 == v2 {
		t.Errorf("two servers share version token %q", v1)
	}
	u1, u2 := strings.SplitN(v1, "#", 2)[0], strings.SplitN(v2, "#", 2)[0]
	if !strings.HasPrefix(u1, "http://") || u1 == u2 {
		t.Errorf("tokens %q and %q are not scoped by distinct server URLs", v1, v2)
	}
}

// TestCancelledIntrospection: the Backend contract under a dead ctx —
// introspection fails promptly, the version is absent, nothing retries.
func TestCancelledIntrospection(t *testing.T) {
	c, f := newClient(t, netbe.Options{})
	before := f.count()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.TableInfo(ctx, "t"); err == nil {
		t.Error("TableInfo with cancelled ctx succeeded")
	}
	if v, ok := c.TableVersion(ctx, "t"); ok {
		t.Errorf("TableVersion with cancelled ctx = %q", v)
	}
	// A dead ctx must not spend the retry budget: at most one wire
	// attempt per call ever starts.
	if got := f.count() - before; got > 2 {
		t.Errorf("cancelled calls issued %d requests", got)
	}
}

// TestRetryRecoversFrom503 scripts two outages: the third attempt wins
// and the spent retries surface in ExecStats.NetRetries.
func TestRetryRecoversFrom503(t *testing.T) {
	c, f := newClient(t, netbe.Options{})
	f.sabotage(2, "503")
	rows, stats, err := c.Exec(context.Background(), testQuery, backend.ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !sameValues(rows, wantRows(t)) {
		t.Error("post-retry result diverged")
	}
	if stats.NetRetries != 2 {
		t.Errorf("NetRetries = %d, want 2", stats.NetRetries)
	}
}

// TestRetryRecoversFromConnectionReset and ...FromTornResponse: both
// transport-level failure shapes must count as retryable.
func TestRetryRecoversFromConnectionReset(t *testing.T) {
	c, f := newClient(t, netbe.Options{})
	f.sabotage(1, "abort")
	_, stats, err := c.Exec(context.Background(), testQuery, backend.ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if stats.NetRetries != 1 {
		t.Errorf("NetRetries = %d, want 1", stats.NetRetries)
	}
}

func TestRetryRecoversFromTornResponse(t *testing.T) {
	c, f := newClient(t, netbe.Options{})
	f.sabotage(1, "torn")
	_, stats, err := c.Exec(context.Background(), testQuery, backend.ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if stats.NetRetries != 1 {
		t.Errorf("NetRetries = %d, want 1", stats.NetRetries)
	}
}

// TestRetryBudgetIsBounded: a persistent outage consumes exactly
// MaxAttempts round trips and surfaces as backend.ErrUnavailable.
func TestRetryBudgetIsBounded(t *testing.T) {
	c, f := newClient(t, netbe.Options{MaxAttempts: 3})
	f.sabotage(100, "503")
	before := f.count()
	_, _, err := c.Exec(context.Background(), testQuery, backend.ExecOptions{})
	if !errors.Is(err, backend.ErrUnavailable) {
		t.Fatalf("exhausted budget error = %v, want ErrUnavailable", err)
	}
	if got := f.count() - before; got != 3 {
		t.Errorf("spent %d attempts, want exactly 3", got)
	}
}

// TestClientErrorsNeverRetry: a 400 (bad SQL) and a 404 (no table)
// repeat identically, so the client must spend exactly one attempt.
func TestClientErrorsNeverRetry(t *testing.T) {
	c, f := newClient(t, netbe.Options{})
	before := f.count()
	if _, _, err := c.Exec(context.Background(), "SELEKT broken", backend.ExecOptions{}); err == nil {
		t.Fatal("broken SQL succeeded")
	} else if errors.Is(err, backend.ErrUnavailable) {
		t.Errorf("client mistake classified as outage: %v", err)
	}
	if got := f.count() - before; got != 1 {
		t.Errorf("bad SQL spent %d attempts, want 1", got)
	}
	before = f.count()
	if _, err := c.TableInfo(context.Background(), "nope"); !errors.Is(err, backend.ErrNoTable) {
		t.Fatalf("missing table = %v", err)
	}
	if got := f.count() - before; got != 1 {
		t.Errorf("missing table spent %d attempts, want 1", got)
	}
}

// TestDeadlineBoundsRetries: with a deadline far shorter than the
// backoff schedule, the call returns promptly instead of sleeping
// through retries the caller can no longer use.
func TestDeadlineBoundsRetries(t *testing.T) {
	c, f := newClient(t, netbe.Options{
		MaxAttempts: 10,
		BaseBackoff: 200 * time.Millisecond,
		MaxBackoff:  time.Second,
	})
	f.sabotage(100, "503")
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, _, err := c.Exec(ctx, testQuery, backend.ExecOptions{})
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("exec under a tight deadline succeeded against a dead server")
	}
	if elapsed > 2*time.Second {
		t.Errorf("deadline-bounded exec took %v", elapsed)
	}
}

// TestHandshakeRejectsNonServer: constructing a client against an
// endpoint that does not speak the wire protocol fails loudly.
func TestHandshakeRejectsNonServer(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		_, _ = w.Write([]byte(`{"hello":"world"}`))
	}))
	defer srv.Close()
	if _, err := netbe.New(context.Background(), srv.URL, netbe.Options{}); err == nil {
		t.Error("handshake against a non-seedb server succeeded")
	}
	if _, err := netbe.New(context.Background(), "not-a-url", netbe.Options{}); err == nil {
		t.Error("invalid base URL accepted")
	}
}

// TestHandshakeRejectsOlderProtocol: a protocol-2 server cannot parse
// the UNION ALL statements this client's router sends, so the client
// refuses it at connect time.
func TestHandshakeRejectsOlderProtocol(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		_, _ = w.Write([]byte(`{"proto":2,"backend":"sqldb","supports_phased_execution":true}`))
	}))
	defer srv.Close()
	_, err := netbe.New(context.Background(), srv.URL, netbe.Options{})
	if err == nil || !strings.Contains(err.Error(), "protocol 2") {
		t.Errorf("handshake with a protocol-2 server: err %v, want a protocol mismatch", err)
	}
}
