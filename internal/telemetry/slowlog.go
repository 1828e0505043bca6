package telemetry

import (
	"encoding/json"
	"io"
	"sync"
	"time"
)

// DefaultSlowThreshold is the slow-query threshold when the log was
// created without one.
const DefaultSlowThreshold = 100 * time.Millisecond

// SlowLog is the structured slow-query log: JSON lines, one per
// operation that crossed the threshold. Writes are serialized under one
// mutex so concurrent requests never interleave partial lines. All
// methods are nil-receiver safe, so callers hold a *SlowLog that may
// simply not be configured.
type SlowLog struct {
	mu        sync.Mutex
	w         io.Writer
	threshold time.Duration
}

// NewSlowLog creates a slow log writing JSON lines to w. threshold <= 0
// selects DefaultSlowThreshold.
func NewSlowLog(w io.Writer, threshold time.Duration) *SlowLog {
	if threshold <= 0 {
		threshold = DefaultSlowThreshold
	}
	return &SlowLog{w: w, threshold: threshold}
}

// Threshold returns the log's default threshold (0 when l is nil).
func (l *SlowLog) Threshold() time.Duration {
	if l == nil {
		return 0
	}
	return l.threshold
}

// SlowEntry is one slow-query log line. Kind distinguishes a single SQL
// query ("query") from a whole Recommend invocation ("request"); the
// server also routes recovered handler panics here as Kind "panic" —
// the slow log is the process's one structured operational sink.
type SlowEntry struct {
	Time string `json:"time"` // RFC3339Nano wall clock
	Kind string `json:"kind"` // "query" | "request"
	// Table and SQL identify the work; SQL is the canonical statement
	// text for queries and the target predicate for requests.
	Table string `json:"table,omitempty"`
	SQL   string `json:"sql,omitempty"`
	// Lo/Hi is the row range of a phased query execution (0/0 = full).
	Lo int `json:"lo,omitempty"`
	Hi int `json:"hi,omitempty"`
	// ElapsedMS crossed ThresholdMS — that is why the entry exists.
	ElapsedMS   float64 `json:"elapsed_ms"`
	ThresholdMS float64 `json:"threshold_ms"`
	// Exec stats for queries; invocation counters for requests.
	RowsScanned    int64  `json:"rows_scanned,omitempty"`
	Vectorized     bool   `json:"vectorized,omitempty"`
	FallbackReason string `json:"fallback_reason,omitempty"`
	ShardFanout    int    `json:"shard_fanout,omitempty"`
	Queries        int    `json:"queries_executed,omitempty"`
	Strategy       string `json:"strategy,omitempty"`
	// TraceID joins the entry against the trace store (GET
	// /api/traces/{id}) when the request was traced or head-sampled;
	// Trace is the span subtree of the slow operation itself.
	TraceID string    `json:"trace_id,omitempty"`
	Trace   *SpanNode `json:"trace,omitempty"`
	// Path and Stack describe a recovered handler panic (Kind "panic"):
	// the request path that triggered it and the goroutine stack.
	Path  string `json:"path,omitempty"`
	Stack string `json:"stack,omitempty"`
}

// Log emits one entry, stamping the wall-clock time. Nil-safe no-op.
func (l *SlowLog) Log(e SlowEntry) {
	if l == nil {
		return
	}
	e.Time = time.Now().UTC().Format(time.RFC3339Nano)
	data, err := json.Marshal(e)
	if err != nil {
		return // an unmarshalable entry is not worth failing a query over
	}
	data = append(data, '\n')
	l.mu.Lock()
	_, _ = l.w.Write(data)
	l.mu.Unlock()
}
