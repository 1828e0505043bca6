package shardbe

import (
	"context"
	"reflect"
	"strings"
	"testing"
	"time"

	"seedb/internal/backend"
	"seedb/internal/telemetry"
)

// TestTracePropagatesThroughFanout checks that a traced Exec produces a
// shard.fanout span with one shard.exec child per fanned-out child
// execution, each tagged with its shard index, and that every child's
// latency lands in the collector's shard histogram.
func TestTracePropagatesThroughFanout(t *testing.T) {
	bes := salesChildren(t, 3)
	tel := telemetry.NewCollector()
	r, err := New(bes, Options{Telemetry: tel})
	if err != nil {
		t.Fatal(err)
	}

	ctx, tr := telemetry.WithTrace(context.Background(), "test")
	_, stats, err := r.Exec(ctx, "SELECT region, COUNT(*) FROM sales GROUP BY region", backend.ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if stats.ShardFanout != 3 {
		t.Fatalf("fanout = %d", stats.ShardFanout)
	}

	node := tr.Finish()
	fan := node.Find("shard.fanout")
	if fan == nil {
		t.Fatalf("no shard.fanout span:\n%s", node.Render())
	}
	if fan.Attrs["children"] != "3" {
		t.Errorf("fanout children attr = %q", fan.Attrs["children"])
	}
	shards := map[string]bool{}
	for _, c := range fan.Children {
		if c.Name != "shard.exec" {
			continue
		}
		shards[c.Attrs["shard"]] = true
		// The embedded child runs under the span's context, so its sqldb
		// spans must nest beneath the shard.exec span.
		if c.Find("sqldb.scan") == nil {
			t.Errorf("shard.exec %s has no nested sqldb.scan span:\n%s", c.Attrs["shard"], node.Render())
		}
	}
	if len(shards) != 3 || !shards["0"] || !shards["1"] || !shards["2"] {
		t.Errorf("shard.exec spans for shards %v, want 0,1,2:\n%s", shards, node.Render())
	}
	if node.Find("shard.plan") == nil || node.Find("shard.merge") == nil {
		t.Errorf("missing shard.plan/shard.merge spans:\n%s", node.Render())
	}
	if fan.Attrs["pass_through"] != "" {
		t.Errorf("an unmarked statement's fan-out is marked pass_through:\n%s", node.Render())
	}
	if got := tel.ShardLatency.Snapshot().Count; got != 3 {
		t.Errorf("shard histogram count = %d, want 3", got)
	}
}

// TestPassThroughTrace pins the span tree of a statement the caller
// marks decomposable: no shard.plan or shard.merge span, a shard.fanout
// span marked pass_through with one shard.exec child per child, and the
// children's rows returned unmerged, one part each.
func TestPassThroughTrace(t *testing.T) {
	bes := salesChildren(t, 3)
	r, err := New(bes, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, tr := telemetry.WithTrace(context.Background(), "test")
	rows, stats, err := r.Exec(backend.WithDecomposable(ctx, "sales"), "SELECT region, COUNT(qty) FROM sales GROUP BY region", backend.ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if stats.ShardFanout != 3 || len(rows.Parts) != 3 || rows.Parts[2] != len(rows.Rows) {
		t.Fatalf("fanout %d, parts %v over %d rows; want 3 parts ending at the last row", stats.ShardFanout, rows.Parts, len(rows.Rows))
	}
	if stats.Groups != len(rows.Rows) {
		t.Errorf("Groups = %d, want the %d partial rows", stats.Groups, len(rows.Rows))
	}
	node := tr.Finish()
	if node.Find("shard.plan") != nil || node.Find("shard.merge") != nil {
		t.Errorf("pass-through statement has a shard.plan or shard.merge span:\n%s", node.Render())
	}
	fan := node.Find("shard.fanout")
	if fan == nil || fan.Attrs["pass_through"] != "true" || fan.Attrs["children"] != "3" {
		t.Fatalf("want a shard.fanout span with pass_through=true over 3 children:\n%s", node.Render())
	}
	if got := len(execSpans(node)); got != 3 {
		t.Errorf("%d shard.exec spans, want 3:\n%s", got, node.Render())
	}
}

// slowBackend delays each Exec until its context dies, simulating a
// straggling shard the first-error cancellation must abort.
type slowBackend struct{ backend.Backend }

func (s slowBackend) Exec(ctx context.Context, q string, opts backend.ExecOptions) (*backend.Rows, backend.ExecStats, error) {
	select {
	case <-ctx.Done():
		return nil, backend.ExecStats{}, ctx.Err()
	case <-time.After(5 * time.Second):
		return nil, backend.ExecStats{}, nil
	}
}

// TestCancellationClosesOpenSpans checks that when one shard fails and
// cancellation aborts the stragglers, every span still closes by the
// time Exec returns — no leaked open shard.exec spans — and says what
// happened to its partial: status=error on the failing shard,
// status=cancelled on both stragglers, and no resource counters on any.
func TestCancellationClosesOpenSpans(t *testing.T) {
	bes := salesChildren(t, 3)
	bes[0] = failingBackend{bes[0]}
	bes[1] = slowBackend{bes[1]}
	bes[2] = slowBackend{bes[2]}
	tel := telemetry.NewCollector()
	r, err := New(bes, Options{Telemetry: tel})
	if err != nil {
		t.Fatal(err)
	}

	ctx, tr := telemetry.WithTrace(context.Background(), "test")
	_, _, err = r.Exec(ctx, "SELECT region, COUNT(*) FROM sales GROUP BY region", backend.ExecOptions{})
	if err == nil || !strings.Contains(err.Error(), "disk on fire") {
		t.Fatalf("error = %v, want root cause", err)
	}
	if open := tr.Open(); len(open) != 0 {
		t.Errorf("open spans after cancelled fan-out: %v", open)
	}
	// Failed and cancelled children do not pollute the latency histogram.
	if got := tel.ShardLatency.Snapshot().Count; got != 0 {
		t.Errorf("shard histogram count = %d after all-error fan-out", got)
	}
	node := tr.Finish()
	status := map[string]string{}
	for _, sp := range execSpans(node) {
		status[sp.Attrs["shard"]] = sp.Attrs["status"]
		if sp.Attrs["rows_scanned"] != "" {
			t.Errorf("shard %s span carries rows_scanned without a result:\n%s", sp.Attrs["shard"], node.Render())
		}
	}
	if want := map[string]string{"0": "error", "1": "cancelled", "2": "cancelled"}; !reflect.DeepEqual(status, want) {
		t.Errorf("shard.exec statuses = %v, want %v:\n%s", status, want, node.Render())
	}
}
