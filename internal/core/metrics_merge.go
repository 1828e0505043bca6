package core

import (
	"time"

	"seedb/internal/backend"
)

// ExecTotals is the exec-derived half of Metrics: what a set of paid
// backend executions cost, folded from their backend.ExecStats. Add is
// the single place the executor counters advance, which is what keeps
// the invariants QueriesExecuted == VectorizedQueries + FallbackQueries
// and sum(FallbackReasons) == FallbackQueries true on every path —
// including the vectorized fast path's runtime fallback retry and
// backends that never vectorize. The HTTP server's raw-query path
// (/api/query) folds its executions through the same point, so
// manual-chart traffic obeys the same invariants as engine traffic.
//
// Adding an execution counter is two steps: a field on sqldb.ExecStats
// with its fold in this file (Add and Merge), and a row in the server's
// metricFamilies. TestExecTotalsCoverEveryStat fails until the fold
// exists.
type ExecTotals struct {
	// QueriesExecuted counts SQL queries executed against the DBMS.
	QueriesExecuted int
	// VectorizedQueries counts executed queries served by sqldb's
	// vectorized fast path; FallbackQueries counts the ones the row
	// interpreter handled. Together they partition
	// QueriesExecuted (cache hits are counted in neither).
	VectorizedQueries int
	FallbackQueries   int
	// FallbackReasons breaks FallbackQueries down by the executor's
	// reported reason ("row-store table", "non-column group key",
	// "id-space overflow", ...); backends that report none are counted
	// under "unreported". Nil when nothing fell back.
	FallbackReasons map[string]int
	// SelectionKernels counts the compiled predicate selection kernels
	// bound across executed queries; ResidualPredicates counts predicate
	// conjuncts that stayed on the per-row closure path (the hybrid
	// residual filter).
	SelectionKernels   int
	ResidualPredicates int
	// ScanWorkers is the peak per-query scan worker count used.
	ScanWorkers int
	// ShardQueries counts executed queries that a shard-routing backend
	// fanned out to child backends; ShardFanout sums the child executions
	// across them (fanout/queries is the average fan-out width). Both are
	// zero on leaf backends.
	ShardQueries int
	ShardFanout  int
	// ShardStragglerMax is the slowest child execution observed across
	// all fanned-out queries — the shard merge's critical path.
	ShardStragglerMax time.Duration
	// NetRetries counts transparent retries network child backends
	// performed after retryable transport or 5xx failures.
	NetRetries int
	// ShardsDegraded sums child shards skipped across the executions
	// because they were unavailable under Options.AllowPartial;
	// DegradedShards lists the distinct skipped shard indices (sorted).
	// Non-zero means the recommendation covers only the surviving
	// partitions' rows — such results are never admitted to the shared
	// result cache.
	ShardsDegraded int
	DegradedShards []int
	// RowsScanned sums base-table rows visited across all queries.
	RowsScanned int64
	// MaxGroups is the peak distinct-group count of any single query
	// (the memory-utilization proxy).
	MaxGroups int
}

// Add folds one paid query execution in: it restates the execution as
// the totals of a single query and merges those, so every sum, max and
// union is written once, in Merge.
func (t *ExecTotals) Add(stats backend.ExecStats) {
	one := ExecTotals{
		QueriesExecuted:    1,
		SelectionKernels:   stats.SelectionKernels,
		ResidualPredicates: stats.ResidualPredicates,
		ScanWorkers:        stats.Workers,
		ShardFanout:        stats.ShardFanout,
		ShardStragglerMax:  stats.ShardStragglerMax,
		NetRetries:         stats.NetRetries,
		ShardsDegraded:     stats.ShardsDegraded,
		DegradedShards:     stats.DegradedShards,
		RowsScanned:        int64(stats.RowsScanned),
		MaxGroups:          stats.Groups,
	}
	if stats.ShardFanout > 0 {
		one.ShardQueries = 1
	}
	if stats.Vectorized {
		one.VectorizedQueries = 1
	} else {
		reason := stats.FallbackReason
		if reason == "" {
			reason = "unreported"
		}
		one.FallbackQueries, one.FallbackReasons = 1, map[string]int{reason: 1}
	}
	t.Merge(one)
}

// Merge folds another set of totals into t: additive counters sum, peak
// counters take the max, FallbackReasons merges per reason (allocating
// only when the source has any) and DegradedShards unions.
func (t *ExecTotals) Merge(o ExecTotals) {
	t.QueriesExecuted += o.QueriesExecuted
	t.VectorizedQueries += o.VectorizedQueries
	t.FallbackQueries += o.FallbackQueries
	if len(o.FallbackReasons) > 0 {
		if t.FallbackReasons == nil {
			t.FallbackReasons = make(map[string]int, len(o.FallbackReasons))
		}
		for reason, n := range o.FallbackReasons {
			t.FallbackReasons[reason] += n
		}
	}
	t.SelectionKernels += o.SelectionKernels
	t.ResidualPredicates += o.ResidualPredicates
	t.ScanWorkers = max(t.ScanWorkers, o.ScanWorkers)
	t.ShardQueries += o.ShardQueries
	t.ShardFanout += o.ShardFanout
	t.ShardStragglerMax = max(t.ShardStragglerMax, o.ShardStragglerMax)
	t.NetRetries += o.NetRetries
	t.ShardsDegraded += o.ShardsDegraded
	t.DegradedShards = unionSorted(t.DegradedShards, o.DegradedShards)
	t.RowsScanned += o.RowsScanned
	t.MaxGroups = max(t.MaxGroups, o.MaxGroups)
}

// Merge folds another invocation's metrics into m, producing the
// aggregate view a server exposes across requests: the execution totals
// merge as above, request counters sum and booleans OR. DegradedFrom
// keeps the first value seen, since a mixed aggregate has no single
// requested strategy.
func (m *Metrics) Merge(o Metrics) {
	m.ExecTotals.Merge(o.ExecTotals)
	m.Views += o.Views
	m.ServedStale = m.ServedStale || o.ServedStale
	m.PhasesRun += o.PhasesRun
	m.PrunedViews += o.PrunedViews
	m.EarlyStopped = m.EarlyStopped || o.EarlyStopped
	m.CacheHits += o.CacheHits
	m.CacheMisses += o.CacheMisses
	m.ServedFromCache = m.ServedFromCache || o.ServedFromCache
	m.StrategyDegraded = m.StrategyDegraded || o.StrategyDegraded
	if m.DegradedFrom == "" {
		m.DegradedFrom = o.DegradedFrom
	}
	m.Elapsed += o.Elapsed
}

// unionSorted merges two sorted int slices without duplicates. Either
// input may be nil; the result is nil only when both are.
func unionSorted(a, b []int) []int {
	if len(b) == 0 {
		return a
	}
	if len(a) == 0 {
		return append([]int(nil), b...)
	}
	out := make([]int, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) || j < len(b) {
		switch {
		case j >= len(b) || (i < len(a) && a[i] < b[j]):
			out = append(out, a[i])
			i++
		case i >= len(a) || b[j] < a[i]:
			out = append(out, b[j])
			j++
		default: // equal
			out = append(out, a[i])
			i++
			j++
		}
	}
	return out
}
