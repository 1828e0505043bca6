package core

// Merge folds another invocation's metrics into m, producing the
// aggregate view a server exposes across requests: additive counters
// sum, peak counters take the max, and booleans OR. FallbackReasons
// merges per reason (allocating only when the source has any), so the
// aggregate preserves the RecordExec invariants — QueriesExecuted ==
// VectorizedQueries + FallbackQueries and the per-reason counts sum to
// FallbackQueries — whenever every input satisfied them. DegradedFrom
// keeps the first value seen, since a mixed aggregate has no single
// requested strategy.
func (m *Metrics) Merge(o Metrics) {
	m.Views += o.Views
	m.QueriesExecuted += o.QueriesExecuted
	m.VectorizedQueries += o.VectorizedQueries
	m.FallbackQueries += o.FallbackQueries
	if len(o.FallbackReasons) > 0 {
		if m.FallbackReasons == nil {
			m.FallbackReasons = make(map[string]int, len(o.FallbackReasons))
		}
		for reason, n := range o.FallbackReasons {
			m.FallbackReasons[reason] += n
		}
	}
	m.SelectionKernels += o.SelectionKernels
	m.ResidualPredicates += o.ResidualPredicates
	if o.ScanWorkers > m.ScanWorkers {
		m.ScanWorkers = o.ScanWorkers
	}
	m.ShardQueries += o.ShardQueries
	m.ShardFanout += o.ShardFanout
	if o.ShardStragglerMax > m.ShardStragglerMax {
		m.ShardStragglerMax = o.ShardStragglerMax
	}
	m.HedgedPartials += o.HedgedPartials
	m.HedgeWins += o.HedgeWins
	m.NetRetries += o.NetRetries
	m.ShardsDegraded += o.ShardsDegraded
	m.DegradedShards = unionSorted(m.DegradedShards, o.DegradedShards)
	m.ServedStale = m.ServedStale || o.ServedStale
	m.RowsScanned += o.RowsScanned
	if o.MaxGroups > m.MaxGroups {
		m.MaxGroups = o.MaxGroups
	}
	m.PhasesRun += o.PhasesRun
	m.PrunedViews += o.PrunedViews
	m.EarlyStopped = m.EarlyStopped || o.EarlyStopped
	m.CacheHits += o.CacheHits
	m.CacheMisses += o.CacheMisses
	m.RefViewsReused += o.RefViewsReused
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
