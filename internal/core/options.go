package core

import (
	"fmt"
	"runtime"
	"strings"

	"seedb/internal/backend"
	"seedb/internal/distance"
)

// Strategy selects the execution strategy, mirroring the paper's
// evaluation configurations (Figure 5).
type Strategy int

// Execution strategies.
const (
	// NoOpt is the basic framework: two serial SQL queries per view.
	NoOpt Strategy = iota
	// Sharing applies all sharing optimizations (Section 4.1) in a
	// single pass over the data: combined aggregates, combined group-bys
	// under a memory budget, combined target/reference queries, and
	// parallel query execution.
	Sharing
	// Comb composes sharing with the phased execution framework and
	// pruning (Sections 3 and 4.2).
	Comb
	// CombEarly is Comb with early result return: execution stops as
	// soon as the top-k set is decided and approximate results are
	// returned (the paper's COMB_EARLY).
	CombEarly
)

// EffectiveStrategy returns the strategy the engine actually executes
// against a backend with the given capabilities. The phased execution
// framework needs row-range scans (process the i-th of n partitions);
// backends without SupportsPhasedExecution therefore run COMB and
// COMB_EARLY requests as single-pass SHARING — every sharing
// optimization still applies, only pruning and early return are lost.
// The engine applies this rewrite (and canonicalizes the now-inert
// pruning options) before cache-key construction, so a degraded COMB
// request and the equivalent SHARING request share one cache entry.
func EffectiveStrategy(s Strategy, caps backend.Capabilities) Strategy {
	if !caps.SupportsPhasedExecution && (s == Comb || s == CombEarly) {
		return Sharing
	}
	return s
}

// String returns the paper's name for the strategy.
func (s Strategy) String() string {
	switch s {
	case NoOpt:
		return "NO_OPT"
	case Sharing:
		return "SHARING"
	case Comb:
		return "COMB"
	case CombEarly:
		return "COMB_EARLY"
	default:
		return fmt.Sprintf("Strategy(%d)", int(s))
	}
}

// ParseStrategy inverts String: it accepts the paper's names and the
// lowercase aliases the HTTP API and CLI have always taken, in any case.
func ParseStrategy(name string) (Strategy, error) {
	switch strings.ToLower(name) {
	case "noopt", "no_opt":
		return NoOpt, nil
	case "sharing":
		return Sharing, nil
	case "comb":
		return Comb, nil
	case "combearly", "comb_early", "early":
		return CombEarly, nil
	default:
		return 0, fmt.Errorf("unknown strategy %q", name)
	}
}

// PruningScheme selects the pruning optimization (Section 4.2).
type PruningScheme int

// Pruning schemes.
const (
	// NoPruning (NO_PRU) processes all data for all views.
	NoPruning PruningScheme = iota
	// CIPruning discards views whose Hoeffding–Serfling confidence
	// interval upper bound falls below the lower bound of at least k
	// views.
	CIPruning
	// MABPruning runs the Successive Accepts and Rejects bandit
	// strategy: each phase accepts the top view or rejects the bottom
	// view based on the Δ1 vs Δn comparison.
	MABPruning
	// RandomPruning returns a random k-subset (the paper's RANDOM
	// baseline; a lower bound on accuracy).
	RandomPruning
)

// String returns the paper's name for the scheme.
func (p PruningScheme) String() string {
	switch p {
	case NoPruning:
		return "NO_PRU"
	case CIPruning:
		return "CI"
	case MABPruning:
		return "MAB"
	case RandomPruning:
		return "RANDOM"
	default:
		return fmt.Sprintf("PruningScheme(%d)", int(p))
	}
}

// ParsePruning inverts String: the paper's names plus the lowercase
// aliases ("none" for NO_PRU), in any case.
func ParsePruning(name string) (PruningScheme, error) {
	switch strings.ToLower(name) {
	case "none", "no_pru":
		return NoPruning, nil
	case "ci":
		return CIPruning, nil
	case "mab":
		return MABPruning, nil
	case "random":
		return RandomPruning, nil
	default:
		return 0, fmt.Errorf("unknown pruning %q", name)
	}
}

// GroupByStrategy selects how dimension attributes combine into
// multi-attribute GROUP BY queries (Section 4.1, Problem 4.1).
type GroupByStrategy int

// Group-by combination strategies.
const (
	// GroupByAuto picks the layout default: GroupByBinPack for row
	// stores, GroupByUnion for column stores (withDefaults resolves it).
	GroupByAuto GroupByStrategy = iota
	// GroupBySingle issues one single-attribute GROUP BY per dimension
	// (no combining) — the paper's choice for column stores, whose small
	// memory budget biases optimal groupings toward single attributes.
	GroupBySingle
	// GroupByBinPack packs dimensions with first-fit so each query's
	// worst-case distinct-group count stays under MemoryBudget (the
	// paper's BP).
	GroupByBinPack
	// GroupByMaxN caps the number of group-by attributes per query at
	// MaxGroupBy regardless of cardinality (the paper's MAX_GB
	// baseline).
	GroupByMaxN
	// GroupByUnion runs a phase as one statement (or one per
	// MaxAggregatesPerQuery chunk): a UNION ALL with one single-attribute
	// GROUP BY branch per dimension, each branch carrying only its
	// dimension's aggregates. A column store scans the table once for
	// all branches and evaluates the WHERE and the flag once per block;
	// bin-packing exists because a stock DBMS has no multi-group-by
	// operator. NO_OPT ignores it and keeps its one query per view side.
	GroupByUnion
)

// Default memory budgets (maximum distinct groups per query), matching
// the empirical thresholds in Figure 8a of the paper.
const (
	DefaultRowMemoryBudget = 10000
	DefaultColMemoryBudget = 100
)

// Options configures the SeeDB engine.
type Options struct {
	// Strategy is the execution strategy. The zero value is NoOpt, the
	// unoptimized baseline: set Comb (with a Pruning scheme) for the
	// paper's recommended configuration. The textual request form
	// defaults to it — see RecommendRequest.Resolve.
	Strategy Strategy
	// Pruning selects the pruning scheme for Comb/CombEarly. The zero
	// value is NoPruning; CIPruning is the paper's default.
	Pruning PruningScheme
	// Distance is the utility distance function (default EMD, the
	// paper's default).
	Distance distance.Func
	// K is the number of visualizations to recommend (default 10).
	K int
	// Phases is the number of partitions for phased execution. 0 means
	// automatic: 10 for CI (the paper's configuration), and enough
	// phases for one bandit action per view for MAB.
	Phases int
	// Parallelism caps concurrently executing view queries (default:
	// GOMAXPROCS, matching the paper's "number of cores" guidance). On a
	// column store a phase is one statement (GroupByUnion), so it matters
	// only for ROW-layout plans, NO_OPT and the explicit GroupBySingle,
	// GroupByBinPack and GroupByMaxN ablations.
	Parallelism int
	// ScanParallelism sets the intra-query scan parallelism: the number
	// of workers sqldb's vectorized executor may use per view query
	// (default: GOMAXPROCS; 1 scans each query in row order, for
	// byte-stable float aggregation across runs). Like Parallelism it
	// changes cost, never which views win, so it is excluded from cache
	// keys. It composes with Parallelism — up to Parallelism ×
	// ScanParallelism goroutines scan concurrently — which pays off when
	// sharing collapses a request into fewer queries than cores.
	ScanParallelism int
	// GroupBy selects the group-by combining strategy. The zero value,
	// GroupByAuto, picks GroupByBinPack for row stores and GroupByUnion
	// for column stores.
	GroupBy GroupByStrategy
	// MemoryBudget is the maximum estimated distinct groups per query
	// for GroupByBinPack. 0 picks the layout default.
	MemoryBudget int
	// MaxGroupBy is the attribute cap for GroupByMaxN (default 3).
	MaxGroupBy int
	// MaxAggregatesPerQuery caps how many measures one shared query may
	// aggregate (the paper's nagg experiment, Figure 7a). 0 = unlimited;
	// 1 turns the multiple-aggregates optimization off.
	MaxAggregatesPerQuery int
	// Delta is the CI pruning failure probability δ (default 0.05).
	Delta float64
	// ConfidenceScale multiplies the Hoeffding–Serfling half-width; 1.0
	// is the theoretical worst-case interval. Values below 1 prune more
	// aggressively (default 1.0).
	ConfidenceScale float64
	// Seed drives the RANDOM pruning baseline and any tie-breaking
	// shuffles (default 1).
	Seed int64
	// KeepAllViews retains per-view estimates for every enumerated view
	// in the result (needed by the evaluation harness; default false
	// keeps only the top-k).
	KeepAllViews bool
	// EnableCache routes this request through the engine's shared result
	// cache (internal/cache): whole-request memoization with singleflight
	// collapsing. It changes what a request costs, never which queries
	// compute its result. The cache is keyed by dataset version, so
	// loads, inserts and drops invalidate stale entries automatically.
	// Default false (every request recomputes, the paper's behavior).
	EnableCache bool
	// AllowPartial opts the request into degraded results on routing
	// backends: when a shard child is unavailable, its partition is
	// skipped and the recommendation is computed over the surviving
	// shards, with Metrics.ShardsDegraded/DegradedShards stamped so the
	// caller knows coverage is partial. Degraded results are never
	// admitted to the shared result cache. It IS part of the cache key:
	// a complete-or-error request must not share a flight (or an entry)
	// with one that may legally return partial coverage. Default false.
	AllowPartial bool
	// ServeStaleOnError serves the last successfully computed result for
	// the same request (whatever dataset version it was computed at)
	// when the backend is unavailable — outage masking for read-mostly
	// dashboards. The response is marked via Metrics.ServedStale.
	// Requires EnableCache; default false (errors propagate).
	ServeStaleOnError bool
}

// withDefaults fills unset options given the table layout.
func (o Options) withDefaults(layout backend.Layout, numViews int) Options {
	if o.K <= 0 {
		o.K = 10
	}
	if o.Parallelism <= 0 {
		o.Parallelism = runtime.GOMAXPROCS(0)
	}
	if o.ScanParallelism <= 0 {
		o.ScanParallelism = runtime.GOMAXPROCS(0)
	}
	if o.GroupBy == GroupByAuto {
		if layout == backend.LayoutRow {
			o.GroupBy = GroupByBinPack
		} else {
			o.GroupBy = GroupByUnion
		}
	}
	if o.MemoryBudget <= 0 {
		if layout == backend.LayoutRow {
			o.MemoryBudget = DefaultRowMemoryBudget
		} else {
			o.MemoryBudget = DefaultColMemoryBudget
		}
	}
	if o.MaxGroupBy <= 0 {
		o.MaxGroupBy = 3
	}
	if o.Delta <= 0 || o.Delta >= 1 {
		o.Delta = 0.05
	}
	if o.ConfidenceScale <= 0 {
		o.ConfidenceScale = 1.0
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Phases <= 0 {
		switch o.Pruning {
		case MABPruning:
			o.Phases = numViews - o.K
			if o.Phases < 10 {
				o.Phases = 10
			}
		default:
			o.Phases = 10
		}
	}
	return o
}

// RefMode selects the reference dataset D_R (Section 2).
type RefMode int

// Reference modes.
const (
	// RefAll uses the entire dataset D as the reference (the paper's
	// default when the analyst does not specify one).
	RefAll RefMode = iota
	// RefComplement uses D − D_Q, the complement of the target subset.
	RefComplement
	// RefCustom uses the rows matching Request.ReferenceWhere (an
	// arbitrary query Q′).
	RefCustom
)

// String names the reference mode.
func (m RefMode) String() string {
	switch m {
	case RefAll:
		return "ALL"
	case RefComplement:
		return "COMPLEMENT"
	case RefCustom:
		return "CUSTOM"
	default:
		return fmt.Sprintf("RefMode(%d)", int(m))
	}
}

// ParseRefMode inverts String, in any case.
func ParseRefMode(name string) (RefMode, error) {
	switch strings.ToLower(name) {
	case "all":
		return RefAll, nil
	case "complement":
		return RefComplement, nil
	case "custom":
		return RefCustom, nil
	default:
		return 0, fmt.Errorf("unknown reference %q", name)
	}
}

// Request describes one SeeDB invocation: the analyst's query plus the
// candidate-view space.
type Request struct {
	// Table is the fact table to analyze.
	Table string
	// TargetWhere is the SQL predicate selecting the target subset D_Q,
	// e.g. "marital = 'Unmarried'".
	TargetWhere string
	// Reference selects D_R (default RefAll).
	Reference RefMode
	// ReferenceWhere is the predicate for RefCustom.
	ReferenceWhere string
	// Dimensions optionally restricts the dimension attributes A; empty
	// means derive from table metadata (string-typed or low-cardinality
	// columns).
	Dimensions []string
	// Measures optionally restricts the measure attributes M; empty
	// means derive from metadata (numeric columns).
	Measures []string
	// Aggs lists the aggregate functions F (default {AVG}).
	Aggs []AggFunc
}
