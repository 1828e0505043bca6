package core

import (
	"cmp"
	"strings"

	"seedb/internal/distance"
)

// RecommendRequest is the textual form of one recommendation request:
// the POST /api/recommend JSON body, and what the CLI's flags and the
// load driver fill in. It is declared once, here; Resolve is the only
// place it turns into the engine's Request and Options.
type RecommendRequest struct {
	Table          string   `json:"table"`
	TargetWhere    string   `json:"target_where"`
	Reference      string   `json:"reference"`       // "all" (default), "complement", "custom"
	ReferenceWhere string   `json:"reference_where"` // for "custom"
	K              int      `json:"k"`
	Strategy       string   `json:"strategy"` // "noopt","sharing","comb" (default),"combearly"
	Pruning        string   `json:"pruning"`  // "none","ci" (default),"mab"
	Distance       string   `json:"distance"` // "EMD" (default), ...
	Dimensions     []string `json:"dimensions"`
	Measures       []string `json:"measures"`
	Aggregates     []string `json:"aggregates"`
	// Cache opts this request out of the shared result cache when set to
	// false; omitted or true uses the cache.
	Cache *bool `json:"cache"`
	// ScanParallelism caps per-query scan workers (0 = GOMAXPROCS; 1
	// scans each query in row order).
	ScanParallelism int `json:"scan_parallelism"`
	// Backend selects which registered backend executes the request
	// (empty = the embedded default; see /healthz for the list). It
	// addresses the server, not the engine: Resolve ignores it.
	Backend string `json:"backend"`
	// Trace opts this request into span tracing: the response carries the
	// full span tree under "trace". Off by default — building the tree
	// allocates per span, so clients ask for it explicitly. Like Backend
	// it is the server's to act on.
	Trace bool `json:"trace"`
	// AllowPartial opts this request into degraded results: when the
	// selected backend is a shard router with circuit breakers, queries
	// proceed over the surviving shards instead of failing while a child
	// is down. Responses computed this way carry "degraded": true and
	// are never cached.
	AllowPartial bool `json:"allow_partial"`
	// ServeStale opts this request into stale-on-outage serving: when
	// the backend is entirely unavailable, the last complete result for
	// this request shape (if any) is returned marked "stale": true
	// instead of a 5xx. Requires caching (the default).
	ServeStale bool `json:"serve_stale"`
}

// Resolve turns the textual request into the engine's Request and
// Options. It is the one defaulting pass for the textual form — an
// empty strategy means "comb", an empty pruning "ci", an empty reference
// "all", an empty distance "EMD", an omitted cache flag true — and the
// one place an unknown strategy, pruning, reference or distance name is
// rejected (the first, in that order, is the error). (Options' own zero values are NO_OPT and NO_PRU; callers
// that build Options directly say what they want.) Names are matched in
// any case. What the engine checks about the resolved request — a
// custom reference needs a predicate, aggregates must be supported — is
// left to the engine. The Options fields no textual request can set
// (the evaluation harness's ablation knobs) are listed, and the split
// enforced, by TestTextualRequestCoversEveryField.
func (r RecommendRequest) Resolve() (Request, Options, error) {
	reference, errRef := ParseRefMode(cmp.Or(r.Reference, "all"))
	strategy, errStrategy := ParseStrategy(cmp.Or(r.Strategy, "comb"))
	pruning, errPruning := ParsePruning(cmp.Or(r.Pruning, "ci"))
	dist, errDist := distance.ParseFunc(strings.ToUpper(cmp.Or(r.Distance, "EMD")))
	if err := cmp.Or(errRef, errStrategy, errPruning, errDist); err != nil {
		return Request{}, Options{}, err
	}
	req := Request{
		Table:          r.Table,
		TargetWhere:    r.TargetWhere,
		Reference:      reference,
		ReferenceWhere: r.ReferenceWhere,
		Dimensions:     r.Dimensions,
		Measures:       r.Measures,
	}
	for _, a := range r.Aggregates {
		req.Aggs = append(req.Aggs, AggFunc(strings.ToUpper(a)))
	}
	return req, Options{
		K:                 r.K,
		Strategy:          strategy,
		Pruning:           pruning,
		Distance:          dist,
		EnableCache:       r.Cache == nil || *r.Cache,
		ScanParallelism:   r.ScanParallelism,
		AllowPartial:      r.AllowPartial,
		ServeStaleOnError: r.ServeStale,
	}, nil
}
