package core

// This file is the engine side of the shared result cache
// (internal/cache): what the engine stores under each key namespace,
// how big it says those values are, and how it copies them in and out.
// Two reuse layers compose, coarsest first:
//
//  1. Whole-request memoization (r): a Recommend whose canonical request
//     key (request + result-affecting options + dataset version) was
//     already answered returns the cached Result without touching the
//     DBMS, and concurrent identical requests collapse to one execution.
//     The version-less stale alias (s) points at the newest such entry
//     for outage replay.
//  2. Shared-query memoization (q): each generated view query is keyed
//     by normalized SQL + row range + dataset version, so requests that
//     overlap partially (different K, different pruning, a re-issued
//     phase) still skip the scans they share with earlier work.
//
// Neither layer changes which queries compute a view: its reference side
// comes from the same query as its target side (or that query's reference
// twin) whether the cache is on or off.

import (
	"fmt"
	"strconv"
	"sync"

	"seedb/internal/cache"
)

// requestCacheKey keys one whole Recommend invocation at one dataset
// version. opts must already be canonicalized with defaults applied.
func requestCacheKey(req Request, opts Options, version string) string {
	return renderRequestKey(req, opts, version, false)
}

// staleCacheKey keys the outage alias for a request shape on the named
// backend. opts are the caller's raw options, so the key is computable
// on both the fill and the serve side without touching the backend.
func staleCacheKey(backendName string, req Request, opts Options) string {
	return renderRequestKey(req, opts, backendName, true)
}

// keyExemptOptions names every Options field renderRequestKey leaves out,
// with the reason each is safe to leave out; every other field of
// Options and Request must be rendered into the key
// (TestCacheKeyCoversEveryField enforces the split).
var keyExemptOptions = map[string]string{
	"Parallelism":        "cost only: concurrent view queries",
	"ScanParallelism":    "cost only: scan workers (see renderRequestKey on float reassociation)",
	"EnableCache":        "selects whether the key is used at all",
	"SlowQueryThreshold": "observation only",
	"ServeStaleOnError":  "selects the error path, never a computed result",
}

// renderRequestKey canonicalizes everything that can influence a
// Recommend result into a versioned request key (scope is the version
// token) or a stale alias key (scope is the backend name). The
// keyExemptOptions fields are excluded: they change cost, never output.
// The parts slice is handed straight to the key constructor rather than
// returned, so it stays on the stack. (ScanParallelism's parallel
// merge is deterministic, but SUM/AVG reassociate float addition across
// scan chunks, so a cached result may differ in final ulps from what a
// different worker count would have computed; both are valid
// materializations of the same query and the cache serves whichever was
// computed first.) The attribute lists are length-prefixed and
// spliced in as individual key parts (the key separator cannot occur in
// identifiers), so lists like ["a,b"] and ["a","b"] — or elements
// shifting between adjacent lists — can never collide.
func renderRequestKey(req Request, opts Options, scope string, stale bool) string {
	parts := []string{
		req.TargetWhere,
		strconv.Itoa(int(req.Reference)),
		req.ReferenceWhere,
	}
	parts = appendList(parts, req.Dimensions)
	parts = appendList(parts, req.Measures)
	aggs := make([]string, len(req.Aggs))
	for i, a := range req.Aggs {
		aggs[i] = string(a)
	}
	parts = appendList(parts, aggs)
	parts = append(parts,
		strconv.Itoa(int(opts.Strategy)),
		strconv.Itoa(int(opts.Pruning)),
		strconv.Itoa(int(opts.Distance)),
		strconv.Itoa(opts.K),
		strconv.Itoa(opts.Phases),
		strconv.Itoa(int(opts.GroupBy)),
		strconv.Itoa(opts.MemoryBudget),
		strconv.Itoa(opts.MaxGroupBy),
		strconv.Itoa(opts.MaxAggregatesPerQuery),
		strconv.FormatBool(opts.DisableCombineTargetRef),
		fmt.Sprintf("%g", opts.Delta),
		fmt.Sprintf("%g", opts.ConfidenceScale),
		strconv.FormatInt(opts.Seed, 10),
		strconv.FormatBool(opts.KeepAllViews),
		// AllowPartial changes what a result may legally contain
		// (degraded shard coverage), so complete-or-error requests must
		// never share a key — and above all never share a singleflight
		// flight — with degradable ones.
		strconv.FormatBool(opts.AllowPartial),
	)
	if stale {
		return cache.StaleKey(req.Table, scope, parts...)
	}
	return cache.RequestKey(req.Table, scope, parts...)
}

// appendList appends a length-prefixed string list to key parts.
func appendList(parts []string, list []string) []string {
	parts = append(parts, strconv.Itoa(len(list)))
	return append(parts, list...)
}

// encodedRecs is an r entry's one encoding of its recommendations:
// recs is the cached value's own slice, which nothing mutates, and
// once fills b from it for the first caller that asks.
type encodedRecs struct {
	once sync.Once
	recs []Recommendation
	b    []byte
	err  error
}

// EncodedRecommendations returns encode(Recommendations). A result
// served through the whole-request cache shares one slot with every
// copy of its entry — the computing caller, its singleflight waiters,
// later hits and stale replays — so encode runs once per entry, over
// the recommendations as computed, and every call returns the same
// bytes, which callers must not modify. A result that was never cached
// is encoded on every call. Every caller must pass an equivalent encode.
func (r *Result) EncodedRecommendations(encode func([]Recommendation) ([]byte, error)) ([]byte, error) {
	s := r.encoded
	if s == nil {
		return encode(r.Recommendations)
	}
	s.once.Do(func() { s.b, s.err = encode(s.recs) })
	return s.b, s.err
}

// cloneResult deep-copies a Result so cached values stay immutable while
// callers are free to mutate what Recommend returns. The encoding slot
// is the one thing shared, by pointer: it is the entry's, not the copy's.
func cloneResult(r *Result) *Result {
	cp := *r
	cp.Recommendations = cloneRecommendations(r.Recommendations)
	cp.AllViews = cloneRecommendations(r.AllViews)
	cp.Metrics.DegradedShards = append([]int(nil), r.Metrics.DegradedShards...)
	return &cp
}

// cloneRecommendations deep-copies a recommendation slice.
func cloneRecommendations(recs []Recommendation) []Recommendation {
	if recs == nil {
		return nil
	}
	out := make([]Recommendation, len(recs))
	for i, rec := range recs {
		out[i] = rec
		out[i].Groups = append([]string(nil), rec.Groups...)
		out[i].Target = append([]float64(nil), rec.Target...)
		out[i].Reference = append([]float64(nil), rec.Reference...)
		out[i].TargetAgg = cloneAggMap(rec.TargetAgg)
		out[i].ReferenceAgg = cloneAggMap(rec.ReferenceAgg)
	}
	return out
}

// cloneAggMap copies a group → value map.
func cloneAggMap(m map[string]float64) map[string]float64 {
	if m == nil {
		return nil
	}
	out := make(map[string]float64, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

// resultSizeBytes estimates a Result's cache footprint, the bytes its
// encoding slot will hold included. Degraded results (partial shard
// coverage) report a negative size — the cache's do-not-admit signal —
// because a cached partial answer would keep serving incomplete data
// long after the missing shard recovered.
func resultSizeBytes(r *Result) int64 {
	if r.Metrics.ShardsDegraded > 0 {
		return -1
	}
	n := int64(128)
	n += recommendationsSizeBytes(r.Recommendations)
	n += recommendationsSizeBytes(r.AllViews)
	n += encodedSizeBound(r.Recommendations)
	return n
}

// encodedSizeBound bounds the bytes EncodedRecommendations will hold
// for recs, which fill after admission: a JSON array of one object per
// recommendation with its rank, the view's three names, utility and
// partial flag, and the group, target and reference arrays. A JSON
// string escapes each input byte to at most six bytes (\u00XX), a
// float64 or int formats to at most 32, and keys, quotes and
// separators take at most 160 per object and 8 per group.
func encodedSizeBound(recs []Recommendation) int64 {
	n := int64(2)
	for _, rec := range recs {
		v := rec.View
		n += 160 + 2*32 + 6*int64(len(v.Dimension)+len(v.Measure)+len(v.Agg))
		for _, g := range rec.Groups {
			n += 8 + 6*int64(len(g)) + 2*32
		}
	}
	return n
}

// recommendationsSizeBytes estimates one recommendation slice.
func recommendationsSizeBytes(recs []Recommendation) int64 {
	var n int64
	for _, rec := range recs {
		n += 160
		for _, g := range rec.Groups {
			// Group value appears in Groups and as a key in both agg
			// maps; the float payloads are fixed-width.
			n += 3*int64(len(g)) + 96
		}
	}
	return n
}

// execResultSizeBytes estimates a materialized query result's cache
// footprint. Like resultSizeBytes, degraded shard results are marked
// do-not-admit with a negative size.
func execResultSizeBytes(res *execResult) int64 {
	if res.stats.ShardsDegraded > 0 {
		return -1
	}
	n := int64(96)
	for _, c := range res.rows.Columns {
		n += int64(len(c)) + 16
	}
	for _, row := range res.rows.Rows {
		n += 24
		for _, v := range row {
			n += 40 + int64(len(v.S))
		}
	}
	return n
}
