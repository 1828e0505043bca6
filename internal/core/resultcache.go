package core

// This file is the engine side of the shared result cache
// (internal/cache): what the engine stores under each key namespace
// and how big it says those values are. A stored Result is never
// written again: every caller it serves gets a shallow copy that shares
// its recommendations and owns only its Metrics.
// There is one reuse layer, whole-request memoization (r): a Recommend
// whose canonical request key (request + result-affecting options +
// dataset version) was already answered returns the cached Result
// without touching the DBMS, and concurrent identical requests collapse
// to one execution. The version-less stale alias (s) points at the
// newest such entry for outage replay.
//
// Beside it, table statistics (t) are kept per table version for any
// request whose engine has a cache, whatever its cache flag: statistics
// at a version are an input every request may share, never one request's
// result. Backends compute statistics and remember none.
//
// The cache never changes which queries compute a view: its reference
// side comes from the same query as its target side (or that query's
// reference twin) whether the cache is on or off.

import (
	"fmt"
	"strconv"
	"sync"

	"seedb/internal/backend"
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
	"Parallelism":       "cost only: concurrent view queries",
	"ScanParallelism":   "cost only: scan workers (see renderRequestKey on float reassociation)",
	"EnableCache":       "selects whether the key is used at all",
	"ServeStaleOnError": "selects the error path, never a computed result",
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
// once fills b for the first caller that asks.
type encodedRecs struct {
	once sync.Once
	b    []byte
	err  error
}

// EncodedRecommendations returns encode(Recommendations). Every result
// served from one whole-request entry — the computing caller, its
// singleflight waiters, later hits and stale replays — shares the
// entry's Recommendations and one encoding slot, so encode runs once
// per entry and every call returns the same bytes, which callers must
// not modify. A result that was never cached is encoded on every call.
// Every caller must pass an equivalent encode.
func (r *Result) EncodedRecommendations(encode func([]Recommendation) ([]byte, error)) ([]byte, error) {
	s := r.encoded
	if s == nil {
		return encode(r.Recommendations)
	}
	s.once.Do(func() { s.b, s.err = encode(r.Recommendations) })
	return s.b, s.err
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

// statsSizeBytes estimates table statistics' cache footprint. Only
// statistics over exactly the pinned rows are admitted: a router scan
// that skipped a child, or an embedded store that grew after the pin,
// describes other rows than the version names, so it serves its own
// request and is not stored.
func statsSizeBytes(s *backend.TableStats, pinnedRows int) int64 {
	if s.Rows != pinnedRows {
		return -1
	}
	n := int64(64)
	for _, c := range s.Columns {
		n += int64(len(c.Name)) + 48
	}
	return n
}
