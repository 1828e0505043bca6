package core

import (
	"context"
	"errors"
	"fmt"

	"seedb/internal/backend"
	"seedb/internal/cache"
)

// maxDimensionCardinality is the default ceiling on distinct values for a
// column to qualify as a dimension attribute when dimensions are derived
// from metadata. Columns beyond this produce unreadably wide bar charts.
const maxDimensionCardinality = 1000

// ViewGenerator enumerates the candidate aggregate views for a request
// from system metadata (the "view generator" component in the paper's
// architecture, Figure 3). Metadata comes from the backend's schema
// introspection, so enumeration works identically over the embedded
// store and external SQL stores.
type ViewGenerator struct {
	be backend.Backend
}

// NewViewGenerator creates a generator over a backend.
func NewViewGenerator(be backend.Backend) *ViewGenerator {
	return &ViewGenerator{be: be}
}

// tableMeta is the table metadata one request has fetched so far. The
// engine threads it through view enumeration and bin-packing so each
// Recommend asks the backend for TableInfo once and for TableStats at
// most once — through a shard router either call fans out to every
// child.
type tableMeta struct {
	info  backend.TableInfo
	stats *backend.TableStats // nil until a step needed them
	// cache, when non-nil, remembers the statistics at info's version
	// under statsKey, across requests (the engine sets both).
	cache    *cache.Cache
	statsKey string
}

// fetchMeta reads the table's description, telling a missing table
// from a store that could not be introspected.
func (g *ViewGenerator) fetchMeta(ctx context.Context, table string) (*tableMeta, error) {
	ti, err := g.be.TableInfo(ctx, table)
	if errors.Is(err, backend.ErrNoTable) {
		return nil, fmt.Errorf("core: table %q does not exist", table)
	}
	if err != nil {
		return nil, fmt.Errorf("core: table metadata for %q: %w", table, err)
	}
	return &tableMeta{info: ti}, nil
}

// statsFor returns the table's statistics, fetching them on first use:
// through the metadata's cache when it has one, so concurrent requests
// at one version compute them once and later ones find them there.
func (g *ViewGenerator) statsFor(ctx context.Context, table string, m *tableMeta) (*backend.TableStats, error) {
	if m.stats != nil {
		return m.stats, nil
	}
	fetch := func(ctx context.Context) (any, error) { return g.be.TableStats(ctx, table) }
	var v any
	var err error
	if m.cache == nil {
		v, err = fetch(ctx)
	} else {
		v, _, err = m.cache.Do(ctx, m.statsKey, func(v any) int64 {
			return statsSizeBytes(v.(*backend.TableStats), m.info.Rows)
		}, fetch)
	}
	if err != nil {
		return nil, err
	}
	m.stats = v.(*backend.TableStats)
	return m.stats, nil
}

// Views enumerates V = A × M × F for the request. Explicitly listed
// dimensions/measures are validated against the schema; otherwise
// dimension attributes are string-typed columns (or integer columns with
// at most maxDimensionCardinality distinct values) and measures are
// numeric columns. A column never plays both roles in the derived
// enumeration: low-cardinality numerics become dimensions, the rest
// measures.
func (g *ViewGenerator) Views(ctx context.Context, req Request) ([]View, error) {
	meta, err := g.fetchMeta(ctx, req.Table)
	if err != nil {
		return nil, err
	}
	return g.views(ctx, req, meta)
}

// views is Views over metadata the caller already holds.
func (g *ViewGenerator) views(ctx context.Context, req Request, meta *tableMeta) ([]View, error) {
	ti := meta.info
	dims := req.Dimensions
	measures := req.Measures
	if len(dims) == 0 || len(measures) == 0 {
		stats, err := g.statsFor(ctx, req.Table, meta)
		if err != nil {
			return nil, err
		}
		var derivedDims, derivedMeasures []string
		for _, cs := range stats.Columns {
			switch cs.Type {
			case backend.TypeString, backend.TypeBool:
				if cs.Distinct <= maxDimensionCardinality {
					derivedDims = append(derivedDims, cs.Name)
				}
			case backend.TypeInt:
				if cs.Distinct <= maxDimensionCardinality/10 {
					derivedDims = append(derivedDims, cs.Name)
				} else {
					derivedMeasures = append(derivedMeasures, cs.Name)
				}
			case backend.TypeFloat:
				derivedMeasures = append(derivedMeasures, cs.Name)
			}
		}
		if len(dims) == 0 {
			dims = derivedDims
		}
		if len(measures) == 0 {
			measures = derivedMeasures
		}
	}
	for _, d := range dims {
		if _, ok := ti.Lookup(d); !ok {
			return nil, fmt.Errorf("core: dimension %q not in table %s", d, req.Table)
		}
	}
	for _, m := range measures {
		if _, ok := ti.Lookup(m); !ok {
			return nil, fmt.Errorf("core: measure %q not in table %s", m, req.Table)
		}
	}
	if len(dims) == 0 {
		return nil, fmt.Errorf("core: no dimension attributes found in table %s", req.Table)
	}
	if len(measures) == 0 {
		return nil, fmt.Errorf("core: no measure attributes found in table %s", req.Table)
	}

	aggs := req.Aggs
	if len(aggs) == 0 {
		aggs = []AggFunc{AggAvg}
	}
	for _, f := range aggs {
		if !ValidAggFunc(f) {
			return nil, fmt.Errorf("core: unsupported aggregate %q", f)
		}
	}

	views := make([]View, 0, len(dims)*len(measures)*len(aggs))
	for _, a := range dims {
		for _, m := range measures {
			if a == m {
				continue
			}
			for _, f := range aggs {
				views = append(views, View{Dimension: a, Measure: m, Agg: f})
			}
		}
	}
	if len(views) == 0 {
		return nil, fmt.Errorf("core: view space is empty for table %s", req.Table)
	}
	return views, nil
}

// DimensionCardinalities returns the distinct-value count for each named
// dimension, in order — the |a_i| inputs to the bin-packing optimizer.
func (g *ViewGenerator) DimensionCardinalities(ctx context.Context, table string, dims []string) ([]int, error) {
	return g.cardinalities(ctx, table, dims, &tableMeta{})
}

// cardinalities is DimensionCardinalities over metadata the caller
// already holds. A FLOAT column's count is the table's row count (no
// store counts FLOAT values, sqldb.ColumnStats), so a FLOAT column named
// explicitly as a dimension packs as a high-cardinality one.
func (g *ViewGenerator) cardinalities(ctx context.Context, table string, dims []string, m *tableMeta) ([]int, error) {
	stats, err := g.statsFor(ctx, table, m)
	if err != nil {
		return nil, err
	}
	out := make([]int, len(dims))
	for i, d := range dims {
		cs, ok := stats.Column(d)
		if !ok {
			return nil, fmt.Errorf("core: no statistics for column %q", d)
		}
		out[i] = cs.Distinct
		if out[i] < 1 {
			out[i] = 1
		}
	}
	return out, nil
}
