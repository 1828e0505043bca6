package bench

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"seedb/internal/core"
	"seedb/internal/dataset"
	"seedb/internal/sqldb"
)

// Table1 regenerates the dataset inventory of Table 1.
func Table1(ctx context.Context, cfg Config) ([]*Table, error) {
	cfg = cfg.withDefaults()
	t := &Table{
		ID:     "table1",
		Title:  "Datasets used for testing",
		Header: []string{"Name", "Description", "Size(paper)", "Size(here)", "|A|", "|M|", "Views", "MB(paper)"},
	}
	for _, name := range dataset.Names() {
		spec, err := dataset.ByName(name)
		if err != nil {
			return nil, err
		}
		t.AddRow(
			spec.Name,
			spec.Description,
			fmt.Sprintf("%d", spec.PaperRows),
			fmt.Sprintf("%d", cfg.rowsFor(spec)),
			fmt.Sprintf("%d", len(spec.ViewDims())),
			fmt.Sprintf("%d", len(spec.Measures)),
			fmt.Sprintf("%d", spec.NumViews()),
			fmt.Sprintf("%.1f", spec.PaperSizeMB),
		)
	}
	t.Notes = append(t.Notes,
		"real datasets are synthetic equivalents with matching shape and planted deviation structure (DESIGN.md §3)",
		"Size(here) is the default generated row count; -paperscale restores Table 1 sizes")
	return []*Table{t}, nil
}

// workCells renders a run's host-independent cost — SQL queries
// executed and base-table rows visited — as two table cells.
func workCells(res *core.Result) []string {
	return []string{fmt.Sprintf("%d", res.Metrics.QueriesExecuted), fmt.Sprintf("%d", res.Metrics.RowsScanned)}
}

// Figure5 regenerates Figures 5a and 5b: for each real dataset and each
// store, the latency of NO_OPT, SHARING, COMB and COMB_EARLY (CI
// pruning, k=10).
func Figure5(ctx context.Context, cfg Config) ([]*Table, error) {
	cfg = cfg.withDefaults()
	datasets := []string{"bank", "diab", "air", "air10"}
	layouts := []sqldb.Layout{sqldb.LayoutRow, sqldb.LayoutCol}
	strategies := []struct {
		name string
		opts core.Options
	}{
		{"NO_OPT", core.Options{Strategy: core.NoOpt, K: 10}},
		{"SHARING", core.Options{Strategy: core.Sharing, K: 10}},
		{"COMB", core.Options{Strategy: core.Comb, Pruning: core.CIPruning, K: 10}},
		{"COMB_EARLY", core.Options{Strategy: core.CombEarly, Pruning: core.CIPruning, K: 10}},
	}

	var out []*Table
	for li, layout := range layouts {
		t := &Table{
			ID:     fmt.Sprintf("figure5%c", 'a'+li),
			Title:  fmt.Sprintf("Performance gains from all optimizations (%s store)", layout),
			Header: []string{"dataset", "rows", "views", "NO_OPT", "SHARING", "COMB", "COMB_EARLY"},
		}
		for _, s := range strategies {
			t.Header = append(t.Header, s.name+"-queries", s.name+"-scanned")
		}
		t.Header = append(t.Header, "sharing-gain", "total-gain")
		for _, name := range datasets {
			spec, err := dataset.ByName(name)
			if err != nil {
				return nil, err
			}
			rows := cfg.rowsFor(spec)
			if cfg.Quick {
				// The quick caps are sized for the quality figures, whose
				// planted utility gaps must rise above sampling noise. This
				// figure needs only the orderings and pays NO_OPT's two
				// full scans per view on both stores, so it takes a quarter.
				rows /= 4
			}
			spec = spec.WithRows(rows)
			db, err := build(spec, layout)
			if err != nil {
				return nil, err
			}
			eng := newEngine(db)
			req := requestFor(spec)
			lat := make([]time.Duration, len(strategies))
			var work []string
			for si, s := range strategies {
				opts := s.opts
				opts.Parallelism = cfg.Parallelism
				d, res, err := timeRecommend(ctx, eng, req, opts)
				if err != nil {
					return nil, fmt.Errorf("%s/%v/%s: %w", name, layout, s.name, err)
				}
				lat[si] = d
				work = append(work, workCells(res)...)
			}
			row := append([]string{name, fmt.Sprintf("%d", spec.Rows), fmt.Sprintf("%d", spec.NumViews()),
				ms(lat[0]), ms(lat[1]), ms(lat[2]), ms(lat[3])}, work...)
			t.AddRow(append(row, speedup(lat[0], lat[1]), speedup(lat[0], lat[3]))...)
		}
		t.Notes = append(t.Notes,
			"paper: ROW 50x(COMB)-300x(COMB_EARLY), COL 10x-30x; gains grow with dataset size",
			"-queries / -scanned: SQL queries executed and base-table rows visited, the host-independent cost behind each latency")
		out = append(out, t)
	}
	return out, nil
}

// Figure6 regenerates Figures 6a and 6b: basic-framework latency as a
// function of the number of rows and of the number of views.
func Figure6(ctx context.Context, cfg Config) ([]*Table, error) {
	cfg = cfg.withDefaults()
	base := dataset.SYN()

	rowSweep := []int{100_000, 250_000, 500_000, 1_000_000}
	if !cfg.PaperScale {
		rowSweep = []int{10_000, 25_000, 50_000, 100_000}
		if cfg.Quick {
			rowSweep = []int{500, 1_000, 2_000}
		}
	}
	// Fixed moderate view count for the row sweep: 10 dims × 5 measures.
	dimsA, measA := base.DimNames()[:10], base.MeasureNames()[:5]

	tA := &Table{
		ID:     "figure6a",
		Title:  "NO_OPT latency vs number of rows (SYN, 50 views)",
		Header: []string{"rows", "ROW", "COL", "ROW-queries", "ROW-scanned", "COL-queries", "COL-scanned", "COL-speedup"},
	}
	for _, rows := range rowSweep {
		spec := base.WithRows(rows)
		var lat [2]time.Duration
		var work []string
		for li, layout := range []sqldb.Layout{sqldb.LayoutRow, sqldb.LayoutCol} {
			db, err := build(spec, layout)
			if err != nil {
				return nil, err
			}
			req := requestFor(spec)
			req.Dimensions, req.Measures = dimsA, measA
			d, res, err := timeRecommend(ctx, newEngine(db), req, core.Options{Strategy: core.NoOpt, K: 10})
			if err != nil {
				return nil, err
			}
			lat[li] = d
			work = append(work, workCells(res)...)
		}
		row := append([]string{fmt.Sprintf("%d", rows), ms(lat[0]), ms(lat[1])}, work...)
		tA.AddRow(append(row, speedup(lat[0], lat[1]))...)
	}
	tA.Notes = append(tA.Notes, "paper: latency linear in rows; COL ≈5x faster than ROW")

	// View sweep at fixed size.
	viewRows := rowSweep[len(rowSweep)/2]
	viewSweep := []struct{ d, m int }{{10, 5}, {20, 5}, {15, 10}, {20, 10}, {25, 10}} // 50..250 views
	if cfg.Quick {
		viewSweep = viewSweep[:3]
	}
	tB := &Table{
		ID:     "figure6b",
		Title:  fmt.Sprintf("NO_OPT latency vs number of views (SYN, %d rows)", viewRows),
		Header: []string{"views", "ROW", "COL", "ROW-queries", "ROW-scanned", "COL-queries", "COL-scanned"},
	}
	spec := base.WithRows(viewRows)
	dbRow, err := build(spec, sqldb.LayoutRow)
	if err != nil {
		return nil, err
	}
	dbCol, err := build(spec, sqldb.LayoutCol)
	if err != nil {
		return nil, err
	}
	for _, vs := range viewSweep {
		req := requestFor(spec)
		req.Dimensions = base.DimNames()[:vs.d]
		req.Measures = base.MeasureNames()[:vs.m]
		dRow, resRow, err := timeRecommend(ctx, newEngine(dbRow), req, core.Options{Strategy: core.NoOpt, K: 10})
		if err != nil {
			return nil, err
		}
		dCol, resCol, err := timeRecommend(ctx, newEngine(dbCol), req, core.Options{Strategy: core.NoOpt, K: 10})
		if err != nil {
			return nil, err
		}
		row := []string{fmt.Sprintf("%d", vs.d*vs.m), ms(dRow), ms(dCol)}
		tB.AddRow(append(append(row, workCells(resRow)...), workCells(resCol)...)...)
	}
	tB.Notes = append(tB.Notes, "paper: latency linear in views")
	return []*Table{tA, tB}, nil
}

// Figure7 regenerates Figure 7a (latency vs aggregates per query) and
// Figure 7b (latency vs parallel query count).
func Figure7(ctx context.Context, cfg Config) ([]*Table, error) {
	cfg = cfg.withDefaults()
	spec := dataset.SYN()
	spec = spec.WithRows(cfg.rowsFor(spec))

	naggSweep := []int{1, 2, 5, 10, 20}
	if cfg.Quick {
		naggSweep = []int{1, 2, 5, 10}
	}
	tA := &Table{
		ID:     "figure7a",
		Title:  "Latency vs number of aggregates per query (SYN, SHARING, single group-by)",
		Header: []string{"nagg", "ROW", "COL"},
	}
	var dbs [2]*sqldb.DB
	for li, layout := range []sqldb.Layout{sqldb.LayoutRow, sqldb.LayoutCol} {
		db, err := build(spec, layout)
		if err != nil {
			return nil, err
		}
		dbs[li] = db
	}
	req := requestFor(spec)
	for _, nagg := range naggSweep {
		var lat [2]time.Duration
		for li := range dbs {
			opts := core.Options{
				Strategy:              core.Sharing,
				GroupBy:               core.GroupBySingle,
				MaxAggregatesPerQuery: nagg,
				K:                     10,
				Parallelism:           cfg.Parallelism,
			}
			d, _, err := timeRecommend(ctx, newEngine(dbs[li]), req, opts)
			if err != nil {
				return nil, err
			}
			lat[li] = d
		}
		tA.AddRow(fmt.Sprintf("%d", nagg), ms(lat[0]), ms(lat[1]))
	}
	tA.Notes = append(tA.Notes, "paper: latency falls with nagg, sub-linearly; ~4x ROW / ~3x COL from nagg=1 to 20")

	parSweep := []int{1, 2, 4, 8, 16, 32}
	if cfg.Quick {
		parSweep = []int{1, 2, 4, 8}
	}
	tB := &Table{
		ID:     "figure7b",
		Title:  fmt.Sprintf("Latency vs parallel queries (SYN, COL store, %d cores)", runtime.GOMAXPROCS(0)),
		Header: []string{"parallelism", "COL", "ROW"},
	}
	for _, par := range parSweep {
		var lat [2]time.Duration
		for li := range dbs {
			opts := core.Options{
				Strategy:                core.Sharing,
				GroupBy:                 core.GroupBySingle,
				DisableCombineTargetRef: true, // more, smaller queries: parallelism matters
				Parallelism:             par,
				K:                       10,
			}
			d, _, err := timeRecommend(ctx, newEngine(dbs[li]), req, opts)
			if err != nil {
				return nil, err
			}
			lat[li] = d
		}
		tB.AddRow(fmt.Sprintf("%d", par), ms(lat[1]), ms(lat[0]))
	}
	tB.Notes = append(tB.Notes, "paper: gains up to ≈ number of cores, degradation beyond")
	return []*Table{tA, tB}, nil
}

// Figure8 regenerates Figure 8a (group-by width vs latency under the
// memory budget) and Figure 8b (bin packing vs the MAX_GB baseline).
func Figure8(ctx context.Context, cfg Config) ([]*Table, error) {
	cfg = cfg.withDefaults()

	tA := &Table{
		ID:     "figure8a",
		Title:  "Latency vs number of group-by attributes per query (SYN*)",
		Header: []string{"ngb", "SYN*-10 ROW", "SYN*-10 COL", "SYN*-100 ROW", "SYN*-100 COL", "maxgroups-10", "maxgroups-100"},
	}
	ngbSweep := []int{1, 2, 3, 4, 5, 6}
	if cfg.Quick {
		ngbSweep = []int{1, 2, 3, 4, 5}
	}
	type cell struct {
		lat    time.Duration
		groups int
	}
	results := make(map[string]cell)
	for _, distinct := range []int{10, 100} {
		spec := dataset.SYNStar(distinct)
		spec = spec.WithRows(cfg.rowsFor(spec))
		for _, layout := range []sqldb.Layout{sqldb.LayoutRow, sqldb.LayoutCol} {
			db, err := build(spec, layout)
			if err != nil {
				return nil, err
			}
			eng := newEngine(db)
			req := requestFor(spec)
			for _, ngb := range ngbSweep {
				opts := core.Options{
					Strategy:    core.Sharing,
					GroupBy:     core.GroupByMaxN,
					MaxGroupBy:  ngb,
					K:           10,
					Parallelism: cfg.Parallelism,
				}
				d, res, err := timeRecommend(ctx, eng, req, opts)
				if err != nil {
					return nil, err
				}
				results[fmt.Sprintf("%d/%v/%d", distinct, layout, ngb)] = cell{d, res.Metrics.MaxGroups}
			}
		}
	}
	for _, ngb := range ngbSweep {
		r10 := results[fmt.Sprintf("10/ROW/%d", ngb)]
		c10 := results[fmt.Sprintf("10/COL/%d", ngb)]
		r100 := results[fmt.Sprintf("100/ROW/%d", ngb)]
		c100 := results[fmt.Sprintf("100/COL/%d", ngb)]
		tA.AddRow(fmt.Sprintf("%d", ngb),
			ms(r10.lat), ms(c10.lat), ms(r100.lat), ms(c100.lat),
			fmt.Sprintf("%d", r10.groups), fmt.Sprintf("%d", r100.groups))
	}
	tA.Notes = append(tA.Notes,
		"paper: latency dips then rises once distinct groups exceed the memory budget (ROW ~1e4, COL ~1e2)")

	// Figure 8b: MAX_GB sweep vs BP on SYN.
	spec := dataset.SYN()
	spec = spec.WithRows(cfg.rowsFor(spec))
	tB := &Table{
		ID:     "figure8b",
		Title:  "MAX_GB vs bin-packed grouping (SYN)",
		Header: []string{"method", "ROW", "COL", "ROW-maxgroups", "COL-maxgroups"},
	}
	var dbs [2]*sqldb.DB
	for li, layout := range []sqldb.Layout{sqldb.LayoutRow, sqldb.LayoutCol} {
		db, err := build(spec, layout)
		if err != nil {
			return nil, err
		}
		dbs[li] = db
	}
	req := requestFor(spec)
	maxGBs := []int{1, 2, 3, 5}
	if cfg.Quick {
		maxGBs = []int{1, 2, 3}
	}
	for _, ngb := range maxGBs {
		var lat [2]time.Duration
		var grp [2]int
		for li := range dbs {
			opts := core.Options{
				Strategy: core.Sharing, GroupBy: core.GroupByMaxN,
				MaxGroupBy: ngb, K: 10, Parallelism: cfg.Parallelism,
			}
			d, res, err := timeRecommend(ctx, newEngine(dbs[li]), req, opts)
			if err != nil {
				return nil, err
			}
			lat[li], grp[li] = d, res.Metrics.MaxGroups
		}
		tB.AddRow(fmt.Sprintf("MAX_GB(%d)", ngb), ms(lat[0]), ms(lat[1]),
			fmt.Sprintf("%d", grp[0]), fmt.Sprintf("%d", grp[1]))
	}
	var lat [2]time.Duration
	var grp [2]int
	for li, layout := range []sqldb.Layout{sqldb.LayoutRow, sqldb.LayoutCol} {
		budget := core.DefaultRowMemoryBudget
		if layout == sqldb.LayoutCol {
			budget = core.DefaultColMemoryBudget
		}
		opts := core.Options{
			Strategy: core.Sharing, GroupBy: core.GroupByBinPack,
			MemoryBudget: budget, K: 10, Parallelism: cfg.Parallelism,
		}
		d, res, err := timeRecommend(ctx, newEngine(dbs[li]), req, opts)
		if err != nil {
			return nil, err
		}
		lat[li], grp[li] = d, res.Metrics.MaxGroups
	}
	tB.AddRow("BP", ms(lat[0]), ms(lat[1]), fmt.Sprintf("%d", grp[0]), fmt.Sprintf("%d", grp[1]))
	tB.Notes = append(tB.Notes,
		"paper: BP respects the budget and beats MAX_GB (~2.5x on ROW); COL gains little (small budget → single-attribute groups)")
	return []*Table{tA, tB}, nil
}

// Figure9 regenerates Figures 9a and 9b: all sharing optimizations
// together vs the basic framework, as dataset size grows.
func Figure9(ctx context.Context, cfg Config) ([]*Table, error) {
	cfg = cfg.withDefaults()
	base := dataset.SYN()
	rowSweep := []int{250_000, 500_000, 1_000_000}
	if !cfg.PaperScale {
		rowSweep = []int{10_000, 25_000, 50_000}
		if cfg.Quick {
			rowSweep = []int{5_000, 10_000, 20_000}
		}
	}
	// Moderate view space so NO_OPT stays tractable.
	dims, meas := base.DimNames()[:10], base.MeasureNames()[:10]

	var out []*Table
	for li, layout := range []sqldb.Layout{sqldb.LayoutRow, sqldb.LayoutCol} {
		t := &Table{
			ID:     fmt.Sprintf("figure9%c", 'a'+li),
			Title:  fmt.Sprintf("All sharing optimizations (%s store, SYN, 100 views)", layout),
			Header: []string{"rows", "NO_OPT", "SHARING", "speedup"},
		}
		for _, rows := range rowSweep {
			spec := base.WithRows(rows)
			db, err := build(spec, layout)
			if err != nil {
				return nil, err
			}
			eng := newEngine(db)
			req := requestFor(spec)
			req.Dimensions, req.Measures = dims, meas
			dNo, _, err := timeRecommend(ctx, eng, req, core.Options{Strategy: core.NoOpt, K: 10})
			if err != nil {
				return nil, err
			}
			dSh, _, err := timeRecommend(ctx, eng, req, core.Options{Strategy: core.Sharing, K: 10, Parallelism: cfg.Parallelism})
			if err != nil {
				return nil, err
			}
			t.AddRow(fmt.Sprintf("%d", rows), ms(dNo), ms(dSh), speedup(dNo, dSh))
		}
		t.Notes = append(t.Notes, "paper: up to 40x on ROW, 6x on COL; sharing pays off most on large row-store tables")
		out = append(out, t)
	}
	return out, nil
}
