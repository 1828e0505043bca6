package bench

import (
	"context"
	"fmt"
	"strings"
	"time"

	"seedb/internal/backend"
	"seedb/internal/core"
	"seedb/internal/dataset"
	"seedb/internal/distance"
	"seedb/internal/sqldb"
)

// qualityKs is the k sweep for the pruning experiments (the paper sweeps
// 1..25 with emphasis on 5 and 10).
func qualityKs(cfg Config) []int {
	return cfg.pick([]int{1, 5, 10, 25}, []int{1, 2, 3, 5, 7, 10, 15, 20, 25}, []int{1, 2, 3, 5, 7, 10, 15, 20, 25})
}

// specFor resolves a catalog dataset at the configured row count.
func specFor(cfg Config, name string) (dataset.Spec, error) {
	spec, err := dataset.ByName(name)
	return spec.WithRows(cfg.rowsFor(spec)), err
}

// Figure10 measures Figures 10a and 10b: the ranked true utilities of
// BANK and DIAB, whose gaps Δk decide how hard pruning is.
func Figure10(ctx context.Context, cfg Config) ([]Row, error) {
	cfg = cfg.withDefaults()
	// gaps returns Δr = U(r) − U(r+1) for ranks r = 1..n of a dataset.
	gaps := func(name string, n int) ([]float64, error) {
		spec, err := specFor(cfg, name)
		if err != nil {
			return nil, err
		}
		eng, err := engineFor(spec, sqldb.LayoutCol)
		if err != nil {
			return nil, err
		}
		res, err := oracle(ctx, eng, requestFor(spec), distance.EMD)
		if err != nil {
			return nil, err
		}
		out := make([]float64, n)
		for r := range out {
			out[r] = res.AllViews[r].Utility - res.AllViews[r+1].Utility
		}
		return out, nil
	}
	bank, err := gaps("bank", 9)
	if err != nil {
		return nil, err
	}
	diab, err := gaps("diab", 9)
	if err != nil {
		return nil, err
	}
	cluster := maxOf(bank[2:8]) // Δ3..Δ8: the gaps among ranks 3–9
	return []Row{
		{
			ID: "fig10a.bank-gaps", Source: "Fig. 10a",
			Claim:     "BANK's top 2 views stand apart (Δ≈0.0125) and ranks 3–9 cluster (Δ<0.002)",
			Predicate: "Δ2 = U(2) − U(3) exceeds every gap among ranks 3–9 (EMD, complement reference)",
			Measured:  fmt.Sprintf("Δ2 %.4f; largest rank 3–9 gap %.4f", bank[1], cluster),
			Pass:      bank[1] > cluster,
		},
		{
			ID: "fig10b.diab-cluster", Source: "Fig. 10b",
			Claim:     "DIAB's top 10 views are tightly clustered",
			Predicate: "every gap among ranks 1–10 is at most 0.02",
			Measured:  fmt.Sprintf("largest gap %.4f", maxOf(diab)),
			Pass:      maxOf(diab) <= 0.02,
		},
	}, nil
}

// maxOf returns the largest element of xs.
func maxOf(xs []float64) float64 {
	m := xs[0]
	for _, x := range xs[1:] {
		m = max(m, x)
	}
	return m
}

// quality holds each pruning scheme's accuracy and utility distance at
// every k, averaged over cfg.Runs data orders.
type quality struct {
	ks       []int
	runs     int
	accuracy map[core.PruningScheme][]float64
	distance map[core.PruningScheme][]float64
	wall     time.Duration
}

// schemes are the pruning schemes Figures 11 and 12 compare.
var schemes = []core.PruningScheme{core.CIPruning, core.MABPruning, core.NoPruning, core.RandomPruning}

// measureQuality runs COMB under every pruning scheme over the k sweep
// on cfg.Runs shuffled copies of a dataset.
func measureQuality(ctx context.Context, cfg Config, name string) (*quality, error) {
	spec, err := specFor(cfg, name)
	if err != nil {
		return nil, err
	}
	q := &quality{ks: qualityKs(cfg), runs: cfg.Runs, accuracy: map[core.PruningScheme][]float64{}, distance: map[core.PruningScheme][]float64{}}
	for _, s := range schemes {
		q.accuracy[s], q.distance[s] = make([]float64, len(q.ks)), make([]float64, len(q.ks))
	}
	runs := float64(cfg.Runs)
	for run := 0; run < cfg.Runs; run++ {
		db, err := buildShuffled(spec, sqldb.LayoutCol, cfg.Seed+int64(run)*7919)
		if err != nil {
			return nil, err
		}
		eng := core.NewEngine(backend.NewEmbedded(db))
		req := requestFor(spec)
		truth, err := oracle(ctx, eng, req, distance.EMD)
		if err != nil {
			return nil, err
		}
		trueUtil := core.TrueUtilityMap(truth)
		for ki, k := range q.ks {
			trueTop := core.TopViews(truth, k)
			for _, s := range schemes {
				res, c, err := recommend(ctx, eng, req, core.Options{
					Strategy: core.Comb, Pruning: s, K: k, Seed: cfg.Seed + int64(run),
				})
				if err != nil {
					return nil, err
				}
				got := core.ViewsOf(res.Recommendations)
				q.accuracy[s][ki] += core.Accuracy(trueTop, got) / runs
				q.distance[s][ki] += core.UtilityDistance(trueUtil, trueTop, got) / runs
				q.wall += c.wall
			}
		}
	}
	return q, nil
}

// series formats one scheme's values over the k sweep.
func (q *quality) series(s core.PruningScheme, vals map[core.PruningScheme][]float64) string {
	return fmt.Sprintf("%v %s", s, list(vals[s], func(x float64) string { return fmt.Sprintf("%.3f", x) }))
}

// all reports whether pred holds at every k.
func (q *quality) all(pred func(ki int) bool) bool {
	for ki := range q.ks {
		if !pred(ki) {
			return false
		}
	}
	return true
}

// qualityRows turns one dataset's quality measurements into the rows
// Figures 11 and 12 share; band adds the accuracy band the paper reports
// for BANK.
func qualityRows(q *quality, id, source, name string, band bool) []Row {
	ci, mab, nopru, random := core.CIPruning, core.MABPruning, core.NoPruning, core.RandomPruning
	ks := fmt.Sprintf("k = %s, mean of %d data orders", list(q.ks, func(k int) string { return fmt.Sprint(k) }), q.runs)
	w := fmt.Sprintf("COMB, all schemes %v", round(q.wall))
	rows := []Row{
		{
			ID: id + ".nopru", Source: source,
			Claim:     "without pruning (NO_PRU) the top-k is exact",
			Predicate: fmt.Sprintf("NO_PRU accuracy is 1 at every k (%s, %s)", name, ks),
			Measured:  q.series(nopru, q.accuracy),
			Pass:      q.all(func(ki int) bool { return q.accuracy[nopru][ki] == 1 }),
			Wall:      w,
		},
		{
			ID: id + ".ci-random", Source: source,
			Claim:     "CI pruning is far more accurate than RANDOM",
			Predicate: "CI accuracy is at least RANDOM's at every k",
			Measured:  q.series(ci, q.accuracy) + "; " + q.series(random, q.accuracy),
			Pass:      q.all(func(ki int) bool { return q.accuracy[ci][ki] >= q.accuracy[random][ki] }),
		},
		{
			ID: id + ".utility-distance", Source: source,
			Claim:     "CI and MAB return views whose utility is near the true top-k's; RANDOM's is several times further",
			Predicate: "CI and MAB utility distance ≤ 0.01, and RANDOM's at least 5x the larger of the two, at every k",
			Measured:  q.series(ci, q.distance) + "; " + q.series(mab, q.distance) + "; " + q.series(random, q.distance),
			Pass: q.all(func(ki int) bool {
				worst := max(q.distance[ci][ki], q.distance[mab][ki])
				return worst <= 0.01 && q.distance[random][ki] >= 5*worst
			}),
		},
	}
	if band {
		rows = append(rows, Row{
			ID: id + ".accuracy", Source: source,
			Claim:     "CI and MAB reach at least 75% accuracy",
			Predicate: "CI and MAB accuracy ≥ 0.75 at every k",
			Measured:  q.series(ci, q.accuracy) + "; " + q.series(mab, q.accuracy),
			Pass: q.all(func(ki int) bool {
				return q.accuracy[ci][ki] >= 0.75 && q.accuracy[mab][ki] >= 0.75
			}),
		})
	}
	return rows
}

// Figure11 measures Figures 11a and 11b: BANK pruning quality.
func Figure11(ctx context.Context, cfg Config) ([]Row, error) {
	cfg = cfg.withDefaults()
	q, err := measureQuality(ctx, cfg, "bank")
	if err != nil {
		return nil, err
	}
	return qualityRows(q, "fig11", "Fig. 11", "bank", true), nil
}

// Figure12 measures Figures 12a and 12b: DIAB pruning quality. DIAB's
// clustered top 10 make accuracy the wrong yardstick below k=10 (any of
// the clustered views is as good), so the paper judges it by utility
// distance.
func Figure12(ctx context.Context, cfg Config) ([]Row, error) {
	cfg = cfg.withDefaults()
	q, err := measureQuality(ctx, cfg, "diab")
	if err != nil {
		return nil, err
	}
	return qualityRows(q, "fig12", "Fig. 12", "diab", false), nil
}

// Figure13 measures Figures 13a and 13b: the work pruning saves relative
// to NO_PRU, as a function of k.
func Figure13(ctx context.Context, cfg Config) ([]Row, error) {
	cfg = cfg.withDefaults()
	ks := qualityKs(cfg)
	cutOK, ciBeatsMAB := true, true
	var ciCut, mabCut []string
	var walls [3]time.Duration
	for _, name := range []string{"bank", "diab"} {
		spec, err := specFor(cfg, name)
		if err != nil {
			return nil, err
		}
		eng, err := engineFor(spec, sqldb.LayoutCol)
		if err != nil {
			return nil, err
		}
		var ciPct, mabPct []string
		for _, k := range ks {
			var c [3]cost
			for i, s := range []core.PruningScheme{core.NoPruning, core.CIPruning, core.MABPruning} {
				if _, c[i], err = recommend(ctx, eng, requestFor(spec), core.Options{Strategy: core.Comb, Pruning: s, K: k}); err != nil {
					return nil, err
				}
				walls[i] += c[i].wall
			}
			ci, mab := float64(c[1].rows)/float64(c[0].rows), float64(c[2].rows)/float64(c[0].rows)
			if k <= 15 {
				cutOK = cutOK && ci <= 0.5
			}
			ciBeatsMAB = ciBeatsMAB && c[1].rows <= c[2].rows
			ciPct = append(ciPct, fmt.Sprintf("%.0f%%", 100*ci))
			mabPct = append(mabPct, fmt.Sprintf("%.0f%%", 100*mab))
		}
		ciCut = append(ciCut, name+" "+strings.Join(ciPct, ", "))
		mabCut = append(mabCut, name+" "+strings.Join(mabPct, ", "))
	}
	sweep := fmt.Sprintf("k = %s", list(ks, func(k int) string { return fmt.Sprint(k) }))
	w := fmt.Sprintf("NO_PRU %v, CI %v, MAB %v", round(walls[0]), round(walls[1]), round(walls[2]))
	return []Row{
		{
			ID: "fig13.ci-work", Source: "Fig. 13",
			Claim:     "CI pruning cuts latency by at least 50% for k ≤ 15, up to about 90% at small k",
			Predicate: "COMB+CI scans at most half of COMB+NO_PRU's rows at every k ≤ 15, on bank and diab",
			Measured:  "CI rows as % of NO_PRU's at " + sweep + ": " + strings.Join(ciCut, "; "),
			Pass:      cutOK, Wall: w,
		},
		{
			ID: "fig13.ci-vs-mab", Source: "Fig. 13",
			Claim:     "CI is faster than MAB",
			Predicate: "COMB+CI scans no more rows than COMB+MAB at every k, on bank and diab",
			Measured:  "MAB rows as % of NO_PRU's at " + sweep + ": " + strings.Join(mabCut, "; "),
			Pass:      ciBeatsMAB,
		},
	}, nil
}

// Figure15 measures Figure 15b: how well the deviation ranking of the
// census views recovers the views the generator planted as interesting
// (intended utility ≥ 0.15), in place of the paper's expert panel.
func Figure15(ctx context.Context, cfg Config) ([]Row, error) {
	cfg = cfg.withDefaults()
	spec, err := specFor(cfg, "census")
	if err != nil {
		return nil, err
	}
	eng, err := engineFor(spec, sqldb.LayoutCol)
	if err != nil {
		return nil, err
	}
	// Grouping by the attribute the query conditions on yields one-group
	// target views no analyst would call a finding, so the study view
	// space leaves the selector out.
	req := requestFor(spec)
	req.Dimensions = nil
	for _, d := range spec.ViewDimNames() {
		if d != spec.Selector().Name {
			req.Dimensions = append(req.Dimensions, d)
		}
	}
	start := time.Now()
	truth, err := oracle(ctx, eng, req, distance.EMD)
	if err != nil {
		return nil, err
	}
	w := fmt.Sprintf("oracle %v", round(time.Since(start)))
	ranked := make([]string, len(truth.AllViews))
	interesting := make(map[string]bool)
	for i, r := range truth.AllViews {
		ranked[i] = r.View.Key()
		if spec.IntendedUtility(r.View.Dimension, r.View.Measure) >= 0.15 {
			interesting[r.View.Key()] = true
		}
	}
	points := roc(ranked, interesting)
	a := auroc(points)
	return []Row{
		{
			ID: "fig15.auroc", Source: "Fig. 15b",
			Claim:     "the deviation ranking recovers the interesting views: AUROC 0.903 against the experts",
			Predicate: "AUROC of the census ranking against the planted labels ≥ 0.75",
			Measured:  fmt.Sprintf("AUROC %.3f; %d of %d views interesting", a, len(interesting), len(ranked)),
			Pass:      a >= 0.75, Wall: w,
		},
		{
			ID: "fig15.top3", Source: "Fig. 15b",
			Claim:     "the top of the ranking is all interesting: at k=3, TPR 0.5 and FPR 0",
			Predicate: "FPR is 0 at k=3",
			Measured:  fmt.Sprintf("TPR %.3f, FPR %.3f at k=3", points[3].TPR, points[3].FPR),
			Pass:      points[3].FPR == 0,
		},
	}, nil
}

// DistanceAgreement checks the remark of the paper's technical report
// (TR) that other distance functions give results comparable to EMD's:
// the overlap of each function's exact top 10 with EMD's, on bank.
func DistanceAgreement(ctx context.Context, cfg Config) ([]Row, error) {
	cfg = cfg.withDefaults()
	spec, err := specFor(cfg, "bank")
	if err != nil {
		return nil, err
	}
	eng, err := engineFor(spec, sqldb.LayoutCol)
	if err != nil {
		return nil, err
	}
	req := requestFor(spec)
	const k = 10
	base, err := oracle(ctx, eng, req, distance.EMD)
	if err != nil {
		return nil, err
	}
	baseTop := core.TopViews(base, k)
	pass := true
	var parts []string
	start := time.Now()
	for _, f := range distance.Funcs() {
		if f == distance.EMD {
			continue
		}
		res, err := oracle(ctx, eng, req, f)
		if err != nil {
			return nil, err
		}
		overlap := core.Accuracy(baseTop, core.TopViews(res, k))
		pass = pass && overlap >= 0.5
		parts = append(parts, fmt.Sprintf("%v %.3f", f, overlap))
	}
	return []Row{{
		ID: "distance.top10", Source: "TR",
		Claim:     "other distance functions give results comparable to EMD's",
		Predicate: "each function's exact top 10 shares at least half of its views with EMD's (bank)",
		Measured:  "overlap with EMD's top 10: " + strings.Join(parts, ", "), Pass: pass,
		Wall: fmt.Sprintf("%d oracles %v", len(parts), round(time.Since(start))),
	}}, nil
}

// EarlyReturn measures what COMB_EARLY's approximate answer costs in
// quality and saves in work against COMB, on bank and air.
func EarlyReturn(ctx context.Context, cfg Config) ([]Row, error) {
	cfg = cfg.withDefaults()
	pass := true
	var parts []string
	var walls [2]time.Duration
	for _, name := range []string{"bank", "air"} {
		spec, err := specFor(cfg, name)
		if err != nil {
			return nil, err
		}
		eng, err := engineFor(spec, sqldb.LayoutCol)
		if err != nil {
			return nil, err
		}
		req := requestFor(spec)
		truth, err := oracle(ctx, eng, req, distance.EMD)
		if err != nil {
			return nil, err
		}
		trueUtil := core.TrueUtilityMap(truth)
		for _, k := range []int{1, 5, 10} {
			_, full, err := recommend(ctx, eng, req, core.Options{Strategy: core.Comb, Pruning: core.CIPruning, K: k})
			if err != nil {
				return nil, err
			}
			res, early, err := recommend(ctx, eng, req, core.Options{Strategy: core.CombEarly, Pruning: core.CIPruning, K: k})
			if err != nil {
				return nil, err
			}
			ud := core.UtilityDistance(trueUtil, core.TopViews(truth, k), core.ViewsOf(res.Recommendations))
			frac := float64(early.rows) / float64(full.rows)
			pass = pass && ud <= 0.01 && early.rows <= full.rows
			walls[0], walls[1] = walls[0]+full.wall, walls[1]+early.wall
			parts = append(parts, fmt.Sprintf("%s k=%d: distance %.4f, %.0f%% of COMB's rows", name, k, ud, 100*frac))
		}
	}
	return []Row{{
		ID: "early.quality", Source: "Fig. 5 (COMB_EARLY)",
		Claim:     "early return trades a near-zero utility distance for interactive latency",
		Predicate: "COMB_EARLY's utility distance to the exact top-k is ≤ 0.01 and it scans no more rows than COMB (CI, k = 1, 5, 10, bank and air)",
		Measured:  strings.Join(parts, ", "), Pass: pass, Wall: fmt.Sprintf("COMB %v, COMB_EARLY %v", round(walls[0]), round(walls[1])),
	}}, nil
}
