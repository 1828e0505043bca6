// Benchmarks regenerating every table and figure of the SeeDB paper's
// evaluation. Each benchmark wraps one experiment from internal/bench at
// quick scale and reports headline figures (speedups, accuracies, AUROC)
// as custom metrics. Run the full harness with real output tables via:
//
//	go run ./cmd/seedb-bench -all
//
// and at the paper's Table 1 dataset sizes via:
//
//	go run ./cmd/seedb-bench -all -paperscale
package seedb

import (
	"context"
	"strconv"
	"strings"
	"testing"

	"seedb/internal/bench"
)

// benchConfig is the CI-friendly configuration used by the testing.B
// targets.
func benchConfig() bench.Config {
	return bench.Config{Quick: true, Runs: 2, Seed: 1}
}

// runExperiment executes one experiment b.N times, keeping the tables of
// the final iteration.
func runExperiment(b *testing.B, id string) []*bench.Table {
	b.Helper()
	exp, err := bench.ByID(id)
	if err != nil {
		b.Fatal(err)
	}
	var tables []*bench.Table
	for i := 0; i < b.N; i++ {
		tables, err = exp.Run(context.Background(), benchConfig())
		if err != nil {
			b.Fatal(err)
		}
	}
	if testing.Verbose() {
		for _, t := range tables {
			b.Log("\n" + t.String())
		}
	}
	return tables
}

// cellFloat parses a numeric table cell ("0.903", "12.5x", "85%").
func cellFloat(s string) (float64, bool) {
	s = strings.TrimSpace(s)
	s = strings.TrimSuffix(s, "x")
	s = strings.TrimSuffix(s, "%")
	v, err := strconv.ParseFloat(s, 64)
	return v, err == nil
}

// BenchmarkTable1DatasetInventory regenerates Table 1 (dataset shapes).
func BenchmarkTable1DatasetInventory(b *testing.B) {
	tables := runExperiment(b, "table1")
	b.ReportMetric(float64(len(tables[0].Rows)), "datasets")
}

// BenchmarkFigure5Overall regenerates Figures 5a/5b: NO_OPT vs SHARING vs
// COMB vs COMB_EARLY on the four real datasets, both stores. The metric
// reported is the best total gain observed (paper: 300x ROW / 30x COL at
// full scale).
func BenchmarkFigure5Overall(b *testing.B) {
	tables := runExperiment(b, "fig5")
	best := 0.0
	for _, t := range tables {
		for _, row := range t.Rows {
			if v, ok := cellFloat(row[len(row)-1]); ok && v > best {
				best = v
			}
		}
	}
	b.ReportMetric(best, "max-total-gain-x")
}

// BenchmarkFigure6aLatencyVsRows regenerates Figure 6a.
func BenchmarkFigure6aLatencyVsRows(b *testing.B) {
	tables := runExperiment(b, "fig6")
	// Report the COL-over-ROW advantage at the largest size (paper ≈5x).
	last := tables[0].Rows[len(tables[0].Rows)-1]
	if v, ok := cellFloat(last[len(last)-1]); ok {
		b.ReportMetric(v, "col-speedup-x")
	}
}

// BenchmarkFigure6bLatencyVsViews regenerates Figure 6b.
func BenchmarkFigure6bLatencyVsViews(b *testing.B) {
	tables := runExperiment(b, "fig6")
	b.ReportMetric(float64(len(tables[1].Rows)), "view-points")
}

// BenchmarkFigure7aMultipleAggregates regenerates Figure 7a (latency vs
// nagg; paper: ~4x ROW / ~3x COL from combining aggregates).
func BenchmarkFigure7aMultipleAggregates(b *testing.B) {
	tables := runExperiment(b, "fig7")
	t := tables[0]
	first, ok1 := cellFloat(strings.TrimSuffix(strings.TrimSuffix(t.Rows[0][1], "ms"), "s"))
	last, ok2 := cellFloat(strings.TrimSuffix(strings.TrimSuffix(t.Rows[len(t.Rows)-1][1], "ms"), "s"))
	if ok1 && ok2 && last > 0 {
		b.ReportMetric(first/last, "row-nagg-gain-x")
	}
}

// BenchmarkFigure7bParallelism regenerates Figure 7b (latency vs parallel
// query count; paper: optimum ≈ number of cores).
func BenchmarkFigure7bParallelism(b *testing.B) {
	tables := runExperiment(b, "fig7")
	b.ReportMetric(float64(len(tables[1].Rows)), "parallelism-points")
}

// BenchmarkFigure8aGroupByMemory regenerates Figure 8a (latency vs ngb
// under the memory budget).
func BenchmarkFigure8aGroupByMemory(b *testing.B) {
	tables := runExperiment(b, "fig8")
	b.ReportMetric(float64(len(tables[0].Rows)), "ngb-points")
}

// BenchmarkFigure8bBinPackingVsMaxGB regenerates Figure 8b (BP vs MAX_GB;
// paper: ~2.5x on ROW).
func BenchmarkFigure8bBinPackingVsMaxGB(b *testing.B) {
	tables := runExperiment(b, "fig8")
	b.ReportMetric(float64(len(tables[1].Rows)), "methods")
}

// BenchmarkFigure9AllSharing regenerates Figures 9a/9b (all sharing
// optimizations; paper: up to 40x ROW / 6x COL).
func BenchmarkFigure9AllSharing(b *testing.B) {
	tables := runExperiment(b, "fig9")
	best := 0.0
	for _, t := range tables {
		for _, row := range t.Rows {
			if v, ok := cellFloat(row[3]); ok && v > best {
				best = v
			}
		}
	}
	b.ReportMetric(best, "max-sharing-gain-x")
}

// BenchmarkFigure10UtilityDistribution regenerates Figures 10a/10b (the
// utility distributions whose Δk structure drives pruning quality).
func BenchmarkFigure10UtilityDistribution(b *testing.B) {
	tables := runExperiment(b, "fig10")
	b.ReportMetric(float64(len(tables)), "datasets")
}

// BenchmarkFigure11BankQuality regenerates Figures 11a/11b (BANK pruning
// accuracy and utility distance; paper: CI/MAB ≥75% accuracy, near-zero
// utility distance).
func BenchmarkFigure11BankQuality(b *testing.B) {
	tables := runExperiment(b, "fig11")
	// Report CI accuracy at the largest k.
	t := tables[0]
	if v, ok := cellFloat(t.Rows[len(t.Rows)-1][1]); ok {
		b.ReportMetric(v, "ci-accuracy")
	}
}

// BenchmarkFigure12DiabetesQuality regenerates Figures 12a/12b.
func BenchmarkFigure12DiabetesQuality(b *testing.B) {
	tables := runExperiment(b, "fig12")
	t := tables[0]
	if v, ok := cellFloat(t.Rows[len(t.Rows)-1][2]); ok {
		b.ReportMetric(v, "mab-accuracy")
	}
}

// BenchmarkFigure13PruningLatency regenerates Figures 13a/13b (pruning
// latency reduction; paper: ≥50% for k≤15, ~90% at small k).
func BenchmarkFigure13PruningLatency(b *testing.B) {
	tables := runExperiment(b, "fig13")
	best := 0.0
	for _, t := range tables {
		for _, row := range t.Rows {
			if v, ok := cellFloat(row[3]); ok && v > best {
				best = v
			}
		}
	}
	b.ReportMetric(best, "max-ci-reduction-pct")
}

// BenchmarkFigure15ROC regenerates Figures 15a/15b (deviation metric vs
// simulated expert ground truth; paper: AUROC 0.903).
func BenchmarkFigure15ROC(b *testing.B) {
	tables := runExperiment(b, "fig15")
	title := tables[1].Title
	if idx := strings.Index(title, "AUROC "); idx >= 0 {
		if v, ok := cellFloat(title[idx+6:]); ok {
			b.ReportMetric(v, "auroc")
		}
	}
}

// BenchmarkTable2Bookmarking regenerates Table 2 (SEEDB vs MANUAL; paper:
// ≈3x bookmark rate).
func BenchmarkTable2Bookmarking(b *testing.B) {
	tables := runExperiment(b, "table2")
	var seedbRate, manualRate float64
	for _, row := range tables[0].Rows {
		if row[0] == "pooled" {
			if v, ok := cellFloat(row[4]); ok {
				if row[1] == "SEEDB" {
					seedbRate = v
				} else {
					manualRate = v
				}
			}
		}
	}
	if manualRate > 0 {
		b.ReportMetric(seedbRate/manualRate, "bookmark-rate-ratio")
	}
}

// BenchmarkAblationDistanceFunctions measures top-k agreement between EMD
// and the other distance functions (the TR's "comparable results" claim).
func BenchmarkAblationDistanceFunctions(b *testing.B) {
	exp := bench.AblationDistance
	var tables []*bench.Table
	var err error
	for i := 0; i < b.N; i++ {
		tables, err = exp(context.Background(), benchConfig())
		if err != nil {
			b.Fatal(err)
		}
	}
	worst := 1.0
	for _, row := range tables[0].Rows {
		if v, ok := cellFloat(row[1]); ok && v < worst {
			worst = v
		}
	}
	b.ReportMetric(worst, "min-topk-agreement")
}

// BenchmarkAblationPhaseCount sweeps the phased framework's phase count.
func BenchmarkAblationPhaseCount(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.AblationPhases(context.Background(), benchConfig()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationDelta sweeps the CI pruning failure probability δ.
func BenchmarkAblationDelta(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.AblationDelta(context.Background(), benchConfig()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationEarlyReturn quantifies COMB_EARLY's approximation
// error against COMB.
func BenchmarkAblationEarlyReturn(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.AblationEarlyError(context.Background(), benchConfig()); err != nil {
			b.Fatal(err)
		}
	}
}
