package bench

import (
	"fmt"
	"io"
	"strings"
)

// deviations lists where this reproduction departs from the paper's
// setup, and the claims it therefore has no row for. Render writes them
// under every scorecard.
var deviations = []string{
	"**Datasets.** The real datasets of Table 1 (UCI and US DOT data) are not in the repository and cannot be fetched. " +
		"`internal/dataset` generates synthetic analogues with the published row, dimension and measure counts and a planted " +
		"per-view deviation profile shaped like Figure 10. Quick scale caps every table at a few thousand rows " +
		"(Figure 8b's at 1 000), so no query there can reach ROW's budget of 10 000 groups. SYN tables hold only the " +
		"columns their views read, since the ROW layout decodes whole rows.",
	"**Store.** The row (ROW) and column (COL) layouts of the embedded Go store stand in for PostgreSQL and Vertica. " +
		"It never spills to disk, so nothing here feels the memory pressure behind the paper's budgets.",
	"**Latency.** Rows check work counters — queries executed, rows scanned, distinct groups — which do not depend on " +
		"the host. Wall time is reported by `seedb-bench` and never asserted. Every scan runs on one worker " +
		"(`ScanParallelism: 1`) so float sums, and therefore this file, are identical on any host and core count.",
	"**No row: Figure 7b** (latency against parallel queries, best at about the core count) and **Figure 8a** " +
		"(latency dips, then rises once a query's groups exceed the memory budget) are claims about wall time and memory " +
		"pressure alone; they are not reproduced.",
	"**Figure 15** ranks the census views against the views the generator planted as interesting (intended utility " +
		"≥ 0.15) instead of the votes of five experts, and Figure 15a's vote heatmap has no counterpart.",
	"**No row: Table 2** (with SEEDB, analysts bookmark about 3x as many of the charts they view as with a manual tool) " +
		"is a claim about human behaviour. A simulated analyst would only re-read the ranking the other rows already " +
		"check, so it is not reproduced.",
	"**Frontend.** The paper's web frontend is replaced by the HTTP API and text bar charts (`internal/chart`); " +
		"no claim here depends on it.",
	"**Ground distance.** EMD compares distributions along the category axis in byte order of the labels. The " +
		"generator zero-pads labels so that order is the planted ramp; real data gets no such guarantee.",
}

// Render writes rows as the markdown scorecard: a header naming the
// scale, one table row per claim, and the deviations. withWall adds the
// wall-time column.
func Render(w io.Writer, cfg Config, rows []Row, withWall bool) error {
	cfg = cfg.withDefaults()
	scale := "default"
	switch {
	case cfg.PaperScale:
		scale = "paper"
	case cfg.Quick:
		scale = "quick"
	}
	reproduced := 0
	for _, r := range rows {
		if r.Pass {
			reproduced++
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "# Reproduction scorecard\n\n")
	fmt.Fprintf(&b, "Every claim the SeeDB paper makes in its evaluation, checked against this repository. "+
		"`go run ./cmd/seedb-bench` measures and prints the rows with wall times; docs/REPRODUCTION.md holds them at "+
		"quick scale without, and `go test ./internal/bench` fails when that file is stale "+
		"(`UPDATE_REPRODUCTION=1 go test ./internal/bench -run TestReproductionDoc` rewrites it).\n\n")
	fmt.Fprintf(&b, "Scale: %s, %d data orders per quality point, seed %d. %d of %d claims reproduced.\n\n",
		scale, cfg.Runs, cfg.Seed, reproduced, len(rows))
	header := []string{"Row", "Source", "Claim", "Predicate", "Measured", "Verdict"}
	if withWall {
		header = append(header, "Wall")
	}
	writeCells(&b, header)
	writeCells(&b, strings.Split(strings.Repeat("---,", len(header)-1)+"---", ","))
	for _, r := range rows {
		verdict := "reproduced"
		if !r.Pass {
			verdict = "**not reproduced**"
		}
		cells := []string{"`" + r.ID + "`", r.Source, r.Claim, r.Predicate, r.Measured, verdict}
		if withWall {
			cells = append(cells, r.Wall)
		}
		writeCells(&b, cells)
	}
	fmt.Fprintf(&b, "\n## Deviations\n\n")
	for _, d := range deviations {
		fmt.Fprintf(&b, "- %s\n", d)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// writeCells writes one markdown table line.
func writeCells(b *strings.Builder, cells []string) {
	for _, c := range cells {
		fmt.Fprintf(b, "| %s ", strings.ReplaceAll(c, "|", `\|`))
	}
	b.WriteString("|\n")
}

// rocPoint is one point of the receiver operating curve: the true and
// false positive rates of recommending the top k views (Figure 15b).
type rocPoint struct{ TPR, FPR float64 }

// roc sweeps k over the ranked views (highest utility first) and returns
// the curve, indexed by k from the k=0 origin.
func roc(ranked []string, interesting map[string]bool) []rocPoint {
	pos := 0
	for _, k := range ranked {
		if interesting[k] {
			pos++
		}
	}
	neg := len(ranked) - pos
	points := []rocPoint{{}}
	tp, fp := 0, 0
	for _, k := range ranked {
		if interesting[k] {
			tp++
		} else {
			fp++
		}
		var p rocPoint
		if pos > 0 {
			p.TPR = float64(tp) / float64(pos)
		}
		if neg > 0 {
			p.FPR = float64(fp) / float64(neg)
		}
		points = append(points, p)
	}
	return points
}

// auroc integrates the ROC curve with the trapezoid rule.
func auroc(points []rocPoint) float64 {
	area := 0.0
	for i := 1; i < len(points); i++ {
		area += (points[i].FPR - points[i-1].FPR) * (points[i].TPR + points[i-1].TPR) / 2
	}
	return area
}
