package bench

import (
	"bytes"
	"context"
	"errors"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"seedb/internal/dataset"
	"seedb/internal/sqldb"
)

// docConfig is the scale docs/REPRODUCTION.md is rendered at.
var docConfig = Config{Quick: true}

var (
	scorecardOnce sync.Once
	scorecardRows []Row
	scorecardErr  error
)

// scorecard runs every experiment at docConfig once per test binary.
// The experiments share nothing, so they run concurrently; the rows keep
// All's order.
func scorecard(t *testing.T) []Row {
	t.Helper()
	if testing.Short() {
		t.Skip("runs every experiment")
	}
	scorecardOnce.Do(func() {
		exps := All()
		rows := make([][]Row, len(exps))
		errs := make([]error, len(exps))
		var wg sync.WaitGroup
		for i := range exps {
			wg.Add(1)
			go func() {
				defer wg.Done()
				rows[i], errs[i] = Run(context.Background(), docConfig, exps[i:i+1])
			}()
		}
		wg.Wait()
		for i := range exps {
			scorecardRows = append(scorecardRows, rows[i]...)
		}
		scorecardErr = errors.Join(errs...)
	})
	if scorecardErr != nil {
		t.Fatal(scorecardErr)
	}
	return scorecardRows
}

// mustPass fails unless each named row is in the scorecard and
// reproduced.
func mustPass(t *testing.T, ids ...string) {
	t.Helper()
	rows := scorecard(t)
	for _, id := range ids {
		i := -1
		for j, r := range rows {
			if r.ID == id {
				i = j
			}
		}
		switch {
		case i < 0:
			t.Errorf("no row %s", id)
		case !rows[i].Pass:
			t.Errorf("%s not reproduced: %s; measured %s", id, rows[i].Predicate, rows[i].Measured)
		}
	}
}

func TestAllExperimentsRegistered(t *testing.T) {
	want := []string{"table1", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10",
		"fig11", "fig12", "fig13", "fig15", "distance", "early"}
	var got []string
	for _, e := range All() {
		got = append(got, e.ID)
		if e.Run == nil || e.Name == "" {
			t.Errorf("experiment %s incomplete", e.ID)
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("registered experiments = %v, want %v", got, want)
	}
	if _, err := ByID("nope"); err == nil {
		t.Error("unknown experiment should fail")
	}
	seen := map[string]bool{}
	for _, r := range scorecard(t) {
		if seen[r.ID] || r.Source == "" || r.Claim == "" || r.Predicate == "" || r.Measured == "" {
			t.Errorf("row %q duplicated or incomplete: %+v", r.ID, r)
		}
		seen[r.ID] = true
	}
}

// TestReproductionDoc holds docs/REPRODUCTION.md to the rendering of a
// fresh run, so a verdict or a measured value that moves shows up as a
// diff of that file. UPDATE_REPRODUCTION=1 rewrites it.
func TestReproductionDoc(t *testing.T) {
	var b bytes.Buffer
	if err := Render(&b, docConfig, scorecard(t), false); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("..", "..", "docs", "REPRODUCTION.md")
	if os.Getenv("UPDATE_REPRODUCTION") != "" {
		if err := os.WriteFile(path, b.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	committed, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(committed, b.Bytes()) {
		return
	}
	got, want := strings.Split(string(committed), "\n"), strings.Split(b.String(), "\n")
	i := 0
	for i < len(got) && i < len(want) && got[i] == want[i] {
		i++
	}
	line := func(ls []string) string {
		if i < len(ls) {
			return ls[i]
		}
		return "(end of file)"
	}
	t.Errorf("docs/REPRODUCTION.md is stale from line %d; rerun with UPDATE_REPRODUCTION=1 and review the diff.\ncommitted: %s\nfresh:     %s",
		i+1, line(got), line(want))
}

func TestTable1Inventory(t *testing.T) { mustPass(t, "table1.views") }

// TestFigure5ShapeHolds checks Figure 5's ordering on the work each
// strategy does, which is what its latency ordering follows from:
// sharing collapses the per-view queries, pruning then cuts the rows
// those queries visit, and early return cuts them further.
func TestFigure5ShapeHolds(t *testing.T) {
	mustPass(t, "fig5.sharing-queries", "fig5.sharing-rows", "fig5.comb-rows", "fig5.early-rows")
}

// TestFigure6LatencyGrowsWithRows checks Figure 6's linearity claim on
// what NO_OPT's latency is made of: two queries per view, each a full
// scan, whatever the store.
func TestFigure6LatencyGrowsWithRows(t *testing.T) {
	mustPass(t, "fig6a.rows", "fig6b.views", "fig6.stores")
}

func TestFigure10UtilityProfileShapes(t *testing.T) {
	mustPass(t, "fig10a.bank-gaps", "fig10b.diab-cluster")
}

func TestFigure11QualityBounds(t *testing.T) {
	mustPass(t, "fig11.nopru", "fig11.ci-random")
}

func TestFigure15AUROCHigh(t *testing.T) { mustPass(t, "fig15.auroc") }

func TestBuildShuffledPreservesContent(t *testing.T) {
	spec := dataset.Housing().WithRows(200)
	db1, err := buildShuffled(spec, sqldb.LayoutCol, 0)
	if err != nil {
		t.Fatal(err)
	}
	db2, err := buildShuffled(spec, sqldb.LayoutCol, 99)
	if err != nil {
		t.Fatal(err)
	}
	q := "SELECT COUNT(*), SUM(price) FROM housing"
	r1, err := db1.QueryOpts(q, sqldb.ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := db2.QueryOpts(q, sqldb.ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if r1.Rows[0][0].I != r2.Rows[0][0].I {
		t.Error("shuffling changed row count")
	}
	s1, _ := r1.Rows[0][1].AsFloat()
	s2, _ := r2.Rows[0][1].AsFloat()
	if diff := s1 - s2; diff > 1e-6 || diff < -1e-6 {
		t.Errorf("shuffling changed content: %v vs %v", s1, s2)
	}
}

func TestTableRendering(t *testing.T) {
	rows := []Row{
		{ID: "x.a", Source: "Fig. 1", Claim: "c", Predicate: "|A| > 1", Measured: "2", Pass: true, Wall: "COL 1ms"},
		{ID: "x.b", Source: "Fig. 2", Claim: "d", Predicate: "p", Measured: "0", Wall: "ROW 2ms"},
	}
	render := func(withWall bool) string {
		var b strings.Builder
		if err := Render(&b, Config{Quick: true}, rows, withWall); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	doc, withWall := render(false), render(true)
	for _, want := range []string{
		"Scale: quick, 2 data orders per quality point, seed 1. 1 of 2 claims reproduced.",
		"| `x.a` | Fig. 1 | c | \\|A\\| > 1 | 2 | reproduced |\n",
		"| `x.b` | Fig. 2 | d | p | 0 | **not reproduced** |\n",
		"## Deviations",
	} {
		if !strings.Contains(doc, want) {
			t.Errorf("rendering missing %q:\n%s", want, doc)
		}
	}
	if strings.Contains(doc, "COL 1ms") || !strings.Contains(withWall, "| reproduced | COL 1ms |\n") {
		t.Errorf("the wall column must appear only when asked for:\n%s\n%s", doc, withWall)
	}
}

func TestROCPerfectRanking(t *testing.T) {
	// A ranking that puts all positives first has AUROC 1.
	points := roc([]string{"a", "b", "c", "d", "e"}, map[string]bool{"a": true, "b": true})
	if a := auroc(points); math.Abs(a-1) > 1e-9 {
		t.Errorf("perfect AUROC = %g, want 1", a)
	}
	if first, last := points[0], points[len(points)-1]; first.TPR != 0 || first.FPR != 0 || last.TPR != 1 || last.FPR != 1 {
		t.Errorf("ROC must run from the origin to (1,1): %+v … %+v", first, last)
	}
}

func TestROCWorstRanking(t *testing.T) {
	if a := auroc(roc([]string{"a", "b", "c", "d", "e"}, map[string]bool{"d": true, "e": true})); a > 1e-9 {
		t.Errorf("worst-case AUROC = %g, want 0", a)
	}
}

func TestROCKnownMidpoint(t *testing.T) {
	// The paper's example: 6 interesting views of 48, the first 3 ranked
	// all interesting, gives TPR 0.5 and FPR 0 at k=3. One positive
	// ranked below one negative costs 1/(6·42) of area.
	ranked := make([]string, 48)
	interesting := map[string]bool{}
	for i := range ranked {
		ranked[i] = string(rune('A' + i))
		if i < 5 || i == 6 {
			interesting[ranked[i]] = true
		}
	}
	points := roc(ranked, interesting)
	if p := points[3]; p.TPR != 0.5 || p.FPR != 0 {
		t.Errorf("k=3: TPR %g, FPR %g, want 0.5 and 0", p.TPR, p.FPR)
	}
	if a, want := auroc(points), 1-1.0/(6*42); math.Abs(a-want) > 1e-9 {
		t.Errorf("AUROC = %g, want %g", a, want)
	}
}

func TestAUROCDegenerate(t *testing.T) {
	if auroc(nil) != 0 || auroc([]rocPoint{{}}) != 0 {
		t.Error("degenerate AUROC should be 0")
	}
	// No positives: TPR stays 0, area 0.
	if auroc(roc([]string{"a", "b"}, map[string]bool{})) != 0 {
		t.Error("no-positive AUROC should be 0")
	}
}
