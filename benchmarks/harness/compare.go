package harness

import (
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"text/tabwriter"
)

// quartiles returns the first quartile, median and third quartile as
// Python's statistics.quantiles(v, n=4) computes them (the exclusive
// method), which is what the contract's driver uses for its spreads. A
// single value is its own quartiles.
func quartiles(v []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n == 1 {
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// Verdicts of one compared metric.
const (
	VerdictOK         = "ok"
	VerdictRegressed  = "REGRESSED"
	VerdictUnresolved = "unresolved" // run-to-run spread exceeds the bound, so no call is made
	VerdictUngated    = "ungated"
)

// Compare prints one row per workload × end-to-end metric found in the
// two record sets — each side's median and quartiles, the ratio b/a with
// a's median as its base, and a verdict against the metric's bound — and
// returns how many metrics regressed and how many were unresolved.
func Compare(w io.Writer, a, b []Record) (regressed, unresolved int) {
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\ta median [q1, q3] (n)\tb median [q1, q3] (n)\tb/a (base a)\tbound\tverdict")
	values := func(recs []Record, workload, metric string) []float64 {
		var out []float64
		for _, r := range recs {
			if v, ok := r.Metrics[metric]; ok && r.Workload == workload {
				out = append(out, v)
			}
		}
		return out
	}
	for _, wl := range Workloads {
		for _, def := range Catalogue {
			if def.Kind != KindE2E {
				continue
			}
			va, vb := values(a, wl.Name, def.Name), values(b, wl.Name, def.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			a1, am, a3 := quartiles(va)
			b1, bm, b3 := quartiles(vb)
			ratio, boundText, verdict := "n/a", "-", VerdictUngated
			if am != 0 {
				ratio = strconv.FormatFloat(bm/am, 'f', 3, 64)
			}
			if bound, gated := Bounds[wl.Name][def.Name]; gated && am != 0 && bm != 0 {
				boundText = fmt.Sprintf("%.0f%%", bound*100)
				worse := (bm - am) / am
				if def.Better == "higher" {
					worse = -worse
				}
				switch {
				case (a3-a1)/am > bound || (b3-b1)/bm > bound:
					verdict = VerdictUnresolved
					unresolved++
				case worse > bound:
					verdict = VerdictRegressed
					regressed++
				default:
					verdict = VerdictOK
				}
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.5g [%.5g, %.5g] (%d)\t%.5g [%.5g, %.5g] (%d)\t%s\t%s\t%s\n",
				wl.Name, def.Name, def.Unit, am, a1, a3, len(va), bm, b1, b3, len(vb), ratio, boundText, verdict)
		}
	}
	tw.Flush()
	return regressed, unresolved
}

// SelfCheck runs the same binary in two sets of `runs` untraced runs per
// workload (seeds seed, seed+1, ... in both sets), compares the sets with
// Compare, and reports whether every gated metric's medians agree within
// its bound. Each run is its own process, so runs do not share a heap.
// The sets' records are left in outDir/selfcheck-{a,b}.jsonl and
// returned for the ledger.
func SelfCheck(w io.Writer, exe, dir, outDir string, quick bool, seconds int, seed int64, runs int) (ok bool, recs []Record, err error) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return false, nil, err
	}
	var sets [2][]Record
	for s, name := range []string{"a", "b"} {
		path := filepath.Join(outDir, "selfcheck-"+name+".jsonl")
		if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
			return false, nil, err
		}
		for r := 0; r < runs; r++ {
			for _, wl := range Workloads {
				args := []string{"-dir", dir, "-workload", wl.Name, "-seed", strconv.FormatInt(seed+int64(r), 10),
					"-trace", "0", "-ledger", path}
				if quick {
					args = append(args, "-quick")
				}
				if seconds > 0 {
					args = append(args, "-seconds", strconv.Itoa(seconds))
				}
				fmt.Fprintf(w, "selfcheck: set %s run %d/%d %s\n", name, r+1, runs, wl.Name)
				cmd := exec.Command(exe, args...)
				cmd.Stderr = os.Stderr
				if err := cmd.Run(); err != nil {
					return false, nil, fmt.Errorf("selfcheck run (%s, seed %d): %w", wl.Name, seed+int64(r), err)
				}
			}
		}
		if sets[s], err = ReadRecords(path); err != nil {
			return false, nil, err
		}
	}
	regressed, unresolved := Compare(w, sets[0], sets[1])
	fmt.Fprintf(w, "selfcheck: %d regressed, %d unresolved of the gated metrics\n", regressed, unresolved)
	return regressed == 0 && unresolved == 0, append(sets[0], sets[1]...), nil
}
