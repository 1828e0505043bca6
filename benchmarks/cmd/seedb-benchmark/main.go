// Command seedb-benchmark is the repository's one benchmark: four named
// workloads served by an in-process seedb server and driven over
// loopback HTTP, with end-to-end metrics from an untraced run and a
// per-layer breakdown from a separate traced run. See ../../README.md.
//
//	seedb-benchmark -seed 1                      every workload, both runs, one ledger record each
//	seedb-benchmark -workload cold_scan -seed 3 -seconds 10 -trace 0
//	                                             one run; last stdout line is the driver's JSON
//	seedb-benchmark -selfcheck                   two sets of runs of this binary must agree
//	seedb-benchmark -compare a.jsonl b.jsonl     side-by-side report of two record sets
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"seedb/benchmarks/harness"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "seedb-benchmark:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		dir       = flag.String("dir", ".", "the benchmarks directory: ledger.jsonl and out/ live under it")
		workload  = flag.String("workload", "", "run this one workload and print the driver's JSON line (empty = all workloads, both runs)")
		seed      = flag.Int64("seed", 1, "seed for the table and every request")
		seconds   = flag.Int("seconds", 0, "measured window in seconds (0 = the profile's: 10, or 2 with -quick)")
		trace     = flag.Int("trace", 0, "with -workload: 0 = untraced run, end-to-end metrics; 1 = traced run, per-layer metrics")
		quick     = flag.Bool("quick", false, "smoke profile: 50k-row tables, 2 s windows, one set-up")
		ledger    = flag.String("ledger", "", "append this run's records here (default with no -workload: <dir>/ledger.jsonl)")
		selfcheck = flag.Bool("selfcheck", false, "run two sets of -runs untraced runs per workload and fail if a gated metric's medians differ by more than its bound")
		runs      = flag.Int("runs", 3, "runs per set for -selfcheck")
		compare   = flag.Bool("compare", false, "compare two record files given as arguments: a.jsonl b.jsonl")
	)
	flag.Parse()
	outDir := filepath.Join(*dir, "out")

	if *compare {
		if flag.NArg() != 2 {
			return fmt.Errorf("-compare wants two record files, got %d arguments", flag.NArg())
		}
		a, err := harness.ReadRecords(flag.Arg(0))
		if err != nil {
			return err
		}
		b, err := harness.ReadRecords(flag.Arg(1))
		if err != nil {
			return err
		}
		if regressed, _ := harness.Compare(os.Stdout, a, b); regressed > 0 {
			return fmt.Errorf("%d metrics regressed beyond their bound", regressed)
		}
		return nil
	}

	if *selfcheck {
		exe, err := os.Executable()
		if err != nil {
			return err
		}
		if *runs < 3 {
			return fmt.Errorf("-selfcheck needs at least 3 runs per set, got %d", *runs)
		}
		ok, recs, err := harness.SelfCheck(os.Stdout, exe, *dir, outDir, *quick, *seconds, *seed, *runs)
		if err != nil {
			return err
		}
		if *ledger != "" {
			if err := harness.AppendRecords(*ledger, recs); err != nil {
				return err
			}
		}
		if !ok {
			return fmt.Errorf("selfcheck failed: two sets of runs of the same binary disagree")
		}
		return nil
	}

	prof := harness.Full
	if *quick {
		prof = harness.Quick
	}
	if *seconds > 0 {
		prof.Window = time.Duration(*seconds) * time.Second
		prof.Warmup = prof.Window / 5
	}

	if *workload != "" {
		w, ok := harness.WorkloadByName(*workload)
		if !ok {
			return fmt.Errorf("unknown workload %q", *workload)
		}
		res, err := harness.Run(w, prof, *seed, *trace == 1, outDir)
		if err != nil {
			return err
		}
		if err := violations(res); err != nil {
			return err
		}
		harness.PrintResult(os.Stderr, res)
		if *ledger != "" && !res.Traced {
			if err := harness.AppendRecords(*ledger, []harness.Record{harness.NewRecord(res, nil, harness.GitSHA(*dir))}); err != nil {
				return err
			}
		}
		return json.NewEncoder(os.Stdout).Encode(map[string]any{
			"correct":   true,
			"attempted": res.Attempted,
			"failed":    res.Failed,
			"metrics":   harness.DriverMetrics(res),
		})
	}

	if *ledger == "" {
		*ledger = filepath.Join(*dir, "ledger.jsonl")
	}
	sha := harness.GitSHA(*dir)
	var recs []harness.Record
	for _, w := range harness.Workloads {
		untraced, err := harness.Run(w, prof, *seed, false, outDir)
		if err != nil {
			return err
		}
		if err := violations(untraced); err != nil {
			return err
		}
		traced, err := harness.Run(w, prof, *seed, true, outDir)
		if err != nil {
			return err
		}
		if err := violations(traced); err != nil {
			return err
		}
		recs = append(recs, harness.NewRecord(untraced, traced, sha))
		harness.PrintResult(os.Stdout, untraced)
		harness.PrintResult(os.Stdout, traced)
		fmt.Println()
	}
	harness.PrintShares(os.Stdout, recs)
	if err := harness.AppendRecords(*ledger, recs); err != nil {
		return err
	}
	fmt.Printf("correctness check passed on %d workloads; %d records appended to %s (claim: null)\n", len(recs), len(recs), *ledger)
	return nil
}

// violations turns a run's failed checks into the error that ends the
// process: an incorrect run prints no metrics.
func violations(r *harness.Result) error {
	if len(r.Violations) == 0 {
		return nil
	}
	for _, v := range r.Violations {
		fmt.Fprintf(os.Stderr, "seedb-benchmark: %s: violation: %s\n", r.Workload, v)
	}
	return fmt.Errorf("%s: %d correctness or validity checks failed; no metrics reported", r.Workload, len(r.Violations))
}
