// Command seedb-bench drives the experiment harness that regenerates
// every table and figure of the SeeDB paper's evaluation. It prints the
// same rows/series the paper reports, annotated with the paper's expected
// shapes; -o FILE also writes them to a file.
//
// Examples:
//
//	seedb-bench -all                 # full suite at default (laptop) scale
//	seedb-bench -all -o FILE         # ... and keep the tables
//	seedb-bench -all -quick          # CI-friendly reduced scale
//	seedb-bench -exp fig5            # one experiment
//	seedb-bench -all -paperscale     # Table 1 dataset sizes (hours)
//	seedb-bench -list                # list experiment ids
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"seedb/internal/bench"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "seedb-bench:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		all        = flag.Bool("all", false, "run every experiment")
		expID      = flag.String("exp", "", "run one experiment by id (see -list)")
		list       = flag.Bool("list", false, "list experiments")
		quick      = flag.Bool("quick", false, "reduced datasets and sweeps")
		paperScale = flag.Bool("paperscale", false, "use Table 1 dataset sizes (very slow)")
		runs       = flag.Int("runs", 0, "repetitions for quality experiments (default 5; paper uses 20)")
		seed       = flag.Int64("seed", 1, "base random seed")
		outPath    = flag.String("o", "", "also write output to this file")
		timeout    = flag.Duration("timeout", 4*time.Hour, "overall timeout")
	)
	flag.Parse()

	if *list {
		for _, e := range bench.All() {
			fmt.Printf("%-10s %s\n", e.ID, e.Name)
		}
		return nil
	}

	cfg := bench.Config{Quick: *quick, PaperScale: *paperScale, Runs: *runs, Seed: *seed}
	var experiments []bench.Experiment
	switch {
	case *all:
		experiments = bench.All()
	case *expID != "":
		e, err := bench.ByID(*expID)
		if err != nil {
			return err
		}
		experiments = []bench.Experiment{e}
	default:
		flag.Usage()
		return fmt.Errorf("need -all, -exp or -list")
	}

	var out io.Writer = os.Stdout
	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			return err
		}
		defer f.Close()
		out = io.MultiWriter(os.Stdout, f)
	}

	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()

	start := time.Now()
	for _, e := range experiments {
		fmt.Fprintf(out, "### %s — %s\n", e.ID, e.Name)
		expStart := time.Now()
		tables, err := e.Run(ctx, cfg)
		if err != nil {
			return fmt.Errorf("%s: %w", e.ID, err)
		}
		for _, t := range tables {
			fmt.Fprintln(out, t.String())
		}
		fmt.Fprintf(out, "(%s in %v)\n\n", e.ID, time.Since(expStart).Round(time.Millisecond))
	}
	fmt.Fprintf(out, "total: %v\n", time.Since(start).Round(time.Millisecond))
	return nil
}
