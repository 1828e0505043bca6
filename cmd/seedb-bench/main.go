// Command seedb-bench prints the reproduction scorecard: every claim of
// the SeeDB paper's evaluation, checked against this repository, with
// the wall times behind each measurement. docs/REPRODUCTION.md is the
// same scorecard at -quick scale without the wall times.
//
// Examples:
//
//	seedb-bench                      # every experiment at default (laptop) scale
//	seedb-bench -quick               # the scale docs/REPRODUCTION.md is rendered at
//	seedb-bench -exp fig5,fig13      # some experiments
//	seedb-bench -paperscale -o FILE  # Table 1 dataset sizes (hours); keep the output
//	seedb-bench -list                # list experiment ids
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
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
		expIDs     = flag.String("exp", "", "comma-separated experiment ids (see -list); default all")
		list       = flag.Bool("list", false, "list experiments")
		quick      = flag.Bool("quick", false, "reduced datasets and sweeps")
		paperScale = flag.Bool("paperscale", false, "use Table 1 dataset sizes (very slow)")
		runs       = flag.Int("runs", 0, "data orders per pruning-quality point (default 5, quick 2; paper uses 20)")
		seed       = flag.Int64("seed", 1, "base random seed")
		outPath    = flag.String("o", "", "also write the scorecard to this file")
		timeout    = flag.Duration("timeout", 4*time.Hour, "overall timeout")
	)
	flag.Parse()

	if *list {
		for _, e := range bench.All() {
			fmt.Printf("%-10s %s\n", e.ID, e.Name)
		}
		return nil
	}

	experiments := bench.All()
	if *expIDs != "" {
		experiments = nil
		for _, id := range strings.Split(*expIDs, ",") {
			e, err := bench.ByID(strings.TrimSpace(id))
			if err != nil {
				return err
			}
			experiments = append(experiments, e)
		}
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
	cfg := bench.Config{Quick: *quick, PaperScale: *paperScale, Runs: *runs, Seed: *seed}
	rows, err := bench.Run(ctx, cfg, experiments)
	if err != nil {
		return err
	}
	return bench.Render(out, cfg, rows, true)
}
