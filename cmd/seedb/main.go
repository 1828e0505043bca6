// Command seedb is the SeeDB command-line frontend: load a dataset (one
// of the paper's built-ins or a CSV file), issue the analyst's query, and
// receive ranked visualization recommendations as terminal bar charts —
// the CLI equivalent of the paper's mixed-initiative web frontend
// (Figure 2).
//
// Examples:
//
//	# The paper's running example: unmarried vs married adults.
//	seedb -dataset census -target "marital = 'Unmarried'" -k 5
//
//	# Bring your own data.
//	seedb -csv sales.csv -table sales -target "region = 'EMEA'" -k 3
//
//	# Manual (non-recommended) SQL, the other half of the frontend.
//	seedb -dataset census -sql "SELECT sex, AVG(age) FROM census GROUP BY sex"
//
//	# Recommend over a running seedb-server (or several, sharded):
//	seedb -join http://localhost:8080 -table census -target "sex = 'Female'"
//	seedb -join http://h1:8081,http://h2:8082 -table census -target "sex = 'Female'"
package main

import (
	"context"
	"encoding/csv"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"seedb"
	"seedb/internal/backend"
	"seedb/internal/backend/netbe"
	"seedb/internal/backend/shardbe"
	"seedb/internal/core"
	"seedb/internal/dataset"
	"seedb/internal/sqldb"
	"seedb/internal/telemetry"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "seedb:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		dsName    = flag.String("dataset", "", "built-in dataset to load ("+strings.Join(dataset.Names(), ", ")+")")
		rows      = flag.Int("rows", 0, "override generated row count for -dataset")
		csvPath   = flag.String("csv", "", "CSV file to load instead of a built-in dataset")
		tableName = flag.String("table", "", "table name for -csv (default: file name) or -join (required)")
		join      = flag.String("join", "",
			"comma-separated base URLs of running seedb-servers: recommend over their data\n"+
				"via the netbe wire protocol instead of loading locally (one URL = direct\n"+
				"remote backend; several = shard router over remote children)")
		layoutStr = flag.String("layout", "col", "physical layout: row or col")
		target    = flag.String("target", "", "target predicate (the analyst's query), e.g. \"marital = 'Unmarried'\"")
		reference = flag.String("reference", "all", "reference dataset: all, complement, or a SQL predicate")
		k         = flag.Int("k", 5, "number of recommendations")
		strategy  = flag.String("strategy", "comb", "execution strategy: noopt, sharing, comb, combearly")
		pruning   = flag.String("pruning", "ci", "pruning scheme: none, ci, mab")
		distName  = flag.String("distance", "EMD", "distance function: EMD, EUCLIDEAN, KL, JS, MAX_DIFF")
		dims      = flag.String("dimensions", "", "comma-separated dimension attributes (default: derive from metadata)")
		measures  = flag.String("measures", "", "comma-separated measure attributes (default: derive from metadata)")
		sqlQuery  = flag.String("sql", "", "run a manual SQL query instead of recommending")
		shards    = flag.Int("shards", 0, "partition the table across N embedded shards and execute with fan-out + merge (0 = unsharded)")
		showStats = flag.Bool("stats", false, "print execution metrics")
		showTrace = flag.Bool("trace", false, "print the request's span trace tree (where the time went)")
		timeout   = flag.Duration("timeout", 5*time.Minute, "recommendation timeout")
	)
	flag.Parse()

	layout, err := sqldb.ParseLayout(*layoutStr)
	if err != nil {
		return err
	}

	client := seedb.New()
	if *shards > 1 {
		client = seedb.NewSharded(*shards)
	}
	table := ""
	switch {
	case *join != "":
		if *dsName != "" || *csvPath != "" || *shards > 1 {
			return fmt.Errorf("-join reads remote data; it excludes -dataset, -csv, and -shards")
		}
		if *tableName == "" {
			return fmt.Errorf("-join needs -table (the remote table to analyze)")
		}
		be, err := joinBackend(splitList(*join))
		if err != nil {
			return err
		}
		client = seedb.NewWithBackend(be)
		table = *tableName
		ti, err := client.Backend().TableInfo(context.Background(), table)
		if err != nil {
			return err
		}
		fmt.Printf("joined %s: %d rows over %d server(s)\n", table, ti.Rows, len(splitList(*join)))
	case *dsName != "":
		spec, err := dataset.ByName(*dsName)
		if err != nil {
			return err
		}
		n := spec.Rows
		if *rows > 0 {
			n = *rows
		}
		if err := client.LoadDatasetRows(*dsName, layout, n); err != nil {
			return err
		}
		table = spec.Name
		if s := client.Shards(); s > 0 {
			fmt.Printf("loaded dataset %s: %d rows, layout %s, partitioned over %d shards\n", spec.Name, n, layout, s)
		} else {
			fmt.Printf("loaded dataset %s: %d rows, layout %s\n", spec.Name, n, layout)
		}
		if *target == "" && *sqlQuery == "" {
			*target = spec.TargetPredicate()
			fmt.Printf("using the dataset's canonical target predicate: %s\n", *target)
		}
	case *csvPath != "":
		name := *tableName
		if name == "" {
			base := *csvPath
			if i := strings.LastIndexByte(base, '/'); i >= 0 {
				base = base[i+1:]
			}
			name = strings.TrimSuffix(base, ".csv")
		}
		f, err := os.Open(*csvPath)
		if err != nil {
			return err
		}
		defer f.Close()
		schema, err := inferCSVSchema(*csvPath)
		if err != nil {
			return err
		}
		if err := client.LoadCSV(name, schema, layout, f); err != nil {
			return err
		}
		table = name
		// Row counts come through the backend seam so this works for
		// sharded clients (which have no single embedded database) too.
		ti, err := client.Backend().TableInfo(context.Background(), name)
		if err != nil {
			return err
		}
		if s := client.Shards(); s > 0 {
			fmt.Printf("loaded %s: %d rows, layout %s, partitioned over %d shards\n", name, ti.Rows, layout, s)
		} else {
			fmt.Printf("loaded %s: %d rows, layout %s\n", name, ti.Rows, layout)
		}
	default:
		flag.Usage()
		return fmt.Errorf("need -dataset or -csv")
	}

	if *sqlQuery != "" {
		res, err := client.Query(*sqlQuery)
		if err != nil {
			return err
		}
		printSQLResult(res)
		return nil
	}
	if *target == "" {
		return fmt.Errorf("need -target predicate for recommendations")
	}

	// The flags fill in the one textual request schema; Resolve owns the
	// names and their defaults. A one-shot process has no second request
	// to share results with, so the cache stays off.
	noCache := false
	rr := core.RecommendRequest{
		Table:       table,
		TargetWhere: *target,
		Reference:   *reference,
		K:           *k,
		Strategy:    *strategy,
		Pruning:     *pruning,
		Distance:    *distName,
		Dimensions:  splitList(*dims),
		Measures:    splitList(*measures),
		Cache:       &noCache,
	}
	if _, err := core.ParseRefMode(*reference); *reference != "" && err != nil {
		// Anything that is not a reference mode's name is a predicate.
		rr.Reference, rr.ReferenceWhere = core.RefCustom.String(), *reference
	}
	req, opts, err := rr.Resolve()
	if err != nil {
		return err
	}
	refLabel := "reference: entire table"
	switch req.Reference {
	case core.RefComplement:
		refLabel = "reference: complement of target"
	case core.RefCustom:
		refLabel = "reference: " + req.ReferenceWhere
	}

	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()
	var tr *telemetry.Trace
	if *showTrace {
		ctx, tr = telemetry.WithTrace(ctx, "request")
	}
	res, err := client.Recommend(ctx, req, opts)
	if err != nil {
		return err
	}

	fmt.Printf("\ntarget: %s   (%s)\n", *target, refLabel)
	fmt.Printf("top-%d recommended visualizations (%s, %s pruning, %s):\n\n",
		len(res.Recommendations), opts.Strategy, opts.Pruning, opts.Distance)
	for i, rec := range res.Recommendations {
		fmt.Printf("#%d  %s", i+1, seedb.RenderChartLabeled(rec, "target", "reference"))
		fmt.Println()
	}
	if *showStats {
		m := res.Metrics
		fmt.Printf("metrics: %d views, %d queries, %d rows scanned, %d phases, %d pruned, early=%v, %v\n",
			m.Views, m.QueriesExecuted, m.RowsScanned, m.PhasesRun, m.PrunedViews, m.EarlyStopped, m.Elapsed.Round(time.Millisecond))
		if m.ShardQueries > 0 {
			fmt.Printf("sharding: %d queries fanned out (%d child executions, straggler %v)\n",
				m.ShardQueries, m.ShardFanout, m.ShardStragglerMax.Round(time.Microsecond))
		}
	}
	if tr != nil {
		// Remote subtrees (netbe children behind -join) render with a
		// "»" marker and a process attribute naming the child.
		fmt.Printf("\ntrace %s:\n%s", tr.ID(), tr.Finish().Render())
	}
	return nil
}

// joinBackend connects to one or more remote seedb-servers: a single
// URL becomes a direct netbe backend, several become a shard router
// whose children are netbe clients (the cross-process deployment).
func joinBackend(urls []string) (backend.Backend, error) {
	if len(urls) == 0 {
		return nil, fmt.Errorf("-join lists no URLs")
	}
	children := make([]backend.Backend, len(urls))
	for i, u := range urls {
		c, err := netbe.New(context.Background(), u, netbe.Options{})
		if err != nil {
			return nil, fmt.Errorf("joining %s: %w", u, err)
		}
		children[i] = c
	}
	if len(children) == 1 {
		return children[0], nil
	}
	return shardbe.New(children, shardbe.Options{})
}

// splitList splits a comma-separated flag value.
func splitList(s string) []string {
	parts := strings.Split(s, ",")
	out := parts[:0]
	for _, p := range parts {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

// inferCSVSchema reads the CSV header and first data row to guess column
// types: numeric fields become FLOAT, everything else TEXT.
func inferCSVSchema(path string) (*seedb.Schema, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	r := csv.NewReader(f)
	header, err := r.Read()
	if err != nil {
		return nil, fmt.Errorf("reading CSV header: %w", err)
	}
	sample, err := r.Read()
	if err != nil {
		sample = nil // empty file: default everything to TEXT
	}
	cols := make([]seedb.Column, len(header))
	for i, h := range header {
		typ := sqldb.TypeString
		if sample != nil && i < len(sample) && looksNumeric(sample[i]) {
			typ = sqldb.TypeFloat
		}
		cols[i] = seedb.Column{Name: h, Type: typ}
	}
	return seedb.NewSchema(cols...)
}

// looksNumeric reports whether a CSV field parses as a float.
func looksNumeric(s string) bool {
	if s == "" {
		return false
	}
	var f float64
	_, err := fmt.Sscanf(s, "%g", &f)
	return err == nil
}

// printSQLResult renders a raw query result as an aligned table.
func printSQLResult(res *seedb.SQLResult) {
	widths := make([]int, len(res.Columns))
	for i, c := range res.Columns {
		widths[i] = len(c)
	}
	cells := make([][]string, len(res.Rows))
	for r, row := range res.Rows {
		cells[r] = make([]string, len(row))
		for i, v := range row {
			cells[r][i] = v.String()
			if len(cells[r][i]) > widths[i] {
				widths[i] = len(cells[r][i])
			}
		}
	}
	for i, c := range res.Columns {
		if i > 0 {
			fmt.Print("  ")
		}
		fmt.Printf("%-*s", widths[i], c)
	}
	fmt.Println()
	for _, row := range cells {
		for i, c := range row {
			if i > 0 {
				fmt.Print("  ")
			}
			fmt.Printf("%-*s", widths[i], c)
		}
		fmt.Println()
	}
	fmt.Printf("(%d rows)\n", len(res.Rows))
}
