// Command seedb-server runs the SeeDB middleware as an HTTP service —
// the server half of the paper's client/server architecture (Figure 3).
// Any HTTP client plays the role of the SeeDB frontend.
//
//	seedb-server -listen :8080 -dataset census
//	seedb-server -dataset census -shards 4   # partitioned fan-out execution
//	seedb-server -dataset census -pprof -slowlog - -slow-query 250ms
//
// Cross-process sharding splits the same deployment over several
// machines: child servers each hold one contiguous partition, and a
// router server reaches them over the netbe wire protocol:
//
//	seedb-server -listen :8081 -dataset census -partition 0/2   # child 0
//	seedb-server -listen :8082 -dataset census -partition 1/2   # child 1
//	seedb-server -listen :8080 -children http://localhost:8081,http://localhost:8082
//
// Observability: GET /metrics serves Prometheus text-format counters and
// latency histograms; -slowlog writes JSON-lines slow-query entries (to
// a file, or stderr with "-"); -pprof mounts net/http/pprof under
// /debug/pprof/. See docs/OBSERVABILITY.md.
//
//	curl localhost:8080/api/datasets
//	curl -X POST localhost:8080/api/recommend -d '{
//	  "table": "census",
//	  "target_where": "marital = '\''Unmarried'\''",
//	  "reference": "complement",
//	  "k": 3
//	}'
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"seedb/internal/backend"
	"seedb/internal/backend/netbe"
	"seedb/internal/backend/shardbe"
	"seedb/internal/backend/sqlbe"
	"seedb/internal/dataset"
	"seedb/internal/resilience"
	"seedb/internal/server"
	"seedb/internal/sqldb"
	"seedb/internal/sqldriver"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "seedb-server:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		listen      = flag.String("listen", ":8080", "listen address")
		preload     = flag.String("dataset", "", "comma-separated built-in datasets to preload")
		layoutStr   = flag.String("layout", "col", "physical layout for preloaded datasets")
		rows        = flag.Int("rows", 0, "row override for preloaded datasets (0 = defaults)")
		cacheBudget = flag.Int64("cachebudget", 0, "result cache byte budget (0 = 64MiB default)")
		shards      = flag.Int("shards", 0,
			"also register a \"shard\" backend: a shard router over N embedded children\n"+
				"holding partitions of every loaded table (select per request with {\"backend\": \"shard\"})")
		children = flag.String("children", "",
			"comma-separated base URLs of child seedb-servers: registers the \"shard\"\n"+
				"backend as a router fanning out to them over the netbe wire protocol\n"+
				"(mutually exclusive with -shards)")
		partition = flag.String("partition", "",
			"keep only the i-th of n contiguous blocks of each preloaded dataset (\"i/n\",\n"+
				"0-based) — run one child server per partition behind a -children router")
		sqlBackend = flag.Bool("sql-backend", false,
			"also register a \"sql\" backend that reaches the store through database/sql\n"+
				"(the external-backend path; select per request with {\"backend\": \"sql\"})")
		pprofOn  = flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/ (off by default: exposes heap contents)")
		slowLog  = flag.String("slowlog", "", "write JSON-lines slow-query log entries to this file (\"-\" = stderr)")
		slowThr  = flag.Duration("slow-query", 0, "slow-query log threshold (0 = 100ms default; needs -slowlog)")
		breakers = flag.Bool("breakers", false,
			"per-child circuit breakers on the shard router: repeatedly failing children\n"+
				"are evicted and probed for recovery; requests opt into results over the\n"+
				"surviving shards with {\"allow_partial\": true}")
		maxInflight = flag.Int("max-inflight", 0,
			"bound concurrently executing query requests; overload waits -queue-wait for\n"+
				"a slot, then is shed with 503 (queue overflow refuses with 429). 0 = unlimited")
		queueWait = flag.Duration("queue-wait", 100*time.Millisecond,
			"how long an over-limit request may queue for an execution slot (needs -max-inflight)")
		drainTimeout = flag.Duration("drain-timeout", 10*time.Second,
			"how long in-flight requests get to complete after SIGINT/SIGTERM before the\n"+
				"server exits anyway (0 = wait forever)")
		traceSample = flag.Float64("trace-sample", 0,
			"probabilistic head sampling: trace this fraction of recommendation requests\n"+
				"(0..1) and retain the trees in the trace store for GET /api/traces;\n"+
				"an explicit {\"trace\": true} always traces regardless")
	)
	flag.Parse()

	layout, err := sqldb.ParseLayout(*layoutStr)
	if err != nil {
		return err
	}
	db := sqldb.NewDB()
	if *preload != "" {
		for _, name := range strings.Split(*preload, ",") {
			name = strings.TrimSpace(name)
			if name == "" {
				continue
			}
			spec, err := dataset.ByName(name)
			if err != nil {
				return err
			}
			if *rows > 0 {
				spec = spec.WithRows(*rows)
			}
			if _, err := dataset.Build(db, spec, layout); err != nil {
				return err
			}
			fmt.Printf("loaded %s: %d rows (%s)\n", spec.Name, spec.Rows, layout)
		}
	}

	if *partition != "" {
		var err error
		if db, err = keepPartition(db, *partition); err != nil {
			return err
		}
	}

	srv := server.NewWithCacheBudget(db, *cacheBudget)
	if *pprofOn {
		srv.EnablePprof()
		fmt.Println("pprof profiling endpoints mounted under /debug/pprof/")
	}
	if *slowLog != "" {
		w := io.Writer(os.Stderr)
		if *slowLog != "-" {
			f, err := os.OpenFile(*slowLog, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
			if err != nil {
				return err
			}
			defer f.Close()
			w = f
		}
		srv.SetSlowQueryLog(w, *slowThr)
		fmt.Printf("slow-query log -> %s (threshold %v)\n", *slowLog, srv.Telemetry().SlowLog.Threshold())
	}
	if *children != "" {
		if *shards > 0 {
			return fmt.Errorf("-children and -shards both register the %q backend; pick one", server.ShardBackendName)
		}
		urls := splitList(*children)
		if len(urls) == 0 {
			return fmt.Errorf("-children lists no URLs")
		}
		bes := make([]backend.Backend, len(urls))
		for i, u := range urls {
			c, err := netbe.New(context.Background(), u, netbe.Options{})
			if err != nil {
				return err
			}
			bes[i] = c
		}
		router, err := shardbe.New(bes, shardbe.Options{
			Telemetry: srv.Telemetry(),
			Breakers:  breakerOptions(*breakers),
		})
		if err != nil {
			return err
		}
		if err := srv.RegisterBackend(server.ShardBackendName, router); err != nil {
			return err
		}
		fmt.Printf("registered shard router %q over %d remote children\n", server.ShardBackendName, len(urls))
	}
	if *shards > 0 {
		// Partition every loaded table across N embedded children behind
		// the shard router; view queries then fan out per shard and merge
		// decomposed partial aggregation states. Preloaded datasets are
		// scattered immediately, later /api/datasets/load calls re-scatter.
		if err := srv.EnableShardingOpts(*shards, shardbe.Options{Breakers: breakerOptions(*breakers)}, nil); err != nil {
			return err
		}
		fmt.Printf("registered shard router %q over %d embedded children\n", server.ShardBackendName, *shards)
	}
	if *sqlBackend {
		// Wire the same data through database/sql (the sqldriver shim), so
		// the full external-store execution path — SQL text, driver-value
		// conversion, capability degradation — is exercisable end to end.
		// A real deployment would hand sqlbe.New a postgres/mysql handle
		// instead; see docs/BACKENDS.md. The embedded catalog doubles as
		// the version watermark, so cache invalidation stays automatic
		// even through the database/sql path.
		be := sqlbe.New(sqldriver.Open(db), sqlbe.Options{Version: db.TableVersion})
		if err := srv.RegisterBackend("sql", be); err != nil {
			return err
		}
		fmt.Println(`registered database/sql backend "sql"`)
	}
	if *maxInflight > 0 {
		srv.SetAdmission(*maxInflight, *queueWait)
		fmt.Printf("admission control: %d in-flight queries, %v queue wait\n", *maxInflight, *queueWait)
	}
	if *traceSample > 0 {
		srv.SetTraceSampling(*traceSample)
		fmt.Printf("trace sampling: %.4g of requests retained (GET /api/traces)\n", *traceSample)
	}

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		return err
	}
	fmt.Printf("SeeDB middleware listening on %s\n", ln.Addr())
	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigCh)
	return serveWithDrain(&http.Server{Handler: srv}, ln, *drainTimeout, sigCh, os.Stdout)
}

// breakerOptions maps the -breakers flag to router options (nil = off;
// the zero BreakerOptions selects the package defaults).
func breakerOptions(on bool) *resilience.BreakerOptions {
	if !on {
		return nil
	}
	return &resilience.BreakerOptions{}
}

// serveWithDrain serves hs on ln until a signal arrives, then drains:
// the listener closes (new connections are refused), in-flight requests
// get up to drainTimeout to complete, and only then does the process
// exit — a deploy's SIGTERM never truncates running recommendations.
// The slow-query log file (if any) is closed by run's defer after the
// drain completes, so every entry from draining requests is flushed.
func serveWithDrain(hs *http.Server, ln net.Listener, drainTimeout time.Duration, sigCh <-chan os.Signal, out io.Writer) error {
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()
	select {
	case err := <-serveErr:
		return err // listener failed before any signal
	case sig := <-sigCh:
		fmt.Fprintf(out, "received %v; draining in-flight requests (timeout %v)\n", sig, drainTimeout)
		ctx := context.Background()
		if drainTimeout > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, drainTimeout)
			defer cancel()
		}
		err := hs.Shutdown(ctx)
		<-serveErr // Serve has returned http.ErrServerClosed
		if err != nil {
			return fmt.Errorf("drain: %w", err)
		}
		fmt.Fprintln(out, "drained clean")
		return nil
	}
}

// keepPartition replaces the loaded database with just the i-th of n
// contiguous blocks of every table — the child server's share when a
// dataset is split across a fleet. Splitting with the same block
// partitioner the in-process router uses means a -children router over
// the fleet presents the original global row order. The block is copied
// out of its view into a table of its own, which holds only the share
// and takes /api/ingest appends.
func keepPartition(src *sqldb.DB, spec string) (*sqldb.DB, error) {
	// Exactly two base-10 integers around one slash: trailing input
	// ("1/2/3", "0/2x") is a typo that would serve the wrong block.
	is, ns, _ := strings.Cut(spec, "/")
	idx, ierr := strconv.Atoi(is)
	n, nerr := strconv.Atoi(ns)
	if ierr != nil || nerr != nil || n < 1 || idx < 0 || idx >= n {
		return nil, fmt.Errorf("bad -partition %q (want \"i/n\" with 0 <= i < n)", spec)
	}
	parts, _ := shardbe.EmbeddedChildren(n)
	kept := sqldb.NewDB()
	for _, name := range src.TableNames() {
		t, ok := src.Table(name)
		if !ok {
			continue
		}
		if err := shardbe.ScatterTable(src, name, parts, shardbe.Blocks{Total: t.NumRows()}); err != nil {
			return nil, err
		}
		view, _ := parts[idx].Table(name)
		var rows [][]sqldb.Value
		width := t.Schema().NumColumns()
		if err := view.ScanRange(0, view.NumRows(), nil, func(rv sqldb.RowView) error {
			row := make([]sqldb.Value, width)
			for c := range row {
				row[c] = rv.Value(c)
			}
			rows = append(rows, row)
			return nil
		}); err != nil {
			return nil, err
		}
		own, err := kept.CreateTable(t.Name(), t.Schema(), t.Layout())
		if err != nil {
			return nil, err
		}
		if err := own.Append(rows); err != nil {
			return nil, err
		}
		fmt.Printf("partition %d/%d of %s: %d rows\n", idx, n, name, own.NumRows())
	}
	return kept, nil
}

// splitList splits a comma-separated flag value, dropping empties.
func splitList(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}
