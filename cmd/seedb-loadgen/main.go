// Command seedb-loadgen replays a mixed, Zipf-skewed workload against a
// seedb-server and reports throughput plus latency percentiles per
// traffic class. It is the standalone face of internal/load: point it at
// a running server with -url, or let it stand one up in-process.
//
// Examples:
//
//	seedb-loadgen                               # self-serve quick run
//	seedb-loadgen -rows 1000000 -users 64 -duration 25s -o load_report.json
//	seedb-loadgen -url http://127.0.0.1:8080    # drive an external server
//	seedb-loadgen -spec spec.json -shards 4     # custom table, sharded self-serve
//
// The target table is pushed via POST /api/datasets/synth when absent
// (a ~1 KB spec ships instead of a CSV; generation streams server-side).
// Exit status is non-zero when the finished report fails its SLO/shape
// gate: any non-2xx response, malformed percentiles, zero throughput,
// or driver/server query accounting that does not match exactly.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"

	"seedb/internal/backend"
	"seedb/internal/backend/faultbe"
	"seedb/internal/backend/shardbe"
	"seedb/internal/dataset"
	"seedb/internal/load"
	"seedb/internal/resilience"
	"seedb/internal/server"
	"seedb/internal/sqldb"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "seedb-loadgen:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout *os.File) error {
	fs := flag.NewFlagSet("seedb-loadgen", flag.ContinueOnError)
	var (
		url         = fs.String("url", "", "target server base URL (empty = serve in-process)")
		specArg     = fs.String("spec", "traffic", "synthetic spec: \"traffic\" or a spec JSON file")
		rows        = fs.Int("rows", 100_000, "rows to load when the table is absent")
		users       = fs.Int("users", 8, "concurrent simulated users")
		duration    = fs.Duration("duration", 5*time.Second, "replay wall-clock budget")
		seed        = fs.Int64("seed", 1, "deterministic replay seed")
		backendName = fs.String("backend", "", "server backend to route reads to (e.g. \"shard\")")
		shards      = fs.Int("shards", 0, "self-serve only: enable embedded sharding with N children")
		mix         = fs.String("mix", "", "traffic mix as recommend,query,ingest weights (e.g. \"0.6,0.35,0.05\"; normalized)")
		tail        = fs.Float64("tail", 0.15, "fraction of recommends that are cache-hostile tail draws")
		k           = fs.Int("k", 3, "recommend top-k")
		out         = fs.String("o", "", "also write the report JSON to this file")
		chaos       = fs.Bool("chaos", false,
			"self-serve only: shard the table, kill one shard child a third of the way\n"+
				"into the run and restore it at two thirds; reads opt into partial results,\n"+
				"and the report gates on zero errors plus observed degraded responses")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *chaos {
		if *url != "" {
			return fmt.Errorf("-chaos only applies to self-serve mode (it needs in-process fault injection)")
		}
		if *shards < 2 {
			*shards = 3
		}
		if *backendName == "" {
			*backendName = server.ShardBackendName
		}
	}

	spec, err := resolveSpec(*specArg)
	if err != nil {
		return err
	}
	spec = spec.WithRows(*rows).WithSeed(*seed)

	ctx := context.Background()
	base := *url
	var srv *server.Server
	if base == "" {
		srv = server.New(sqldb.NewDB())
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		hs := &http.Server{Handler: srv}
		go hs.Serve(ln)
		defer hs.Close()
		base = "http://" + ln.Addr().String()
		fmt.Fprintf(os.Stderr, "seedb-loadgen: serving in-process on %s\n", base)
	} else if *shards > 0 {
		return fmt.Errorf("-shards only applies to self-serve mode; enable sharding on the target server instead")
	}

	cfg := load.Config{
		BaseURL:      base,
		Spec:         spec,
		Users:        *users,
		Duration:     *duration,
		Seed:         *seed,
		Backend:      *backendName,
		TailFraction: *tail,
		K:            *k,
		Chaos:        *chaos,
	}
	if *mix != "" {
		m, err := parseMix(*mix)
		if err != nil {
			return err
		}
		cfg.Mix = m
	}
	fmt.Fprintf(os.Stderr, "seedb-loadgen: loading %s (%d rows) if absent...\n", spec.Name, spec.Rows)
	if err := load.PushSpec(ctx, cfg); err != nil {
		return err
	}
	var fault *faultbe.Fault
	if srv != nil && *shards > 0 {
		// Sharding scatters every loaded table into the children, so it
		// follows the spec push.
		if *chaos {
			// Chaos runs route around the failure with breakers evicting
			// the dead child; tolerance is purely per-request (a chaos
			// run's driver opts every read into partial results), so the
			// run exercises the same opt-in path real clients use.
			opts := shardbe.Options{
				Breakers: &resilience.BreakerOptions{},
			}
			err = srv.EnableShardingOpts(*shards, opts, func(i int, be backend.Backend) backend.Backend {
				if i != 0 {
					return be
				}
				fault = faultbe.Wrap(be)
				return fault
			})
		} else {
			err = srv.EnableSharding(*shards)
		}
		if err != nil {
			return err
		}
	}
	if fault != nil {
		// Outage window: child 0 hard-down for the middle third of the
		// run — long enough to trip the breaker, with recovery observable
		// before the deadline.
		downAt, upAt := *duration/3, 2**duration/3
		go func() {
			time.Sleep(downAt)
			fault.SetDown(backend.ErrUnavailable)
			fmt.Fprintln(os.Stderr, "seedb-loadgen: chaos: shard child 0 down")
			time.Sleep(upAt - downAt)
			fault.SetDown(nil)
			fmt.Fprintln(os.Stderr, "seedb-loadgen: chaos: shard child 0 restored")
		}()
	}
	fmt.Fprintf(os.Stderr, "seedb-loadgen: replaying %d users for %s...\n", *users, *duration)
	rep, err := load.Run(ctx, cfg)
	if err != nil {
		return err
	}

	enc := json.NewEncoder(stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		return err
	}
	if *out != "" {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "seedb-loadgen: wrote %s\n", *out)
	}
	return rep.Validate()
}

// parseMix parses "recommend,query,ingest" weights.
func parseMix(s string) (load.Mix, error) {
	parts := strings.Split(s, ",")
	if len(parts) != 3 {
		return load.Mix{}, fmt.Errorf("-mix wants three comma-separated weights, got %q", s)
	}
	ws := make([]float64, 3)
	for i, p := range parts {
		w, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil || w < 0 {
			return load.Mix{}, fmt.Errorf("-mix weight %q: must be a non-negative number", p)
		}
		ws[i] = w
	}
	if ws[0]+ws[1]+ws[2] <= 0 {
		return load.Mix{}, fmt.Errorf("-mix weights sum to zero")
	}
	return load.Mix{Recommend: ws[0], Query: ws[1], Ingest: ws[2]}, nil
}

// resolveSpec loads the named built-in spec or a spec JSON file.
func resolveSpec(arg string) (dataset.SynthSpec, error) {
	if arg == "traffic" {
		return dataset.TrafficSpec(), nil
	}
	f, err := os.Open(arg)
	if err != nil {
		return dataset.SynthSpec{}, fmt.Errorf("spec %q is not a built-in; opening as file: %w", arg, err)
	}
	defer f.Close()
	return dataset.ParseSynthSpec(f)
}
