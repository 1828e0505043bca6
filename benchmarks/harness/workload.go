// Package harness is the benchmark proper: it generates each workload's
// inputs from a seed, serves them through an in-process server.New on a
// loopback listener, drives that server with closed-loop HTTP clients,
// checks the outputs, and reports end-to-end and per-layer metrics.
package harness

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"time"

	"seedb/internal/dataset"
)

// Workload names.
const (
	ColdScan     = "cold_scan"
	HotDashboard = "hot_dashboard"
	ShardFanout  = "shard_fanout"
	IngestStream = "ingest_stream"
)

const (
	recommendPath = "/api/recommend"
	ingestPath    = "/api/ingest"

	shardChildren = 4   // fixed, whatever nproc is, so hosts compare
	poolSize      = 64  // distinct hot requests; fits the 64 MiB cache many times over
	ingestBatch   = 100 // rows per /api/ingest
	zipfS         = 1.2
	topK          = 5

	// Stream lengths per client. A scan or ingest stream that runs out
	// fails the run (its requests must never repeat); they hold an order
	// of magnitude more than a window consumes today.
	scanStreamLen   = 4096
	ingestStreamLen = 1024
	hotStreamLen    = 1 << 17 // draws; wraps, repeats are the point
)

// Workload is one named traffic mix. Why is the one-line reason it
// exists, repeated in BENCHMARK.json.
type Workload struct {
	Name string
	Why  string
	// Shard routes recommends to the shard router; Ingest interleaves
	// appends with reads; Hot primes a fixed request pool during set-up.
	Shard, Ingest, Hot bool
	// Scan marks the workloads whose requests never repeat and whose
	// table is the large one.
	Scan bool
}

// Workloads is the fixed, ordered workload set.
var Workloads = []Workload{
	{Name: ColdScan, Scan: true,
		Why: "never-repeated range predicates miss every cache, so sqldb scans and core phase/pruning logic do nearly all the work"},
	{Name: HotDashboard, Hot: true,
		Why: "Zipf draws over 64 primed requests are whole-request cache hits, so HTTP, server and cache are the entire cost and sqldb is idle"},
	{Name: ShardFanout, Scan: true, Shard: true,
		Why: "cold_scan's request stream through the 4-child shard router: the same scan work plus fan-out, straggler wait and merge"},
	{Name: IngestStream, Ingest: true,
		Why: "each client alternates a 100-row ingest with a hot recommend, so every read pays invalidation and per-version table statistics"},
}

// WorkloadByName finds a workload.
func WorkloadByName(name string) (Workload, bool) {
	for _, w := range Workloads {
		if w.Name == name {
			return w, true
		}
	}
	return Workload{}, false
}

// Profile sizes a run. The windows and table sizes of Full are what the
// contract's time budget allows (see README, "Sizing"); Quick is for
// smoke runs.
type Profile struct {
	Name string
	// ScanRows sizes the table of the scan workloads, ServeRows that of
	// hot_dashboard and ingest_stream.
	ScanRows, ServeRows int
	Window, Warmup      time.Duration
	// SetupReps is how many times an untraced run sets up; setup_s is the
	// median, and the last set-up serves the window.
	SetupReps int
	// Checks is how many seeded requests the correctness check compares
	// against the exact top-k.
	Checks int
}

var (
	Full  = Profile{Name: "full", ScanRows: 400_000, ServeRows: 100_000, Window: 10 * time.Second, Warmup: 2 * time.Second, SetupReps: 3, Checks: 20}
	Quick = Profile{Name: "quick", ScanRows: 50_000, ServeRows: 50_000, Window: 2 * time.Second, Warmup: 500 * time.Millisecond, SetupReps: 1, Checks: 20}
)

// Rows is the table size the workload runs on under p.
func (w Workload) Rows(p Profile) int {
	if w.Scan {
		return p.ScanRows
	}
	return p.ServeRows
}

// recBody is the /api/recommend payload the benchmark sends. Everything
// left out takes the server's default: COMB + CI pruning, EMD, the full
// view space, the shared cache.
type recBody struct {
	Table       string `json:"table"`
	TargetWhere string `json:"target_where"`
	K           int    `json:"k"`
	Strategy    string `json:"strategy,omitempty"`
	Pruning     string `json:"pruning,omitempty"`
	Cache       *bool  `json:"cache,omitempty"`
	Backend     string `json:"backend,omitempty"`
}

// op is one pre-encoded request.
type op struct {
	path string
	body []byte
}

// plan is everything the server will receive, generated up front from
// the seed.
type plan struct {
	ops     []op
	prime   []int      // ops issued once during set-up
	streams [][]uint32 // per client: indices into ops, in issue order
	wrap    bool       // a stream may restart when exhausted
	checks  []recBody  // distinct requests for the correctness check
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only the benchmark's own plain structs are encoded
	}
	return b
}

func (p *plan) add(path string, body any) uint32 {
	p.ops = append(p.ops, op{path: path, body: mustJSON(body)})
	return uint32(len(p.ops) - 1)
}

// buildPlan generates the workload's requests. backendName is the
// server backend recommends name ("" = the embedded default).
func buildPlan(w Workload, spec dataset.SynthSpec, seed int64, clients, checks int, backendName string) (*plan, error) {
	p := &plan{}
	rec := func(where string, k int) recBody {
		return recBody{Table: spec.Name, TargetWhere: where, K: k, Backend: backendName}
	}
	rng := func(stream int) *rand.Rand { return rand.New(rand.NewSource(seed*1_000_003 + int64(stream))) }

	if w.Scan {
		// price is N(25, 6) quantized to 0.01 and sessions is Zipf on
		// [1, 500]: x in [18, 28) and y in [5, 205) keep every target
		// subset between a few percent and most of the table, and give
		// 200k distinct pairs.
		seen := map[[2]int]bool{}
		for c := 0; c < clients; c++ {
			r := rng(c)
			var stream []uint32
			for len(stream) < scanStreamLen {
				x, y := 1800+r.Intn(1000), 5+r.Intn(200)
				if seen[[2]int{x, y}] {
					continue
				}
				seen[[2]int{x, y}] = true
				b := rec(fmt.Sprintf("price > %d.%02d AND sessions < %d", x/100, x%100, y), topK)
				if c == 0 && len(p.checks) < checks {
					p.checks = append(p.checks, b)
				}
				stream = append(stream, p.add(recommendPath, b))
			}
			p.streams = append(p.streams, stream)
		}
		// One request outside the stream's predicate family warms the
		// per-version table statistics, as any first request would.
		p.prime = []int{int(p.add(recommendPath, rec("active = true", topK)))}
		return p, nil
	}

	// The hot pool: equality predicates on four dimensions × two k
	// values, in a fixed rank order. The seed drives the table and every
	// client's draw sequence, not which request is hottest: a response is
	// 2x larger when its top views group by city than when they group by
	// region, so a seeded ranking made hot_dashboard's cost a property of
	// the seed (27 % spread across seeds against 6 % within one).
	var wheres []string
	for _, col := range []struct {
		name string
		n    int
	}{{"region", 4}, {"plan", 4}, {"device", 12}, {"state", 12}} {
		for i := 0; i < col.n; i++ {
			wheres = append(wheres, fmt.Sprintf("%s = '%s'", col.name, spec.ValueName(col.name, i)))
		}
	}
	var pool []recBody
	for _, where := range wheres {
		pool = append(pool, rec(where, topK), rec(where, 3))
	}
	if len(pool) != poolSize {
		return nil, fmt.Errorf("hot pool has %d requests, want %d", len(pool), poolSize)
	}
	for i, b := range pool {
		p.add(recommendPath, b) // op i is pool rank i
		if i < checks {
			p.checks = append(p.checks, b)
		}
	}

	if w.Hot {
		p.wrap = true
		for i := range pool {
			p.prime = append(p.prime, i)
		}
		for c := 0; c < clients; c++ {
			r := rng(c)
			z := rand.NewZipf(r, zipfS, 1, poolSize-1)
			stream := make([]uint32, hotStreamLen)
			for i := range stream {
				stream[i] = uint32(z.Uint64())
			}
			p.streams = append(p.streams, stream)
		}
		return p, nil
	}

	// ingest_stream: append, then read. Each client generates its own
	// row stream, so no two appends carry the same rows.
	p.prime = []int{0}
	for c := 0; c < clients; c++ {
		r := rng(c)
		z := rand.NewZipf(r, zipfS, 1, poolSize-1)
		gen, err := dataset.NewRowGen(spec, seed*7_000_003+int64(c)+1)
		if err != nil {
			return nil, err
		}
		var stream []uint32
		for i := 0; i < ingestStreamLen; i++ {
			rows := make([][]string, ingestBatch)
			for j := range rows {
				vals := gen.Next()
				cells := make([]string, len(vals))
				for k, v := range vals {
					if !v.IsNull() {
						cells[k] = v.String()
					}
				}
				rows[j] = cells
			}
			body := struct {
				Table string     `json:"table"`
				Rows  [][]string `json:"rows"`
			}{spec.Name, rows}
			stream = append(stream, p.add(ingestPath, body), uint32(z.Uint64()))
		}
		p.streams = append(p.streams, stream)
	}
	return p, nil
}
