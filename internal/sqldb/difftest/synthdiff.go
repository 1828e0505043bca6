package difftest

// Synthetic-spec harness: the same differential oracle, but with the
// table generated by dataset.SynthSpec/RowGen — the production datagen
// path — instead of the handwritten loop in New. This closes the loop
// between the load harness's data generator and the executor oracle:
// every distribution feature the generator offers (Zipf and weighted
// categoricals, a region→city-style hierarchy, a numerically correlated
// measure pair, per-column NULL rates) flows through the full query
// grammar, and the column store at Workers=1 and N, unsharded and
// sharded, must be bit-exact against the row interpreter over a
// row-layout twin generated from the same seed.
//
// The spec keeps the float columns on the exact-summation grid the
// package doc describes (multiples of 0.25, bounded magnitude, enforced
// by Quantum + Min/Max), so reassociation across chunk and shard
// boundaries cannot introduce ulp noise and exact comparison remains a
// legitimate oracle. Value names are chosen to collide with the
// generator's predicate literals ('d0_01', 'd2_17', 's15', ...), so
// selective — not just empty — WHERE clauses occur.

import (
	"fmt"
	"math/rand"

	"seedb/internal/dataset"
	"seedb/internal/sqldb"
)

// synthTableSpec mirrors the handwritten harness table "t" as a
// SynthSpec, with every generator feature engaged.
func synthTableSpec() dataset.SynthSpec {
	names := func(prefix string, n int) []string {
		out := make([]string, n)
		for i := range out {
			out[i] = fmt.Sprintf("%s%02d", prefix, i)
		}
		return out
	}
	return dataset.SynthSpec{
		Name: "t",
		Rows: 2500,
		Columns: []dataset.SynthColumn{
			{Name: "d0", Type: "string", Dist: dataset.DistZipf, ZipfS: 1.3,
				Values: names("d0_", 3), NullRate: 0.10},
			{Name: "d1", Type: "string", Dist: dataset.DistWeighted,
				Values:   names("d1_", 8),
				Weights:  []float64{8, 6, 5, 4, 3, 2, 1, 1},
				NullRate: 0.08},
			// Hierarchy child: 3×13 = 39 cities under the d0 regions;
			// auto-generated names d2_00..d2_38 match the predicate pool.
			{Name: "d2", Type: "string", Parent: "d0", Fanout: 13},
			{Name: "b0", Type: "bool", Dist: dataset.DistWeighted,
				Weights: []float64{0.5}, NullRate: 0.12},
			{Name: "k0", Type: "int", Min: 0, Max: 4},
			{Name: "m0", Type: "float", Min: -500, Max: 500, Quantum: 0.25, NullRate: 0.15},
			// Correlated measure: m1 ≈ 0.5·m0 + noise, same exact grid.
			{Name: "m1", Type: "float", Parent: "m0", Scale: 0.5, StdDev: 120,
				Min: -500, Max: 500, Quantum: 0.25},
			{Name: "m2", Type: "int", Min: -100, Max: 100, NullRate: 0.10},
			{Name: "s0", Type: "string", Values: names("s", 30)},
		},
	}
}

// NewSynth builds a harness whose table comes from the synthetic-spec
// generator (seeded, streamed through BuildSynth once per layout)
// instead of the handwritten loop. The query generator draws from an
// independent stream, so data and queries vary independently with the
// seed.
func NewSynth(seed int64, rows int) (*Harness, error) {
	spec := synthTableSpec().WithRows(rows).WithSeed(seed)
	h := &Harness{
		DB:   sqldb.NewDB(),
		Ref:  sqldb.NewDB(),
		rng:  rand.New(rand.NewSource(seed ^ 0x5eedb)),
		rows: rows,

		groupPool: baseGroupPool,
		intKeys:   map[string]bool{"k0": true, "m2": true},
	}
	if _, err := dataset.BuildSynth(h.DB, spec, sqldb.LayoutCol); err != nil {
		return nil, err
	}
	if _, err := dataset.BuildSynth(h.Ref, spec, sqldb.LayoutRow); err != nil {
		return nil, err
	}
	return h, nil
}
