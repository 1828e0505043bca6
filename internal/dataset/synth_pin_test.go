package dataset

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"seedb/internal/sqldb"
)

// mixedNamesSpec exercises every way a categorical cell gets its name:
// explicit Values, synthesized zero-padded names, a hierarchy level
// whose Values cover only its first indices, and NULLs on each.
func mixedNamesSpec() SynthSpec {
	return SynthSpec{
		Name: "mixed",
		Rows: 20_000,
		Seed: 7,
		Columns: []SynthColumn{
			{Name: "tier", Type: "string", Dist: DistWeighted,
				Values:   []string{"gold", "silver", "bronze"},
				Weights:  []float64{0.2, 0.3, 0.5},
				NullRate: 0.05},
			{Name: "zone", Type: "string", Parent: "tier", Fanout: 5,
				Values: []string{"north", "south"}, NullRate: 0.1},
			{Name: "sku", Type: "string", Dist: DistZipf, Cardinality: 150, NullRate: 0.02},
			{Name: "amount", Type: "float", Dist: DistUniform, Min: 0, Max: 10, Quantum: 0.25, NullRate: 0.03},
		},
	}
}

// genFingerprint hashes the first n rows a generator emits, every
// value's kind and payload included.
func genFingerprint(t *testing.T, spec SynthSpec, n int) uint64 {
	t.Helper()
	g, err := NewRowGen(spec, 0)
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	var buf [17]byte
	for r := 0; r < n; r++ {
		for _, v := range g.Next() {
			buf[0] = byte(v.Kind)
			binary.LittleEndian.PutUint64(buf[1:9], uint64(v.I))
			binary.LittleEndian.PutUint64(buf[9:17], math.Float64bits(v.F))
			h.Write(buf[:])
			h.Write([]byte(v.S))
			h.Write([]byte{0})
		}
	}
	return h.Sum64()
}

// TestSynthOutputPinned pins what the generator emits, not just that two
// generators agree: every table the reproduction and the benchmarks
// build comes from it, so a change here moves their inputs.
func TestSynthOutputPinned(t *testing.T) {
	for _, tc := range []struct {
		spec SynthSpec
		want uint64
	}{
		{TrafficSpec(), 0x18448d64afc67214},
		{mixedNamesSpec(), 0x12e0398b3ff34138},
	} {
		if got := genFingerprint(t, tc.spec, 20_000); got != tc.want {
			t.Errorf("%s: first 20000 rows hash to %#x, want %#x", tc.spec.Name, got, tc.want)
		}
	}
}

// BenchmarkBuildSynth builds the 100k-row traffic table, the set-up
// every benchmark workload pays before its first request.
func BenchmarkBuildSynth(b *testing.B) {
	spec := TrafficSpec()
	for i := 0; i < b.N; i++ {
		if _, err := BuildSynth(sqldb.NewDB(), spec, sqldb.LayoutCol); err != nil {
			b.Fatal(err)
		}
	}
}

// TestSynthNamesMatchValueName holds every categorical cell to
// ValueName of the index the generator drew, for a column served from
// its name table and for one too wide to have one.
func TestSynthNamesMatchValueName(t *testing.T) {
	spec := mixedNamesSpec()
	spec.Columns = append(spec.Columns,
		SynthColumn{Name: "wide", Type: "string", Cardinality: 2 * maxNameTable})
	g, err := NewRowGen(spec, 0)
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 2000; r++ {
		row := g.Next()
		for i, c := range spec.Columns {
			if !c.categorical() || row[i].IsNull() {
				continue
			}
			if want := spec.ValueName(c.Name, g.st.catIdx[i]); row[i].S != want {
				t.Fatalf("row %d column %s: %q, want %q", r, c.Name, row[i].S, want)
			}
		}
	}
}
