package main

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"seedb/internal/dataset"
	"seedb/internal/sqldb"
)

// gen invokes the CLI entry point with -o - and returns the CSV bytes.
func gen(t *testing.T, args ...string) []byte {
	t.Helper()
	var out bytes.Buffer
	if err := run(append(args, "-o", "-"), &out); err != nil {
		t.Fatalf("run(%v): %v", args, err)
	}
	return out.Bytes()
}

// TestGoldenDeterminism pins generated bytes to checked-in golden files:
// the same spec + seed must reproduce the exact same CSV forever. Run
// with UPDATE_GOLDEN=1 after an intentional generator change.
func TestGoldenDeterminism(t *testing.T) {
	update := os.Getenv("UPDATE_GOLDEN") != ""
	cases := []struct {
		golden string
		args   []string
	}{
		{"traffic_seed7_50rows.csv", []string{"-synth", "traffic", "-rows", "50", "-seed", "7"}},
		{"census_seed3_40rows.csv", []string{"-dataset", "census", "-rows", "40", "-seed", "3"}},
	}
	for _, tc := range cases {
		t.Run(tc.golden, func(t *testing.T) {
			got := gen(t, tc.args...)
			path := filepath.Join("testdata", tc.golden)
			if update {
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("reading golden (regenerate with UPDATE_GOLDEN=1): %v", err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("generated CSV drifted from %s (%d vs %d bytes); "+
					"if intentional, regenerate with UPDATE_GOLDEN=1", path, len(got), len(want))
			}
		})
	}
}

// TestSeedFlagChangesOutput proves -seed actually reseeds both spec
// families.
func TestSeedFlagChangesOutput(t *testing.T) {
	for _, args := range [][]string{
		{"-synth", "traffic", "-rows", "30"},
		{"-dataset", "census", "-rows", "30"},
	} {
		a := gen(t, append(args, "-seed", "1")...)
		b := gen(t, append(args, "-seed", "2")...)
		if bytes.Equal(a, b) {
			t.Errorf("%v: seeds 1 and 2 produced identical output", args)
		}
		c := gen(t, append(args, "-seed", "1")...)
		if !bytes.Equal(a, c) {
			t.Errorf("%v: same seed produced different output", args)
		}
	}
}

// TestStreamedMatchesMaterialized proves the streaming path emits
// exactly the rows the engine builds for the same spec: the streamed
// CSV, loaded back, equals the built table row for row.
func TestStreamedMatchesMaterialized(t *testing.T) {
	spec, err := dataset.ByName("census")
	if err != nil {
		t.Fatal(err)
	}
	spec = spec.WithRows(500)

	streamed := gen(t, "-dataset", "census", "-rows", "500")

	db := sqldb.NewDB()
	tab, err := dataset.Build(db, spec, sqldb.LayoutCol)
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := dataset.LoadCSV(db, "copy", spec.Schema(), sqldb.LayoutCol, bytes.NewReader(streamed))
	if err != nil {
		t.Fatal(err)
	}
	if loaded.NumRows() != tab.NumRows() {
		t.Fatalf("streamed %d rows, built %d", loaded.NumRows(), tab.NumRows())
	}
	built, err := db.QueryOpts("SELECT * FROM census", sqldb.ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	copied, err := db.QueryOpts("SELECT * FROM copy", sqldb.ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(built.Rows, copied.Rows) {
		t.Fatal("streamed CSV differs from the materialized table")
	}
}

// TestSynthSpecFileRoundTrip drives the -synth <file.json> path end to
// end: dump the built-in spec, reload it from disk, and compare bytes.
func TestSynthSpecFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	specPath := filepath.Join(dir, "spec.json")
	var specJSON bytes.Buffer
	if err := run([]string{"-synth", "traffic", "-rows", "40", "-dump-spec"}, &specJSON); err != nil {
		t.Fatalf("dump-spec: %v", err)
	}
	if err := os.WriteFile(specPath, specJSON.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	builtin := gen(t, "-synth", "traffic", "-rows", "40")
	fromFile := gen(t, "-synth", specPath)
	if !bytes.Equal(builtin, fromFile) {
		t.Fatal("spec loaded from JSON file generated different rows than the built-in")
	}
}
