package layers

import (
	"sync"
	"testing"
)

// One fixture serves every benchmark: building it is the only part that
// generates data.
var small = sync.OnceValues(func() (*Fixture, error) { return SmallFixture(20_000, 1) })

// benchProbes runs the named probes of the shared fixture under b, one
// sub-benchmark per probe when there are several.
func benchProbes(b *testing.B, names ...string) {
	f, err := small()
	if err != nil {
		b.Fatal(err)
	}
	byName := map[string]Probe{}
	for _, p := range f.Probes() {
		byName[p.Name] = p
	}
	for _, name := range names {
		p, ok := byName[name]
		if !ok {
			b.Fatalf("fixture has no probe %s", name)
		}
		run := func(b *testing.B) {
			for i := 0; b.Loop(); i++ {
				if err := p.Op(i); err != nil {
					b.Fatal(err)
				}
			}
		}
		if len(names) == 1 {
			run(b)
		} else {
			b.Run(name, run)
		}
	}
}

func BenchmarkSqldbScan(b *testing.B)    { benchProbes(b, "sqldb.scan_us") }
func BenchmarkSqldbPrepare(b *testing.B) { benchProbes(b, "sqldb.prepare_us") }
func BenchmarkShardMerge(b *testing.B)   { benchProbes(b, "sqldb.merge_us") }
func BenchmarkDistance(b *testing.B)     { benchProbes(b, "distance.score_us") }
func BenchmarkCacheGetPut(b *testing.B)  { benchProbes(b, "cache.get_us", "cache.put_us") }
func BenchmarkWireCodec(b *testing.B)    { benchProbes(b, "wire.encode_us", "wire.decode_us") }
func BenchmarkServerCodec(b *testing.B)  { benchProbes(b, "server.codec_us") }
func BenchmarkViewGen(b *testing.B)      { benchProbes(b, "core.viewgen_us") }
func BenchmarkBinPack(b *testing.B)      { benchProbes(b, "binpack.pack_us") }

// TestProbesRun keeps the probes honest without timing anything: every
// probe of the small fixture completes one operation.
func TestProbesRun(t *testing.T) {
	f, err := small()
	if err != nil {
		t.Fatal(err)
	}
	ps := f.Probes()
	if len(ps) != 11 {
		t.Fatalf("want 11 probes (merge included), got %d", len(ps))
	}
	for _, p := range ps {
		if err := p.Op(0); err != nil {
			t.Errorf("%s: %v", p.Name, err)
		}
	}
}
