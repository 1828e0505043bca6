package layers

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"time"

	"seedb/internal/backend"
	"seedb/internal/backend/netbe/wire"
	"seedb/internal/binpack"
	"seedb/internal/cache"
	"seedb/internal/core"
	"seedb/internal/distance"
	"seedb/internal/server"
)

// Probe is one layer operation on fixture inputs. Op(i) performs the
// operation once on the i-th input (modulo how many the fixture holds).
type Probe struct {
	// Name is the per-layer metric the probe reports, in microseconds
	// per operation.
	Name string
	Op   func(i int) error
}

// cacheKeys is how many entries the cache probes cycle over: a few
// times the hot_dashboard request pool, small against the byte budget.
const cacheKeys = 1024

// Probes returns every probe the fixture has inputs for, in catalogue
// order. sqldb.merge_us is present only when the fixture holds shard
// parts.
func (f *Fixture) Probes() []Probe {
	ctx := context.Background()
	ps := []Probe{
		{Name: "server.codec_us", Op: f.serverCodec},
		f.cacheProbe("cache.get_us", false),
		f.cacheProbe("cache.put_us", true),
		{Name: "core.viewgen_us", Op: func(int) error {
			_, err := core.NewViewGenerator(f.Backend).Views(ctx, f.Request)
			return err
		}},
		{Name: "binpack.pack_us", Op: func(int) error {
			if len(binpack.PackAttributes(f.Cardinalities, core.DefaultRowMemoryBudget)) == 0 {
				return fmt.Errorf("binpack: no groups for %d attributes", len(f.Cardinalities))
			}
			return nil
		}},
		{Name: "distance.score_us", Op: func(i int) error {
			d := f.Distributions[i%len(f.Distributions)]
			if u := distance.Deviation(distance.EMD, d.Target, d.Reference); u < 0 {
				return fmt.Errorf("distance: negative utility %g", u)
			}
			return nil
		}},
		{Name: "sqldb.prepare_us", Op: func(i int) error {
			_, err := f.DB.Prepare(f.SQL[i%len(f.SQL)])
			return err
		}},
		{Name: "sqldb.scan_us", Op: func(i int) error {
			// Replays within the Rows prefix, so every scanned shape is one
			// whose result the codec probes also carry.
			_, _, err := f.Backend.Exec(ctx, f.SQL[i%len(f.Rows)], EngineExecOptions())
			return err
		}},
	}
	if len(f.Merges) > 0 {
		ps = append(ps, Probe{Name: "sqldb.merge_us", Op: func(i int) error {
			m := f.Merges[i%len(f.Merges)]
			_, err := m.Plan.Merge(m.Parts)
			return err
		}})
	}
	encoded := make([][][]wire.Value, len(f.Rows))
	for i, r := range f.Rows {
		encoded[i] = wire.EncodeRows(r.Rows)
	}
	return append(ps,
		Probe{Name: "wire.encode_us", Op: func(i int) error {
			r := f.Rows[i%len(f.Rows)]
			if len(wire.EncodeRows(r.Rows)) != len(r.Rows) {
				return fmt.Errorf("wire: encode dropped rows")
			}
			return nil
		}},
		Probe{Name: "wire.decode_us", Op: func(i int) error {
			_, err := wire.DecodeRows(encoded[i%len(encoded)])
			return err
		}},
	)
}

// EngineExecOptions is how the engine runs a view query by default: one
// scan worker per processor, which is what selects the vectorized path.
func EngineExecOptions() backend.ExecOptions {
	return backend.ExecOptions{Workers: runtime.GOMAXPROCS(0)}
}

// serverCodec does the server's per-request JSON work: decode one
// request body, encode one response.
func (f *Fixture) serverCodec(i int) error {
	var req server.RecommendRequest
	if err := json.NewDecoder(bytes.NewReader(f.Requests[i%len(f.Requests)])).Decode(&req); err != nil {
		return err
	}
	return json.NewEncoder(io.Discard).Encode(f.decoded[i%len(f.decoded)])
}

// cacheProbe times Get or Put on a cache pre-filled with cacheKeys
// entries whose sizes are the captured response sizes.
func (f *Fixture) cacheProbe(name string, put bool) Probe {
	c := cache.New(cache.DefaultBudgetBytes)
	keys := make([]string, cacheKeys)
	size := func(i int) int64 { return int64(len(f.Responses[i%len(f.Responses)])) }
	for i := range keys {
		keys[i] = cache.RequestKey(f.Table, "v1", fmt.Sprintf("probe-%d", i))
		c.Put(keys[i], f.Responses[i%len(f.Responses)], size(i), time.Millisecond)
	}
	if put {
		return Probe{Name: name, Op: func(i int) error {
			if !c.Put(keys[i%cacheKeys], f.Responses[i%len(f.Responses)], size(i), time.Millisecond) {
				return fmt.Errorf("cache: entry %d not admitted", i%cacheKeys)
			}
			return nil
		}}
	}
	return Probe{Name: name, Op: func(i int) error {
		if _, ok := c.Get(keys[i%cacheKeys]); !ok {
			return fmt.Errorf("cache: entry %d missing", i%cacheKeys)
		}
		return nil
	}}
}

// Measure runs the probe until minDur has passed (and at least three
// times) and returns the mean microseconds per operation.
func Measure(p Probe, minDur time.Duration) (float64, error) {
	if err := p.Op(0); err != nil { // warm-up, and surface a broken probe early
		return 0, fmt.Errorf("probe %s: %w", p.Name, err)
	}
	start := time.Now()
	n := 0
	for time.Since(start) < minDur || n < 3 {
		if err := p.Op(n); err != nil {
			return 0, fmt.Errorf("probe %s: %w", p.Name, err)
		}
		n++
	}
	return float64(time.Since(start).Nanoseconds()) / 1e3 / float64(n), nil
}
