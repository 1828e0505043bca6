package harness

import (
	"fmt"
	"net"
	"net/http"
	"time"

	"seedb/internal/backend"
	"seedb/internal/backend/shardbe"
	"seedb/internal/dataset"
	"seedb/internal/server"
	"seedb/internal/sqldb"
)

// tracedBackendName is what a traced run registers the decorated
// embedded store under; the default "sqldb" registration cannot be
// replaced from outside the server.
const tracedBackendName = "traced"

// env is one served system under test, ready to time.
type env struct {
	spec     dataset.SynthSpec
	db       *sqldb.DB
	hs       *http.Server
	served   chan struct{} // closed when Serve has returned
	base     string
	rec      *Recorder   // nil on an untraced run
	children []*sqldb.DB // shard stores, when the benchmark built the router itself

	setup   time.Duration // table build + sharding + listener + priming
	buildNS int64         // the table build alone
}

// recommendBackend is the backend name the workload's recommends carry.
func recommendBackend(w Workload, traced bool) string {
	switch {
	case w.Shard:
		return server.ShardBackendName
	case traced:
		return tracedBackendName
	}
	return ""
}

// specFor is the workload's table: dataset.TrafficSpec at the profile's
// size, generated from the run's seed.
func specFor(w Workload, prof Profile, seed int64) dataset.SynthSpec {
	return dataset.TrafficSpec().WithRows(w.Rows(prof)).WithSeed(seed)
}

// setUp builds the table from the seed, stands the server up on a
// loopback listener and issues the plan's priming requests. With a
// recorder it interposes the timing decorators: around the handler,
// around the embedded store (registered as "traced"), and — on the shard
// workload — around a router the benchmark composes from the same public
// pieces EnableSharding uses, and around each of its children.
func setUp(w Workload, spec dataset.SynthSpec, pl *plan, rec *Recorder) (*env, error) {
	start := time.Now()
	e := &env{spec: spec, db: sqldb.NewDB(), rec: rec}
	if _, err := dataset.BuildSynth(e.db, e.spec, sqldb.LayoutCol); err != nil {
		return nil, err
	}
	e.buildNS = int64(time.Since(start))
	srv := server.New(e.db)
	var handler http.Handler = srv
	if rec != nil {
		handler = rec.Handler(srv)
		leaf := &tracedBackend{inner: backend.NewEmbedded(e.db), rec: rec, layer: "sqldb", top: true}
		if err := srv.RegisterBackend(tracedBackendName, leaf); err != nil {
			return nil, err
		}
	}
	switch {
	case w.Shard && rec == nil:
		if err := srv.EnableSharding(shardChildren); err != nil {
			return nil, err
		}
	case w.Shard:
		dbs, bes := shardbe.EmbeddedChildren(shardChildren)
		for i, be := range bes {
			bes[i] = &tracedBackend{inner: be, rec: rec, layer: "sqldb"}
		}
		router, err := shardbe.New(bes, shardbe.Options{Telemetry: srv.Telemetry()})
		if err != nil {
			return nil, err
		}
		top := &tracedBackend{inner: router, rec: rec, layer: "shardbe", top: true}
		if err := srv.RegisterBackend(server.ShardBackendName, top); err != nil {
			return nil, err
		}
		if err := shardbe.ScatterTable(e.db, e.spec.Name, dbs, shardbe.Blocks{Total: e.spec.Rows}); err != nil {
			return nil, err
		}
		e.children = dbs
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	e.hs = &http.Server{Handler: handler}
	e.served = make(chan struct{})
	go func() {
		defer close(e.served)
		_ = e.hs.Serve(ln) // returns ErrServerClosed from tearDown
	}()
	e.base = "http://" + ln.Addr().String()

	hc := &http.Client{}
	defer hc.CloseIdleConnections()
	for _, i := range pl.prime {
		if _, err := postOK(hc, e.base+pl.ops[i].path, pl.ops[i].body); err != nil {
			e.tearDown()
			return nil, fmt.Errorf("priming: %w", err)
		}
	}
	e.setup = time.Since(start)
	return e, nil
}

// tearDown closes the listener and every connection and waits for the
// serving goroutine to end.
func (e *env) tearDown() {
	_ = e.hs.Close()
	<-e.served
}
