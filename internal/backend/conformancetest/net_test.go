package conformancetest

import (
	"context"
	"net/http/httptest"
	"testing"

	"seedb/internal/backend"
	"seedb/internal/backend/netbe"
	"seedb/internal/server"
	"seedb/internal/sqldb"
)

// startRemote stands up a seedb-server over db and connects a netbe
// client to it.
func startRemote(tb testing.TB, db *sqldb.DB) backend.Backend {
	tb.Helper()
	srv := httptest.NewServer(server.New(db))
	tb.Cleanup(srv.Close)
	c, err := netbe.New(context.Background(), srv.URL, netbe.Options{})
	if err != nil {
		tb.Fatal(err)
	}
	return c
}

// TestNetBackendConformance holds the network backend bit-identical to
// the embedded reference: the backend under test is a netbe client
// whose remote server serves the harness's own source database, so
// every divergence is the wire protocol's fault — value encoding, stats
// transport, version tokens, error mapping. The remote embedded store
// keeps full capabilities, so phased strategies run phased end to end
// (Lo/Hi travel in the query request).
//
// No Invalidate hook: the remote server reads the source database
// directly, and the embedded store's version tokens observe the
// harness's appends, so the version endpoint stays truthful on its own.
func TestNetBackendConformance(t *testing.T) {
	t.Parallel()
	Harness{New: startRemote}.Run(t)
}

// TestShardedNetBackendConformance is the scale-out deployment the
// paper's middleware architecture promises, in miniature: a shard
// router whose two children are netbe clients of two separate
// seedb-servers, each holding one contiguous block of the source table.
// The whole stack — partition, remote wire hops, partial-aggregate
// merge — must stay bit-identical to one unsharded in-process run.
func TestShardedNetBackendConformance(t *testing.T) {
	t.Parallel()
	shardedHarness(2, startRemote).Run(t)
}
