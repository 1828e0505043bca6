package main

import (
	"io"
	"net"
	"net/http"
	"os"
	"strings"
	"syscall"
	"testing"
	"time"

	"seedb/internal/sqldb"
)

// TestUnknownLayoutFails: -layout takes row or col, and anything else
// stops the server before it loads data instead of silently loading COL.
func TestUnknownLayoutFails(t *testing.T) {
	args := os.Args
	t.Cleanup(func() { os.Args = args })
	os.Args = []string{"seedb-server", "-layout", "bogus", "-dataset", "census"}
	if err := run(); err == nil || !strings.Contains(err.Error(), "unknown layout") {
		t.Fatalf("run with -layout bogus = %v, want an unknown layout error", err)
	}
}

// TestMalformedPartitionFails: -partition takes exactly "i/n", two
// base-10 integers around one slash with 0 <= i < n. Trailing input is
// a typo in a fleet's command line, and accepting it as a prefix would
// serve the wrong block with no error.
func TestMalformedPartitionFails(t *testing.T) {
	for _, spec := range []string{"1/2/3", "0/2x", "0x/2", "1", "/2", "0/", " 0/2", "2/2", "-1/2", "0/0"} {
		if _, err := keepPartition(sqldb.NewDB(), spec); err == nil || !strings.Contains(err.Error(), "bad -partition") {
			t.Errorf("-partition %q = %v, want a bad -partition error", spec, err)
		}
	}
	if _, err := keepPartition(sqldb.NewDB(), "1/2"); err != nil {
		t.Errorf("-partition 1/2 = %v", err)
	}
}

// TestServeWithDrain pins the drain contract: after SIGTERM the
// listener stops accepting new connections while the in-flight request
// runs to completion and gets its full 200 response.
func TestServeWithDrain(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	started := make(chan struct{})
	release := make(chan struct{})
	mux := http.NewServeMux()
	mux.HandleFunc("/slow", func(w http.ResponseWriter, _ *http.Request) {
		close(started)
		<-release
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write([]byte("done"))
	})

	sigCh := make(chan os.Signal, 1)
	drained := make(chan error, 1)
	go func() {
		drained <- serveWithDrain(&http.Server{Handler: mux}, ln, 5*time.Second, sigCh, io.Discard)
	}()

	addr := ln.Addr().String()
	type result struct {
		code int
		err  error
	}
	inflight := make(chan result, 1)
	go func() {
		resp, err := http.Get("http://" + addr + "/slow")
		if err != nil {
			inflight <- result{0, err}
			return
		}
		_, _ = io.ReadAll(resp.Body)
		resp.Body.Close()
		inflight <- result{resp.StatusCode, nil}
	}()

	<-started
	sigCh <- syscall.SIGTERM

	// Shutdown closes the listener before waiting on in-flight work, so
	// within the deadline new connections must start being refused.
	deadline := time.Now().Add(2 * time.Second)
	for {
		conn, err := net.DialTimeout("tcp", addr, 100*time.Millisecond)
		if err != nil {
			break
		}
		conn.Close()
		if time.Now().After(deadline) {
			t.Fatal("listener still accepting connections after drain began")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// The request that was already executing must complete, not be cut.
	close(release)
	r := <-inflight
	if r.err != nil {
		t.Fatalf("in-flight request failed during drain: %v", r.err)
	}
	if r.code != http.StatusOK {
		t.Fatalf("in-flight request status = %d, want 200", r.code)
	}
	if err := <-drained; err != nil {
		t.Fatalf("serveWithDrain returned %v, want nil after clean drain", err)
	}
}
