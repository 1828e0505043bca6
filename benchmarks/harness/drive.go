package harness

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"seedb/internal/server"
)

// recResp is the slice of server.RecommendResponse the driver reads.
type recResp struct {
	Recommendations []struct {
		Dimension string  `json:"dimension"`
		Measure   string  `json:"measure"`
		Aggregate string  `json:"aggregate"`
		Utility   float64 `json:"utility"`
	} `json:"recommendations"`
	Views           int    `json:"views_evaluated"`
	QueriesExecuted int    `json:"queries_executed"`
	RowsScanned     int64  `json:"rows_scanned"`
	PrunedViews     int    `json:"pruned_views"`
	CacheHits       int    `json:"cache_hits"`
	CacheMisses     int    `json:"cache_misses"`
	ServedFromCache bool   `json:"served_from_cache"`
	Fallback        int    `json:"fallback_queries"`
	ShardFanout     int    `json:"shard_fanout"`
	Backend         string `json:"backend"`
}

type ingResp struct {
	Appended int `json:"appended"`
}

// tally is what the clients observed. Latencies and the counts the
// validity predicates read cover the timed window only; Queries and
// AckedRows cover every response since set-up, because the server-side
// totals they are checked against do.
type tally struct {
	Attempted, Failed int
	FirstErrors       []string

	RecLat, IngLat []int64 // ns, successful timed requests
	Done           []int64 // when each of those completed, ns since the window opened

	ServedFromCache int // timed recommends answered whole from the cache
	HitNoQueries    int // ... that also executed no query
	Fallback        int // sum of fallback_queries
	WrongBackend    int
	NoFanout        int
	Queries         int64
	RowsScanned     int64
	Views, Pruned   int
	CacheHits       int
	CacheMisses     int

	AllQueries int64 // queries_executed over every response, any phase
	AckedRows  int   // rows the server acknowledged, any phase

	// Captured on a traced run for the codec and cache probes.
	ReqBodies, RespBodies [][]byte
}

func (t *tally) fail(err error) {
	t.Failed++
	if len(t.FirstErrors) < 5 {
		t.FirstErrors = append(t.FirstErrors, err.Error())
	}
}

// merge folds one client's tally in.
func (t *tally) merge(o *tally) {
	t.Attempted += o.Attempted
	t.Failed += o.Failed
	for _, e := range o.FirstErrors {
		if len(t.FirstErrors) < 5 {
			t.FirstErrors = append(t.FirstErrors, e)
		}
	}
	t.RecLat = append(t.RecLat, o.RecLat...)
	t.IngLat = append(t.IngLat, o.IngLat...)
	t.Done = append(t.Done, o.Done...)
	t.ServedFromCache += o.ServedFromCache
	t.HitNoQueries += o.HitNoQueries
	t.Fallback += o.Fallback
	t.WrongBackend += o.WrongBackend
	t.NoFanout += o.NoFanout
	t.Queries += o.Queries
	t.RowsScanned += o.RowsScanned
	t.Views += o.Views
	t.Pruned += o.Pruned
	t.CacheHits += o.CacheHits
	t.CacheMisses += o.CacheMisses
	t.AllQueries += o.AllQueries
	t.AckedRows += o.AckedRows
	t.ReqBodies = append(t.ReqBodies, o.ReqBodies...)
	t.RespBodies = append(t.RespBodies, o.RespBodies...)
}

// maxCapturedBodies bounds the request/response pairs kept per client
// for the codec probe.
const maxCapturedBodies = 16

// client is one closed-loop caller: it sends its next request only when
// the previous reply has been read, as a dashboard session does.
type client struct {
	e       *env
	hc      *http.Client
	backend string // expected "backend" of recommend responses
	shard   bool
	t0      time.Time // when the measured window opens
	t       tally
}

// post sends one request and returns the reply body. On a traced run it
// also records the request's root span.
func (c *client) post(o *op) (body []byte, elapsed time.Duration, err error) {
	req, err := http.NewRequest(http.MethodPost, c.e.base+o.path, bytes.NewReader(o.body))
	if err != nil {
		return nil, 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	var root Span
	if rec := c.e.rec; rec != nil {
		id := rec.open()
		root = Span{ID: id, Req: id, Name: "client.request", Path: o.path, Start: rec.now()}
		req.Header.Set(reqHeader, strconv.FormatUint(id, 10))
	}
	start := time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, 0, err
	}
	body, err = io.ReadAll(resp.Body)
	resp.Body.Close()
	elapsed = time.Since(start)
	if c.e.rec != nil {
		c.e.rec.close(root)
	}
	if err != nil {
		return nil, elapsed, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, elapsed, fmt.Errorf("%s: status %d: %.200s", o.path, resp.StatusCode, body)
	}
	return body, elapsed, nil
}

// do issues one op and accounts for it. timed says whether the request
// started inside the measured window.
func (c *client) do(o *op, timed bool) {
	t := &c.t
	if timed {
		t.Attempted++
	}
	body, elapsed, err := c.post(o)
	done := time.Since(c.t0)
	if err != nil {
		// A failure outside the window still fails the run: no workload
		// is meant to produce one.
		t.fail(err)
		return
	}
	if o.path == ingestPath {
		var r ingResp
		if err := json.Unmarshal(body, &r); err != nil {
			t.fail(err)
			return
		}
		t.AckedRows += r.Appended
		if timed {
			t.IngLat = append(t.IngLat, int64(elapsed))
			t.Done = append(t.Done, int64(done))
		}
		return
	}
	var r recResp
	if err := json.Unmarshal(body, &r); err != nil {
		t.fail(err)
		return
	}
	t.AllQueries += int64(r.QueriesExecuted)
	if !timed {
		return
	}
	t.RecLat = append(t.RecLat, int64(elapsed))
	t.Done = append(t.Done, int64(done))
	if r.ServedFromCache {
		t.ServedFromCache++
		if r.QueriesExecuted == 0 {
			t.HitNoQueries++
		}
	}
	t.Fallback += r.Fallback
	if r.Backend != c.backend {
		t.WrongBackend++
	}
	if c.shard && r.ShardFanout == 0 {
		t.NoFanout++
	}
	t.Queries += int64(r.QueriesExecuted)
	t.RowsScanned += r.RowsScanned
	t.Views += r.Views
	t.Pruned += r.PrunedViews
	t.CacheHits += r.CacheHits
	t.CacheMisses += r.CacheMisses
	if c.e.rec != nil && len(t.ReqBodies) < maxCapturedBodies {
		t.ReqBodies = append(t.ReqBodies, o.body)
		t.RespBodies = append(t.RespBodies, body)
	}
}

// drive runs the plan's streams, one closed-loop client each, through a
// warm-up and then the measured window. Clients never pause between the
// two, and a request in flight when the window ends completes and
// counts. It returns the merged tally and, for a traced run, the
// recorder time at which the window opened.
func drive(e *env, w Workload, pl *plan, warmup, window time.Duration) (*tally, int64, error) {
	backendName := recommendBackend(w, e.rec != nil)
	if backendName == "" {
		backendName = server.DefaultBackendName
	}
	t0 := time.Now().Add(warmup)
	end := t0.Add(window)
	clients := make([]*client, len(pl.streams))
	for i := range clients {
		clients[i] = &client{e: e, hc: &http.Client{Transport: &http.Transport{}}, backend: backendName, shard: w.Shard, t0: t0}
	}
	var fromNS int64
	if e.rec != nil {
		fromNS = e.rec.now() + int64(warmup)
	}
	exhausted := make([]bool, len(clients))
	var wg sync.WaitGroup
	for i, c := range clients {
		wg.Add(1)
		go func(c *client, stream []uint32, i int) {
			defer wg.Done()
			defer c.hc.CloseIdleConnections()
			next := 0
			for {
				now := time.Now()
				if !now.Before(end) {
					break
				}
				if next == len(stream) {
					if !pl.wrap {
						exhausted[i] = true
						break
					}
					next = 0
				}
				c.do(&pl.ops[stream[next]], !now.Before(t0))
				next++
			}
		}(c, pl.streams[i], i)
	}
	wg.Wait()
	total := &tally{}
	for i, c := range clients {
		if exhausted[i] {
			return nil, 0, fmt.Errorf("client %d used all %d generated requests before the window closed; raise the stream length", i, len(pl.streams[i]))
		}
		total.merge(&c.t)
	}
	return total, fromNS, nil
}
