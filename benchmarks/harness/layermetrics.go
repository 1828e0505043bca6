package harness

import (
	"fmt"
	"sort"
	"strings"
)

// layerTotals sums, over the traced recommend requests of one run, the
// time each layer had a span open while no layer below it did, plus the
// counts taken at the same boundaries. Times are nanoseconds.
//
// A layer's self time within one request is |cover(layer)| −
// |cover(layers below)|, where cover is the union of the layer's span
// intervals: the usual "span minus the union of its children", extended
// to sibling spans that overlap because the engine runs queries in
// parallel. The six self times partition the client span exactly when
// every span nests in its parent; Sum/Client reports how close a run
// came.
type layerTotals struct {
	Requests int
	Client   int64 // client span: what the user waited

	Transport  int64 // client − server.handle: HTTP client, loopback, net/http server, response read
	ServerCore int64 // server.handle − backend calls: decode, admission, engine, cache, scoring, encode, lock waits
	Shardbe    int64 // router calls − leaf calls: plan, fan-out scheduling, straggler wait, merge
	Exec       int64 // leaf Exec: sqldb plan + scan + finalize
	Stats      int64 // leaf TableStats (not already under an Exec)
	Meta       int64 // leaf TableInfo/TableVersion (not already under Exec or Stats)

	StatsCalls  int   // engine-level TableStats calls
	RouterExecs int   // shardbe.exec spans
	Fanout      int   // child executions they reported
	StragglerNS int64 // sum of their slowest-child times
	LeafExecs   int
	Vectorized  int
	LeafRows    int64 // rows scanned by leaf execs
	LeafBusyNS  int64 // sum (not union) of leaf exec durations

	IngestRequests int
	IngestHandle   int64 // server.handle on /api/ingest
}

// Sum is the total of the six self times.
func (t layerTotals) Sum() int64 {
	return t.Transport + t.ServerCore + t.Shardbe + t.Exec + t.Stats + t.Meta
}

type interval struct{ lo, hi int64 }

// unionLen is the total length covered by the intervals. It reorders iv.
func unionLen(iv []interval) int64 {
	sort.Slice(iv, func(a, b int) bool { return iv[a].lo < iv[b].lo })
	var total, end int64
	for i, v := range iv {
		if i == 0 || v.lo > end {
			total += v.hi - v.lo
			end = v.hi
		} else if v.hi > end {
			total += v.hi - end
			end = v.hi
		}
	}
	return total
}

// byRequest calls fn once per request. spans must be grouped by request,
// as Recorder.Spans returns them.
func byRequest(spans []Span, fn func(req uint64, group []Span)) {
	for lo := 0; lo < len(spans); {
		hi := lo
		for hi < len(spans) && spans[hi].Req == spans[lo].Req {
			hi++
		}
		fn(spans[lo].Req, spans[lo:hi])
		lo = hi
	}
}

// foldSpans computes the layer totals. Only requests whose root span
// started at or after fromNS count, so warm-up requests stay out.
func foldSpans(spans []Span, fromNS int64) layerTotals {
	var t layerTotals
	var server, below, leaf, exec, execStats []interval
	byRequest(spans, func(req uint64, group []Span) {
		var root *Span
		var handleID uint64
		for i := range group {
			if group[i].ID == req {
				root = &group[i]
			}
			if group[i].Name == "server.handle" {
				handleID = group[i].ID
			}
		}
		if root == nil || root.Start < fromNS {
			return
		}
		server, below, leaf, exec, execStats = server[:0], below[:0], leaf[:0], exec[:0], execStats[:0]
		for _, s := range group {
			iv := interval{s.Start, s.End}
			layer, op, _ := strings.Cut(s.Name, ".")
			switch layer {
			case "server":
				server = append(server, iv)
			case "shardbe":
				below = append(below, iv)
				if op == "exec" {
					t.RouterExecs++
					t.Fanout += s.Fanout
					t.StragglerNS += s.StragglerNS
				}
			case "sqldb":
				below = append(below, iv)
				leaf = append(leaf, iv)
				switch op {
				case "exec":
					exec = append(exec, iv)
					execStats = append(execStats, iv)
					t.LeafExecs++
					t.LeafRows += s.Rows
					t.LeafBusyNS += s.End - s.Start
					if s.Vectorized {
						t.Vectorized++
					}
				case "stats":
					execStats = append(execStats, iv)
				}
			}
			if op == "stats" && s.Parent == handleID {
				t.StatsCalls++
			}
		}
		c1 := unionLen(server)
		if root.Path != recommendPath {
			t.IngestRequests++
			t.IngestHandle += c1
			return
		}
		c0, c2, c3 := root.End-root.Start, unionLen(below), unionLen(leaf)
		e, es := unionLen(exec), unionLen(execStats)
		t.Requests++
		t.Client += c0
		t.Transport += c0 - c1
		t.ServerCore += c1 - c2
		t.Shardbe += c2 - c3
		t.Exec += e
		t.Stats += es - e
		t.Meta += c3 - es
	})
	return t
}

// checkSpanTree reports departures from a well-formed trace: a span that
// never closed, a request without exactly one root, a span whose parent
// is missing from its request or does not contain it.
func checkSpanTree(spans []Span, opened int) []string {
	var probs []string
	add := func(format string, args ...any) {
		if len(probs) < 8 {
			probs = append(probs, fmt.Sprintf(format, args...))
		}
	}
	if opened != len(spans) {
		add("%d spans opened, %d closed", opened, len(spans))
	}
	byRequest(spans, func(req uint64, group []Span) {
		byID := make(map[uint64]Span, len(group))
		roots := 0
		for _, s := range group {
			byID[s.ID] = s
			if s.Parent == 0 {
				roots++
				if s.ID != req {
					add("request %d: root span %d (%s) is not the request span", req, s.ID, s.Name)
				}
			}
		}
		if roots != 1 {
			add("request %d: %d root spans", req, roots)
		}
		for _, s := range group {
			if s.End < s.Start {
				add("request %d: span %d (%s) ends before it starts", req, s.ID, s.Name)
			}
			if s.Parent == 0 {
				continue
			}
			p, ok := byID[s.Parent]
			if !ok {
				add("request %d: span %d (%s) has no parent %d in its request", req, s.ID, s.Name, s.Parent)
			} else if s.Start < p.Start || s.End > p.End {
				add("request %d: span %d (%s) is not inside its parent %s", req, s.ID, s.Name, p.Name)
			}
		}
	})
	return probs
}
