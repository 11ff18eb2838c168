package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"tsppr/internal/engine"
	"tsppr/internal/rec"
	"tsppr/internal/rescache"
	"tsppr/internal/seq"
	"tsppr/internal/sessions"
	"tsppr/internal/shard"
	"tsppr/internal/wal"
)

// The traced run measures each layer from outside the children: spans
// are recorded by the harness around its own calls into the layers'
// public functions, on its own copy of the fixture, in the order the
// server's handlers make them. Spans inside the children are a later
// change; this file is what their numbers will be checked against.

const (
	replayOps  = 20000 // ops of the workload's stream replayed in process, time permitting
	microIters = 2000
)

// span is one timed call. Spans of one op share Req; Parent is the ID
// of the enclosing span, -1 for the op's root.
type span struct {
	Req     int    `json:"req"`
	ID      int    `json:"span"`
	Parent  int    `json:"parent"`
	Layer   string `json:"layer"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// tracer keeps spans in memory; they are written out once, at the end.
type tracer struct {
	origin time.Time
	spans  []span
}

func (t *tracer) start(req, parent int, layer, name string) int {
	id := len(t.spans)
	t.spans = append(t.spans, span{Req: req, ID: id, Parent: parent, Layer: layer, Name: name,
		StartNS: int64(time.Since(t.origin))})
	return id
}

func (t *tracer) end(id int) { t.spans[id].EndNS = int64(time.Since(t.origin)) }

// write dumps the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes returns, per layer, each op's self time in that layer (µs):
// a span's duration minus the part its child spans cover, summed over
// the op's spans of the layer. Ops that never touch a layer count 0 for
// it, so a median over ops describes the typical op.
func (t *tracer) selfTimes() map[string][]float64 {
	ops := 0
	childNS := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			childNS[s.Parent] += s.EndNS - s.StartNS
		}
		if s.Req >= ops {
			ops = s.Req + 1
		}
	}
	out := map[string][]float64{}
	for _, s := range t.spans {
		if out[s.Layer] == nil {
			out[s.Layer] = make([]float64, ops)
		}
		out[s.Layer][s.Req] += float64(s.EndNS-s.StartNS-childNS[s.ID]) / 1e3
	}
	return out
}

// medianByName is the median duration (µs) of the spans called name in
// layer, 0 when the workload never made that call.
func (t *tracer) medianByName(layer, name string) float64 {
	var d []float64
	for _, s := range t.spans {
		if s.Layer == layer && s.Name == name {
			d = append(d, float64(s.EndNS-s.StartNS)/1e3)
		}
	}
	return median(d)
}

// alternation is the direct-vs-routed phase: one client, in turn, a GET
// /healthz straight to the primary (the HTTP floor), the workload's op
// straight to the primary, and the same op through the router. The
// router hop is the difference of the two medians; because the legs
// alternate, drift in the box's speed hits both alike.
type alternation struct {
	floorMS, directMS, routedMS []float64
	tally                       tally
}

func alternate(ctx context.Context, c *client, f *fleet, d time.Duration) alternation {
	var a alternation
	c.tally = tally{}
	origin := time.Now()
	for time.Since(origin) < d && ctx.Err() == nil {
		start := time.Now()
		if resp, err := c.http.Get(f.primary.base + "/healthz"); err == nil {
			c.buf.Reset()
			_, _ = c.buf.ReadFrom(resp.Body) // a floor sample needs no body
			resp.Body.Close()
			a.floorMS = append(a.floorMS, float64(time.Since(start))/1e6)
		}
		reqs := c.stream.next()
		if lat, ok := c.runOp(f.primary.base, reqs); ok {
			a.directMS = append(a.directMS, float64(lat)/1e6)
		}
		if lat, ok := c.runOp(f.router.base, reqs); ok {
			a.routedMS = append(a.routedMS, float64(lat)/1e6)
		}
	}
	a.tally = c.tally
	return a
}

// replay runs the head of the workload's stream, single-threaded,
// against the harness's own shard pool, response cache, engine, WAL and
// JSON codecs, following the handlers' call order (cmd/rrc-server
// online.go, main.go) with a span around each public call. The pool
// runs at SyncNever and the consume path appends the same payload to a
// standalone SyncAlways log, so the shard and WAL shares of a write are
// separate spans rather than one nested inside the other. The replay
// stops after replayOps ops or budget, whichever comes first.
func replay(ctx context.Context, dir string, fx *fixture, eng *engine.Engine, w workload, seed int64, budget time.Duration) (*tracer, map[string]float64, error) {
	events := filepath.Join(dir, "events")
	if err := copyTree(fx.eventsDir, events); err != nil {
		return nil, nil, err
	}
	pool, err := shard.Open(events, shard.Config{
		Shards:              shards,
		WindowCap:           windowCap,
		MaxSessionsPerShard: maxSessions / shards,
		NumUsers:            fx.users,
		NumItems:            fx.items,
		Fsync:               wal.SyncNever,
		SnapshotEvery:       4096, // the server's -snapshot-every default
	})
	if err != nil {
		return nil, nil, err
	}
	defer pool.Close()
	syncLog, err := wal.Open(filepath.Join(dir, "wal-sync"), wal.Options{Sync: wal.SyncAlways})
	if err != nil {
		return nil, nil, err
	}
	defer syncLog.Close()
	cache := rescache.New(rescache.Config{})

	tr := &tracer{origin: time.Now(), spans: make([]span, 0, replayOps*8)}
	var buf bytes.Buffer
	decode := func(req, parent int, body []byte, v any) error {
		sp := tr.start(req, parent, "json", "decode")
		defer tr.end(sp)
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		return dec.Decode(v)
	}
	encode := func(req, parent int, v any) error {
		sp := tr.start(req, parent, "json", "encode")
		defer tr.end(sp)
		buf.Reset()
		return json.NewEncoder(&buf).Encode(v)
	}
	score := func(req, parent, user int, win *seq.Window) recommendReply {
		sp := tr.start(req, parent, "engine", "Recommend")
		defer tr.end(sp)
		hist, _ := win.Snapshot()
		scored := eng.Recommend(&rec.Context{User: user, Window: win, History: hist, Omega: omega}, topN, nil)
		reply := recommendReply{Items: make([]int, len(scored)), Scores: make([]float64, len(scored))}
		for i, sc := range scored {
			reply.Items[i], reply.Scores[i] = int(sc.Item), sc.Score
		}
		return reply
	}

	s := newStream(fx, w, seed, 0, 1)
	for op := 0; op < replayOps && time.Since(tr.origin) < budget && ctx.Err() == nil; op++ {
		for _, r := range s.next() {
			root := tr.start(op, -1, "handler", r.path)
			switch r.path {
			case "/recommend/user":
				var body recommendUserBody
				if err := decode(op, root, r.body, &body); err != nil {
					return nil, nil, err
				}
				sp := tr.start(op, root, "shard", "UserLSN")
				lsn, _, err := pool.UserLSN(body.User)
				tr.end(sp)
				if err != nil {
					return nil, nil, err
				}
				sp = tr.start(op, root, "rescache", "Get.miss")
				items, scores, hit := cache.Get(body.User, lsn, omega, body.N, []int{}, []float64{})
				tr.end(sp)
				reply := recommendReply{Items: items, Scores: scores}
				if hit {
					tr.spans[sp].Name = "Get.hit"
				} else {
					epoch := cache.Epoch()
					sp = tr.start(op, root, "shard", "WindowCloneLSN")
					win, lsn, ok, err := pool.WindowCloneLSN(body.User)
					tr.end(sp)
					if err != nil || !ok {
						return nil, nil, fmt.Errorf("replay: window of user %d: ok=%v err=%v", body.User, ok, err)
					}
					reply = score(op, root, body.User, win)
					sp = tr.start(op, root, "rescache", "Put")
					cache.Put(epoch, body.User, lsn, omega, body.N, reply.Items, reply.Scores)
					tr.end(sp)
				}
				if err := encode(op, root, reply); err != nil {
					return nil, nil, err
				}
			case "/consume":
				var body consumeBody
				if err := decode(op, root, r.body, &body); err != nil {
					return nil, nil, err
				}
				sp := tr.start(op, root, "wal", "Append.sync")
				_, err := syncLog.Append(sessions.EncodeEvent(body.User, seq.Item(body.Item)))
				tr.end(sp)
				if err != nil {
					return nil, nil, err
				}
				sp = tr.start(op, root, "shard", "Ingest")
				lsn, n, err := pool.Ingest(body.User, seq.Item(body.Item))
				tr.end(sp)
				if err != nil {
					return nil, nil, err
				}
				sp = tr.start(op, root, "rescache", "InvalidateUser")
				cache.InvalidateUser(body.User)
				tr.end(sp)
				if err := encode(op, root, consumeReply{LSN: lsn, Window: n}); err != nil {
					return nil, nil, err
				}
			case "/recommend/batch":
				var body batchBody
				if err := decode(op, root, r.body, &body); err != nil {
					return nil, nil, err
				}
				reply := batchReply{Responses: make([]recommendReply, len(body.Requests))}
				for i, e := range body.Requests {
					sp := tr.start(op, root, "seq", "replay")
					win := seq.NewWindow(windowCap)
					for _, it := range e.History {
						win.Push(seq.Item(it))
					}
					tr.end(sp)
					reply.Responses[i] = score(op, root, e.User, win)
				}
				if err := encode(op, root, reply); err != nil {
					return nil, nil, err
				}
			}
			tr.end(root)
		}
	}

	// Figures a span cannot give: allocation counts, and the WAL append
	// without its fsync.
	micro := map[string]float64{}
	if w.name == "batch_stateless" {
		req := s.batch()
		var body batchBody
		if err := json.Unmarshal(req.body, &body); err != nil {
			return nil, nil, err
		}
		micro["engine.batch64_allocs"] = allocsPer(microIters/batchEntries, func() {
			for _, e := range body.Requests {
				win := seq.NewWindow(windowCap)
				for _, it := range e.History {
					win.Push(seq.Item(it))
				}
				eng.Recommend(&rec.Context{User: e.User, Window: win, Omega: omega}, topN, nil)
			}
		})
	}
	if w.name != "ingest_replicated" {
		o := newOracle(fx, eng)
		u := s.drawUser()
		win := o.window(u, true)
		micro["engine.allocs_per_op"] = allocsPer(microIters, func() { o.expect(u, win) })
	}
	if w.name == "session" || w.name == "ingest_replicated" {
		noSync, err := wal.Open(filepath.Join(dir, "wal-nosync"), wal.Options{Sync: wal.SyncNever})
		if err != nil {
			return nil, nil, err
		}
		payload := sessions.EncodeEvent(1, 1)
		start := time.Now()
		for i := 0; i < microIters; i++ {
			if _, err := noSync.Append(payload); err != nil {
				noSync.Close()
				return nil, nil, err
			}
		}
		micro["wal.append_nosync_us"] = float64(time.Since(start)) / 1e3 / microIters
		if err := noSync.Close(); err != nil {
			return nil, nil, err
		}
	}
	return tr, micro, nil
}

// allocsPer is the mean number of heap allocations one call of f makes.
func allocsPer(n int, f func()) float64 {
	var before, after runtime.MemStats
	f() // let pools and lazily grown buffers settle first
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(n)
}

// budgetRow is one line of the latency budget: where the median of an
// unloaded routed op goes.
type budgetRow struct {
	Layer string  `json:"layer"`
	US    float64 `json:"us"`
}

// budgetLayers are the in-process rows, in table order.
var budgetLayers = []string{"json", "shard", "rescache", "seq", "engine", "wal"}

// buildBudget assembles the table for one workload. What it splits is
// unloadedUS, the alternation's median routed op with nobody else on
// the box: every row is then a measurement of the same quiet box —
// hopUS and floorUS from the alternation, self from the replay's spans
// — and none is a residual of two different phases. What the full
// client count adds on top (queueing, contention for the two vCPUs) is
// not a row; the report prints it beside the table as the window's op
// p50 against unloadedUS. fanOut divides the per-entry layers of a
// batch, which the server scores fanOut at a time. The last row,
// unattributed, is unloadedUS minus every other row: client-side HTTP,
// kernel socket work, the handlers' own glue.
func buildBudget(hopUS, floorUS, unloadedUS float64, self map[string][]float64, requestsPerOp, fanOut float64) (rows []budgetRow, unattributedRatio float64) {
	rows = append(rows,
		budgetRow{"router.hop", hopUS},
		budgetRow{"http.floor", floorUS * requestsPerOp})
	for _, layer := range budgetLayers {
		us := median(self[layer])
		if layer == "seq" || layer == "engine" {
			us /= fanOut
		}
		rows = append(rows, budgetRow{layer, us})
	}
	rest := unloadedUS
	for _, r := range rows {
		rest -= r.US
	}
	rows = append(rows, budgetRow{"unattributed", rest})
	if unloadedUS > 0 {
		unattributedRatio = math.Abs(rest) / unloadedUS
	}
	return rows, unattributedRatio
}

// topCosts names the n most expensive attributed rows, largest first.
func topCosts(rows []budgetRow, n int) []string {
	attributed := make([]budgetRow, 0, len(rows))
	for _, r := range rows {
		if r.Layer != "unattributed" {
			attributed = append(attributed, r)
		}
	}
	sort.SliceStable(attributed, func(i, j int) bool { return attributed[i].US > attributed[j].US })
	var out []string
	for i := 0; i < n && i < len(attributed); i++ {
		out = append(out, attributed[i].Layer)
	}
	return out
}
