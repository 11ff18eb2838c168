package serve

// The fixture every suite in this package boots through: trained models
// (trained), nodes with kill and restart handles (newNode), one request
// helper (send), and fleets of replicated pairs behind the real
// internal/router engine (newFleet). Nodes and routers run in-process on
// httpserve, the server both binaries use; "kill" closes a node's
// listener and abandons its pool un-closed, the state a SIGKILL leaves.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"tsppr/internal/core"
	"tsppr/internal/datagen"
	"tsppr/internal/features"
	"tsppr/internal/httpserve/httpservetest"
	"tsppr/internal/obs"
	"tsppr/internal/router"
	"tsppr/internal/sampling"
	"tsppr/internal/seq"
	"tsppr/internal/shard"
	"tsppr/internal/wal"
)

var trainedModels = struct {
	sync.Mutex
	byUsers map[int]trainedModel
}{byUsers: map[int]trainedModel{}}

type trainedModel struct {
	m    *core.Model
	seqs []seq.Sequence
}

// trained returns TS-PPR (|W| = 20, Ω = 3, fixed seeds) trained over a
// generated Gowalla-like split of the given user count, and the split's
// sequences. It trains once per user count per test binary, so the
// model is shared: read it, save it, or serve it through newNode, which
// serves a copy.
func trained(t testing.TB, users int) (*core.Model, []seq.Sequence) {
	t.Helper()
	trainedModels.Lock()
	defer trainedModels.Unlock()
	if tm, ok := trainedModels.byUsers[users]; ok {
		return tm.m, tm.seqs
	}
	cfg := datagen.GowallaLike(users, 3)
	cfg.MinLen, cfg.MaxLen = 80, 150
	cfg.WindowCap = 20
	ds, err := datagen.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	numItems := ds.NumItems()
	b := features.NewBuilder(numItems, 20, 3)
	for _, s := range ds.Seqs {
		b.Add(s)
	}
	ex := b.Build(features.AllFeatures, features.Hyperbolic)
	set, err := sampling.Build(ds.Seqs, ex, sampling.Config{WindowCap: 20, Omega: 3, S: 5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	m, _, err := core.Train(set, ds.NumUsers(), numItems, ex, core.Config{K: 8, MaxSteps: 10_000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	trainedModels.byUsers[users] = trainedModel{m, ds.Seqs}
	return m, ds.Seqs
}

// ints is s as the []int a request body carries.
func ints(s seq.Sequence) []int {
	out := make([]int, len(s))
	for i, v := range s {
		out[i] = int(v)
	}
	return out
}

// node is one test node: the Server, plus what it takes to serve it on
// a listener, kill it and restart it over its events dir.
type node struct {
	*Server
	t      testing.TB
	m      *core.Model
	dir    string
	with   []func(*Options)      // applied at every boot
	ts     *httpservetest.Server // nil until wire or url
	down   bool                  // killed or stopped
	killed bool
}

// newNode boots a node over a copy of m with its events dir at dir (""
// is a fresh temporary one), -fsync always and the options with set,
// and closes it when the test ends unless it was killed. The copy, read
// back from m's file bytes, is what a separate process would hold:
// building an engine rewrites a model's feature table, which must not
// race another node's reads of it. A model loaded for serving has no
// maps to write, so it is served as loaded: load one per node.
func newNode(t testing.TB, m *core.Model, dir string, with ...func(*Options)) *node {
	t.Helper()
	if dir == "" {
		dir = t.TempDir()
	}
	n := &node{t: t, m: m, dir: dir, with: with}
	n.Server = n.boot()
	t.Cleanup(func() {
		if !n.killed {
			n.Close(0)
		}
	})
	return n
}

// boot is New over a copy of n.m with n's options, then more. Recovery
// runs inside New, exactly as at a process start.
func (n *node) boot(more ...func(*Options)) *Server {
	n.t.Helper()
	m := n.m
	if m.MapType != core.PerUserMap || len(m.A) > 0 {
		var file bytes.Buffer
		err := m.Write(&file)
		if err == nil {
			m, err = core.ReadModel(&file)
		}
		if err != nil {
			n.t.Fatal(err)
		}
	}
	opts := Options{EventsDir: n.dir, Fsync: wal.SyncAlways} // SnapshotEvery 0: tests snapshot explicitly
	for _, f := range append(append([]func(*Options){}, n.with...), more...) {
		f(&opts)
	}
	srv, err := New(m, opts)
	if err != nil {
		n.t.Fatalf("boot over %s: %v", n.dir, err)
	}
	return srv
}

// wire is the node behind its loopback listener, started on first use:
// a request through it crosses a real connection.
func (n *node) wire() *httpservetest.Server {
	if n.ts == nil {
		n.ts = httpservetest.Start(n.t, n.Server)
	}
	return n.ts
}

// url is the node's base URL (see wire).
func (n *node) url() string { return n.wire().URL }

// kill leaves the node as a SIGKILL would: the listener and its
// connections close, and the pool is abandoned un-closed. Never Close a
// killed node: Close writes final snapshots and would change the
// recovery under test.
func (n *node) kill() {
	if n.ts != nil {
		n.ts.Close()
	}
	n.down, n.killed = true, true
}

// stop shuts the node down gracefully: the listener closes, then Close
// flushes every shard's final snapshot.
func (n *node) stop() {
	n.t.Helper()
	if n.ts != nil {
		n.ts.Close()
	}
	if _, err := n.Close(0); err != nil {
		n.t.Fatalf("closing the node over %s: %v", n.dir, err)
	}
	n.down = true
}

// restart boots the node again over its events dir, with its options
// and then more. A live node is stopped first; a killed one recovers
// from what its abandoned pool left on disk. The restarted node gets a
// new listener, and so a new url.
func (n *node) restart(more ...func(*Options)) {
	n.t.Helper()
	if !n.down {
		n.stop()
	}
	n.ts = nil
	n.Server = n.boot(more...)
	n.down, n.killed = false, false
}

// promote is what an operator or the router sends to fail over to n.
func (n *node) promote() {
	n.t.Helper()
	expect(n.t, http.StatusOK, n, "POST /admin/promote", nil)
}

// replicated is the pairs' shape: two shards and replication timings
// fast enough for test time scales.
func replicated(o *Options) {
	o.Shards = 2
	o.replWait = 30 * time.Millisecond
	o.replBackoffBase = 5 * time.Millisecond
	o.replBackoffMax = 50 * time.Millisecond
}

// reloadsFrom saves m where the node's reloads read it.
func reloadsFrom(t testing.TB, m *core.Model) func(*Options) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "model.tsppr")
	if err := m.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	return func(o *Options) { o.ModelPath = path }
}

// partition pins a node to partition index of count.
func partition(index, count int) func(*Options) {
	return func(o *Options) { o.Partition = shard.PartitionID{Index: index, Count: count} }
}

// follows makes a node the standby of primary, at primary's url when
// the node boots.
func follows(primary *node) func(*Options) {
	return func(o *Options) { o.FollowURL = primary.url() }
}

// send serves one request on h and returns the recorded reply. target
// is "METHOD /path"; body is nil, raw []byte, or a value sent as JSON;
// header holds name, value pairs. It makes no *testing.T calls, so
// worker goroutines may use it.
func send(h http.Handler, target string, body any, header ...string) *httptest.ResponseRecorder {
	method, path, _ := strings.Cut(target, " ")
	var rd io.Reader
	switch b := body.(type) {
	case nil:
	case []byte:
		rd = bytes.NewReader(b)
	default:
		raw, err := json.Marshal(b)
		if err != nil {
			panic(err)
		}
		rd = bytes.NewReader(raw)
	}
	req := httptest.NewRequest(method, path, rd)
	if rd != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	for i := 0; i+1 < len(header); i += 2 {
		req.Header.Set(header[i], header[i+1])
	}
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, req)
	return rr
}

// expect is send that fails the test unless the reply's status is code.
func expect(t testing.TB, code int, h http.Handler, target string, body any, header ...string) *httptest.ResponseRecorder {
	t.Helper()
	rr := send(h, target, body, header...)
	if rr.Code != code {
		t.Fatalf("%s %+v: status %d, want %d: %s", target, body, rr.Code, code, rr.Body.String())
	}
	return rr
}

// decodeAs decodes a JSON reply body.
func decodeAs[T any](t testing.TB, body []byte) T {
	t.Helper()
	var v T
	if err := json.Unmarshal(body, &v); err != nil {
		t.Fatalf("decoding %s: %v", body, err)
	}
	return v
}

type event struct {
	user, item int
}

// chaosEvents derives a deterministic interleaved event stream from the
// generated sequences: 60 events round-robined over 4 users.
func chaosEvents(seqs []seq.Sequence) []event {
	evs := make([]event, 0, 60)
	for i := 0; i < 60; i++ {
		u := i % 4
		evs = append(evs, event{user: u, item: int(seqs[u][i/4])})
	}
	return evs
}

// mustConsume writes each event through h, in order, each acked.
func mustConsume(t testing.TB, h http.Handler, evs ...event) {
	t.Helper()
	for _, ev := range evs {
		expect(t, http.StatusOK, h, "POST /consume", consumeRequest{User: ev.user, Item: ev.item})
	}
}

// storeFingerprint is the node's every window, canonically encoded.
func storeFingerprint(t testing.TB, n *node) string {
	t.Helper()
	b, err := json.Marshal(n.pool.Dump())
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// referenceRun ingests every event into a fresh node, uninterrupted,
// and returns the canonical end-state fingerprint.
func referenceRun(t testing.TB, m *core.Model, evs []event, with ...func(*Options)) string {
	t.Helper()
	n := newNode(t, m, "", with...)
	defer n.Close(0)
	mustConsume(t, n, evs...)
	return storeFingerprint(t, n)
}

func waitFor(t testing.TB, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// readyOf decodes h's GET /readyz reply, which must carry a replication
// block.
func readyOf(t testing.TB, h http.Handler) readyResponse {
	t.Helper()
	rr := send(h, "GET /readyz", nil)
	ready := decodeAs[readyResponse](t, rr.Body.Bytes())
	if ready.Replication == nil {
		t.Fatalf("/readyz = %d %s: no replication block", rr.Code, rr.Body.String())
	}
	return ready
}

// waitApplied blocks until the standby's /readyz shard_applied_lsn has
// reached the primary's on every shard. caught_up is not that: a write
// acked after the standby's latest quiet poll is not in it yet. Call it
// once the primary has stopped taking writes, just before killing it.
func waitApplied(t testing.TB, primary, standby http.Handler) {
	t.Helper()
	waitFor(t, "standby applied every LSN the primary holds", func() bool {
		ps, ss := readyOf(t, primary).Replication.ShardAppliedLSN, readyOf(t, standby).Replication.ShardAppliedLSN
		for i := range ps {
			if ss[i] < ps[i] {
				return false
			}
		}
		return true
	})
}

// scrapeLagRecords sums rrc_replica_lag_records across shards from a
// live GET /metrics scrape, failing if the family is absent — the
// metric being exported at all is part of the contract.
func scrapeLagRecords(t testing.TB, h http.Handler) float64 {
	t.Helper()
	rr := send(h, "GET /metrics", nil)
	if rr.Code != http.StatusOK {
		t.Fatalf("/metrics status %d", rr.Code)
	}
	total, seen := 0.0, false
	for _, line := range strings.Split(rr.Body.String(), "\n") {
		if !strings.HasPrefix(line, "rrc_replica_lag_records") {
			continue
		}
		fields := strings.Fields(line)
		v, err := strconv.ParseFloat(fields[len(fields)-1], 64)
		if err != nil {
			t.Fatalf("bad metric line %q: %v", line, err)
		}
		total, seen = total+v, true
	}
	if !seen {
		t.Fatal("rrc_replica_lag_records not exported on /metrics")
	}
	return total
}

// chaosRouter is the router the chaos suites front their fleets with:
// probe and retry settings tuned for test time scales, and failover
// driven by the router itself.
var chaosRouter = router.Config{
	ProbeInterval: 10 * time.Millisecond,
	ProbeTimeout:  10 * time.Millisecond,
	ProbeFails:    2,
	AutoPromote:   true,
	RetryBudget:   1, // every request may fund a failover retry
	RetryBackoff:  5 * time.Millisecond,
	MaxAttempts:   4,
}

// fleetConfig shapes a fleet: Partitions pairs (a lone primary each
// without Standby) over a model of Users users (0 → 8), behind a router
// built from Router with the fleet's layout.
type fleetConfig struct {
	Partitions int
	Standby    bool
	Users      int
	Router     router.Config
}

// fleet is P replicated pairs, each pinned to its slice of the key
// space (-partition i/P) when P > 1, every node served on a listener,
// and the router in front of them.
type fleet struct {
	t     *testing.T
	nodes [][]*node // nodes[p]: partition p's primary, then its standby
	rt    *router.Router
	reg   *obs.Registry // the router's metrics
	h     *httpservetest.Server
}

func newFleet(t *testing.T, cfg fleetConfig) *fleet {
	t.Helper()
	m, _ := trained(t, max(cfg.Users, 8))
	f := &fleet{t: t, nodes: make([][]*node, cfg.Partitions)}
	for p := range f.nodes {
		pinned := func(o *Options) {
			replicated(o)
			if cfg.Partitions > 1 {
				partition(p, cfg.Partitions)(o)
			}
		}
		primary := newNode(t, m, "", pinned)
		f.nodes[p] = []*node{primary}
		if cfg.Standby {
			f.nodes[p] = append(f.nodes[p], newNode(t, m, "", pinned, follows(primary)))
		}
	}
	rc := cfg.Router
	rc.Partitions = f.layout()
	if rc.Metrics == nil {
		rc.Metrics = obs.NewRegistry()
	}
	rt, err := router.New(rc)
	if err != nil {
		t.Fatal(err)
	}
	rt.Start()
	t.Cleanup(rt.Stop)
	f.rt, f.reg, f.h = rt, rc.Metrics, httpservetest.Start(t, rt.Routes())
	return f
}

// layout is every node's current url, by partition.
func (f *fleet) layout() [][]string {
	layout := make([][]string, len(f.nodes))
	for p, pair := range f.nodes {
		for _, n := range pair {
			layout[p] = append(layout[p], n.url())
		}
	}
	return layout
}

// consume writes each event through the router, in order, retrying
// client-side on 503 (the only code the router may answer while a
// partition has no write target). Any other failure is a contract
// breach: 502 would mean an ambiguous write leaked into a test that
// never creates one, and 4xx would mean the router mangled the request.
func (f *fleet) consume(evs ...event) {
	f.t.Helper()
	for _, ev := range evs {
		deadline := time.Now().Add(15 * time.Second)
		for {
			rr := send(f.h, "POST /consume", consumeRequest{User: ev.user, Item: ev.item})
			if rr.Code == http.StatusOK {
				break
			}
			if rr.Code != http.StatusServiceUnavailable { // a 503 is durable nowhere, safe to retry
				f.t.Fatalf("consume %+v via router: status %d: %s", ev, rr.Code, rr.Body.String())
			}
			if time.Now().After(deadline) {
				f.t.Fatalf("consume %+v never landed through failover", ev)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
}

// startReaders reads each user's /recommend/user through the router
// every 2 ms, one goroutine per user, until stop. stop returns the
// first reply whose status is not among allowed, or "" if none was.
func (f *fleet) startReaders(users []int, allowed ...int) (stop func() string) {
	done := make(chan struct{})
	failure := make(chan string, 1)
	var readers sync.WaitGroup
	for _, u := range users {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				rr := send(f.h, "POST /recommend/user", recommendUserRequest{User: u, N: 3})
				if !slices.Contains(allowed, rr.Code) {
					select {
					case failure <- fmt.Sprintf("read for user %d: status %d: %s", u, rr.Code, rr.Body.String()):
					default:
					}
					return
				}
				time.Sleep(2 * time.Millisecond)
			}
		}()
	}
	return func() string {
		close(done)
		readers.Wait()
		select {
		case msg := <-failure:
			return msg
		default:
			return ""
		}
	}
}

// rejoinDeposed walks partition p's killed primary back into the fleet
// once its standby has been promoted. It restarts over its old events
// dir as a plain primary (no -peers, the worst case) and joins the
// router's topology, where one probe round must fence it; whileFenced
// then checks the fleet around it. Last it restarts as a follower of
// the promoted node and must drain its lag to zero and converge on it
// byte for byte.
func (f *fleet) rejoinDeposed(p int, whileFenced func(deposed *node)) {
	f.t.Helper()
	deposed, promoted := f.nodes[p][0], f.nodes[p][1]
	deposed.restart()
	f.rt.SetTopology(router.Topology{Partitions: f.layout()})
	waitFor(f.t, "deposed primary fenced by router probe", func() bool { return deposed.repl.Status().Fenced })
	whileFenced(deposed)

	deposed.restart(follows(promoted))
	waitFor(f.t, "rejoined follower caught up", func() bool {
		st := deposed.repl.Status()
		return st.CaughtUp && st.LagRecords == 0
	})
	waitFor(f.t, "rejoined follower byte-identical", func() bool {
		return storeFingerprint(f.t, deposed) == storeFingerprint(f.t, promoted)
	})
	if lag := scrapeLagRecords(f.t, deposed); lag != 0 {
		f.t.Fatalf("scraped lag %v after rejoin, want 0", lag)
	}
}
