package router

// White-box suite for the routing core: epoch-based write targeting,
// the read order, the retry-budget amplification bound,
// ambiguous-write safety, deadline propagation, and router-driven
// promotion — all against scripted fake backends that
// speak just enough of the rrc-server surface (/readyz,
// /replica/epoch, traffic endpoints, /admin/promote).

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tsppr/internal/obs"
	"tsppr/internal/shard"
)

// fakeNode scripts one backend. Zero value: a ready primary at epoch 0
// answering every endpoint 200.
type fakeNode struct {
	mu       sync.Mutex
	role     string // "" → primary
	epoch    uint64
	fenced   bool
	notReady bool
	lag      uint64
	applied  uint64
	caughtUp bool

	// partCount >= 1 gives the node a partition identity: /readyz
	// reports it (unless hidePartition) and keyed traffic endpoints
	// refuse non-owned users with 421 + owning-partition hint — the
	// real rrc-server ownership gate.
	partIdx       int
	partCount     int
	hidePartition bool

	consumeStatus   int           // 0 → 200
	consumeMinEpoch uint64        // >0: /consume 412s (body = this epoch) below it
	recommendStatus int           // 0 → 200
	recommendDelay  time.Duration // per-request stall before answering

	consumes   atomic.Int64
	recommends atomic.Int64
	promotes   atomic.Int64

	lastDeadlineMs atomic.Int64 // last X-RRC-Deadline-Ms seen on /consume
	lastEpochHdr   atomic.Int64 // last X-RRC-Epoch seen on /consume (-1 = absent)

	ts *httptest.Server
}

func (f *fakeNode) set(mut func(*fakeNode)) {
	f.mu.Lock()
	mut(f)
	f.mu.Unlock()
}

// refuseForeignKey is the real server's ownership gate: a partitioned
// node 421s keys it does not own, hinting at the owning partition.
func (f *fakeNode) refuseForeignKey(w http.ResponseWriter, r *http.Request) bool {
	f.mu.Lock()
	idx, count := f.partIdx, f.partCount
	f.mu.Unlock()
	if count < 2 {
		return false
	}
	var k struct {
		User int `json:"user"`
	}
	if err := json.NewDecoder(r.Body).Decode(&k); err != nil {
		return false
	}
	owner := shard.UserShard(k.User, count)
	if owner == idx {
		return false
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusMisdirectedRequest)
	fmt.Fprintf(w, `{"error":"user %d belongs to partition %d","partition":%d,"partitions":%d}`+"\n",
		k.User, owner, owner, count)
	return true
}

func (f *fakeNode) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, _ *http.Request) {
		f.mu.Lock()
		role := f.role
		if role == "" {
			role = rolePrimary
		}
		body := map[string]any{
			"status": "ready",
			"replication": map[string]any{
				"role": role, "epoch": f.epoch, "fenced": f.fenced,
				"lag_records": f.lag, "applied_lsn": f.applied, "caught_up": f.caughtUp,
			},
		}
		if f.partCount >= 1 && !f.hidePartition {
			body["partition"] = map[string]any{
				"partition": f.partIdx, "partitions": f.partCount,
			}
		}
		code := http.StatusOK
		if f.notReady || f.fenced {
			body["status"] = "recovering"
			code = http.StatusServiceUnavailable
		}
		f.mu.Unlock()
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(code)
		json.NewEncoder(w).Encode(body)
	})
	mux.HandleFunc("GET /replica/epoch", func(w http.ResponseWriter, r *http.Request) {
		f.mu.Lock()
		own := f.epoch
		code := http.StatusOK
		if raw := r.Header.Get("X-RRC-Epoch"); raw != "" {
			if theirs, err := strconv.ParseUint(raw, 10, 64); err == nil && theirs != own {
				code = http.StatusPreconditionFailed
				if theirs > own {
					f.fenced = true // the real server's SawHigherEpoch path
				}
			}
		}
		f.mu.Unlock()
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(code)
		json.NewEncoder(w).Encode(map[string]any{"epoch": own})
	})
	mux.HandleFunc("POST /consume", func(w http.ResponseWriter, r *http.Request) {
		f.consumes.Add(1)
		if f.refuseForeignKey(w, r) {
			return
		}
		if ms, err := strconv.ParseInt(r.Header.Get(DeadlineHeader), 10, 64); err == nil {
			f.lastDeadlineMs.Store(ms)
		}
		f.lastEpochHdr.Store(-1)
		if e, err := strconv.ParseInt(r.Header.Get("X-RRC-Epoch"), 10, 64); err == nil {
			f.lastEpochHdr.Store(e)
		}
		f.mu.Lock()
		status := f.consumeStatus
		minEpoch := f.consumeMinEpoch
		f.mu.Unlock()
		if minEpoch > 0 {
			theirs, _ := strconv.ParseUint(r.Header.Get("X-RRC-Epoch"), 10, 64)
			if theirs < minEpoch {
				// The real fenced-ingest 412: an ErrorBody carrying the
				// node's true epoch.
				w.Header().Set("Content-Type", "application/json")
				w.WriteHeader(http.StatusPreconditionFailed)
				fmt.Fprintf(w, `{"error":"fenced","epoch":%d}`+"\n", minEpoch)
				return
			}
		}
		if status != 0 {
			if status == http.StatusServiceUnavailable || status == http.StatusTooManyRequests {
				w.Header().Set("Retry-After", "1")
			}
			http.Error(w, "scripted failure", status)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintln(w, `{"lsn":1,"window":1}`)
	})
	serveRead := func(w http.ResponseWriter, _ *http.Request) {
		f.recommends.Add(1)
		f.mu.Lock()
		status, delay := f.recommendStatus, f.recommendDelay
		f.mu.Unlock()
		if delay > 0 {
			time.Sleep(delay)
		}
		if status != 0 {
			http.Error(w, "scripted failure", status)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintln(w, `{"items":[1],"scores":[0.5]}`)
	}
	mux.HandleFunc("POST /recommend", serveRead)
	mux.HandleFunc("POST /recommend/batch", serveRead)
	mux.HandleFunc("POST /recommend/user", func(w http.ResponseWriter, r *http.Request) {
		if f.refuseForeignKey(w, r) {
			return
		}
		serveRead(w, r)
	})
	mux.HandleFunc("POST /admin/promote", func(w http.ResponseWriter, _ *http.Request) {
		f.promotes.Add(1)
		f.mu.Lock()
		f.role = rolePrimary
		f.epoch++
		f.fenced = false
		e := f.epoch
		f.mu.Unlock()
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintf(w, `{"epoch":%d,"role":"primary"}`+"\n", e)
	})
	return mux
}

// startFakes boots the fakes and a router over them with fast probe
// settings; mutate tweaks the config before New.
func startFakes(t *testing.T, fakes []*fakeNode, mutate func(*Config)) *Router {
	t.Helper()
	urls := make([]string, len(fakes))
	for i, f := range fakes {
		f.ts = httptest.NewServer(f.handler())
		t.Cleanup(f.ts.Close)
		urls[i] = f.ts.URL
	}
	cfg := Config{
		Nodes:         urls,
		ProbeInterval: 10 * time.Millisecond,
		ProbeFails:    2,
		RetryBackoff:  time.Millisecond,
		Metrics:       obs.NewRegistry(),
	}
	if mutate != nil {
		mutate(&cfg)
	}
	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rt.Start()
	t.Cleanup(rt.Stop)
	return rt
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func post(h http.Handler, path, body string, headers map[string]string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	for k, v := range headers {
		req.Header.Set(k, v)
	}
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, req)
	return rr
}

func TestRouterWritesFollowHighestEpoch(t *testing.T) {
	old := &fakeNode{epoch: 1}
	neu := &fakeNode{epoch: 2}
	rt := startFakes(t, []*fakeNode{old, neu}, nil)
	h := rt.Routes()

	rr := post(h, "/consume", `{"user":0,"item":1}`, nil)
	if rr.Code != http.StatusOK {
		t.Fatalf("consume status %d: %s", rr.Code, rr.Body.String())
	}
	if neu.consumes.Load() == 0 || old.consumes.Load() != 0 {
		t.Fatalf("write went to epoch-1 node (old=%d new=%d)", old.consumes.Load(), neu.consumes.Load())
	}
	// The write carried the fleet max epoch — the fencing stamp.
	if got := neu.lastEpochHdr.Load(); got != 2 {
		t.Fatalf("X-RRC-Epoch on write = %d, want 2", got)
	}
	// And the probe loop fences the stale node via the same contract.
	waitFor(t, "old primary fenced by probe", func() bool {
		old.mu.Lock()
		defer old.mu.Unlock()
		return old.fenced
	})
}

// TestRouterReadOrder pins the one read rule: a user-keyed read goes to
// the partition's write target and reaches another node only when that
// one cannot answer; a stateless read spreads; fenced and misplaced
// nodes are never offered to either. Each row sends 8 reads and bounds
// how many each node may have served.
func TestRouterReadOrder(t *testing.T) {
	const reads = 8
	const keyed, stateless = "/recommend/user", "/recommend"
	all, none := [2]int64{reads, reads}, [2]int64{0, 0}
	follower := func() *fakeNode { return &fakeNode{role: roleFollower, caughtUp: true} }
	failing := func() *fakeNode { return &fakeNode{recommendStatus: http.StatusInternalServerError} }

	cases := []struct {
		name        string
		fakes       []*fakeNode
		killPrimary bool // close node 0's listener and wait out its write-target status
		path        string
		wantCode    int
		served      [][2]int64 // per node: min, max reads served
	}{
		{"keyed read stays on the primary next to a caught-up follower",
			[]*fakeNode{{caughtUp: true}, follower()}, false, keyed, http.StatusOK, [][2]int64{all, none}},
		{"keyed read falls to the follower when the primary answers 500",
			[]*fakeNode{failing(), follower()}, false, keyed, http.StatusOK, [][2]int64{all, all}},
		{"keyed read is answered by the follower when there is no write target",
			[]*fakeNode{{caughtUp: true}, follower()}, true, keyed, http.StatusOK, [][2]int64{none, all}},
		{"keyed read is never offered a fenced or misplaced node",
			[]*fakeNode{failing(), {fenced: true}, {partIdx: 1, partCount: 2}}, false, keyed,
			http.StatusInternalServerError, [][2]int64{all, none, none}},
		{"stateless read is never offered a fenced or misplaced node",
			[]*fakeNode{failing(), {fenced: true}, {partIdx: 1, partCount: 2}}, false, stateless,
			http.StatusInternalServerError, [][2]int64{all, none, none}},
		{"stateless read spreads over primary and follower",
			[]*fakeNode{{caughtUp: true}, follower()}, false, stateless, http.StatusOK,
			[][2]int64{{1, reads - 1}, {1, reads - 1}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rt := startFakes(t, tc.fakes, func(c *Config) {
				c.RetryBudget = 1 // every request may fund its own fallback attempt
				// A probe that times out on a busy box wipes the node's fenced
				// and misplaced marks until the next round.
				c.ProbeTimeout = time.Second
			})
			if tc.killPrimary {
				tc.fakes[0].ts.Close()
				waitFor(t, "router seeing no write target", func() bool {
					st, _ := rt.statusSnapshot()
					return st.WriteTarget == ""
				})
			}
			h := rt.Routes()
			for i := 0; i < reads; i++ {
				rr := post(h, tc.path, `{"user":0,"history":[1],"n":3}`, nil)
				if rr.Code != tc.wantCode {
					t.Fatalf("read %d status %d, want %d: %s", i, rr.Code, tc.wantCode, rr.Body.String())
				}
			}
			for i, f := range tc.fakes {
				if got := f.recommends.Load(); got < tc.served[i][0] || got > tc.served[i][1] {
					t.Errorf("node %d served %d of %d reads, want %d..%d", i, got, reads, tc.served[i][0], tc.served[i][1])
				}
			}
		})
	}
}

func TestRouterReadFailsOverAcrossNodes(t *testing.T) {
	bad := &fakeNode{recommendStatus: http.StatusInternalServerError}
	good := &fakeNode{role: roleFollower, caughtUp: true}
	rt := startFakes(t, []*fakeNode{bad, good}, func(c *Config) {
		c.RetryBudget = 1 // every request may fund its own failover retry
	})
	h := rt.Routes()

	ok := 0
	for i := 0; i < 8; i++ {
		if rr := post(h, "/recommend", `{"user":0,"history":[1],"n":1}`, nil); rr.Code == http.StatusOK {
			ok++
		}
	}
	if ok != 8 {
		t.Fatalf("only %d/8 reads succeeded with a healthy follower available", ok)
	}
	if good.recommends.Load() < 8 {
		t.Fatalf("healthy node served %d reads, want >= 8", good.recommends.Load())
	}
}

func TestRouterRetryBudgetBoundsAmplification(t *testing.T) {
	const requests, ratio, burst = 100, 0.1, 2.0
	down := &fakeNode{consumeStatus: http.StatusServiceUnavailable}
	rt := startFakes(t, []*fakeNode{down}, func(c *Config) {
		c.RetryBudget = ratio
		c.RetryBurst = burst
		c.MaxAttempts = 50 // far above the budget: the budget must bind
		c.Deadline = 5 * time.Second
	})
	h := rt.Routes()

	hdr := map[string]string{"X-RRC-Client": "loadgen"}
	for i := 0; i < requests; i++ {
		rr := post(h, "/consume", `{"user":0,"item":1}`, hdr)
		if rr.Code != http.StatusServiceUnavailable {
			t.Fatalf("request %d: status %d, want 503", i, rr.Code)
		}
		if rr.Result().Header.Get("Retry-After") == "" {
			t.Fatalf("request %d: 503 without Retry-After", i)
		}
	}
	attempts := down.consumes.Load()
	bound := int64(requests*(1+ratio) + burst)
	if attempts > bound {
		t.Fatalf("amplification: %d upstream attempts for %d requests (budget bound %d)", attempts, requests, bound)
	}
	if attempts < requests {
		t.Fatalf("only %d attempts for %d requests — requests not reaching the backend", attempts, requests)
	}
}

func TestRouterShedsWhenBackendDead(t *testing.T) {
	dead := &fakeNode{}
	rt := startFakes(t, []*fakeNode{dead}, func(c *Config) {
		c.Deadline = 300 * time.Millisecond
	})
	h := rt.Routes()
	dead.ts.Close() // SIGKILL-shaped: connections refused from here on

	rr := post(h, "/consume", `{"user":0,"item":1}`, nil)
	if rr.Code != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503 shed", rr.Code)
	}
	if rr.Result().Header.Get("Retry-After") == "" {
		t.Fatal("local shed without Retry-After")
	}
	if rt.shed.Value() == 0 {
		t.Fatal("rrc_router_shed_total not incremented")
	}
}

func TestRouterAmbiguousWriteNotRetried(t *testing.T) {
	// A backend that accepts the request and then kills the connection:
	// the canonical ambiguous outcome. The router must answer 502 after
	// exactly one attempt — a retry could double-apply the event.
	var hits atomic.Int64
	mux := http.NewServeMux()
	ambiguous := &fakeNode{}
	base := ambiguous.handler()
	mux.HandleFunc("POST /consume", func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		hj, ok := w.(http.Hijacker)
		if !ok {
			t.Error("recorder cannot hijack")
			return
		}
		conn, _, err := hj.Hijack()
		if err == nil {
			conn.Close()
		}
	})
	mux.Handle("/", base)
	ambiguous.ts = httptest.NewServer(mux)
	t.Cleanup(ambiguous.ts.Close)

	rt, err := New(Config{
		Nodes:         []string{ambiguous.ts.URL},
		ProbeInterval: 10 * time.Millisecond,
		RetryBackoff:  time.Millisecond,
		Metrics:       obs.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	rt.Start()
	t.Cleanup(rt.Stop)

	rr := post(rt.Routes(), "/consume", `{"user":0,"item":1}`, nil)
	if rr.Code != http.StatusBadGateway {
		t.Fatalf("ambiguous write answered %d, want 502: %s", rr.Code, rr.Body.String())
	}
	if got := hits.Load(); got != 1 {
		t.Fatalf("ambiguous write attempted %d times, want exactly 1", got)
	}
}

func TestRouterPropagatesDeadlineHeader(t *testing.T) {
	n := &fakeNode{}
	rt := startFakes(t, []*fakeNode{n}, func(c *Config) {
		c.Deadline = 2 * time.Second
		c.TryTimeout = 2 * time.Second
	})
	h := rt.Routes()

	// Client supplies 250ms: the upstream header must carry the (lower)
	// remaining budget, never the router default.
	rr := post(h, "/consume", `{"user":0,"item":1}`, map[string]string{DeadlineHeader: "250"})
	if rr.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rr.Code, rr.Body.String())
	}
	ms := n.lastDeadlineMs.Load()
	if ms <= 0 || ms > 250 {
		t.Fatalf("propagated deadline %dms, want in (0,250]", ms)
	}
}

func TestRouterAutoPromotesOnPrimaryLoss(t *testing.T) {
	primary := &fakeNode{caughtUp: true}
	standby := &fakeNode{role: roleFollower, caughtUp: true}
	rt := startFakes(t, []*fakeNode{primary, standby}, func(c *Config) {
		c.AutoPromote = true
	})
	h := rt.Routes()

	// Sanity: writes land on the primary first.
	if rr := post(h, "/consume", `{"user":0,"item":1}`, nil); rr.Code != http.StatusOK {
		t.Fatalf("pre-kill consume status %d", rr.Code)
	}

	primary.ts.Close()
	waitFor(t, "router-driven promotion", func() bool { return standby.promotes.Load() > 0 })
	waitFor(t, "writes landing on promoted node", func() bool {
		rr := post(h, "/consume", `{"user":0,"item":1}`, nil)
		return rr.Code == http.StatusOK && standby.consumes.Load() > 0
	})
	if rt.failovers.Value() == 0 {
		t.Fatal("rrc_router_failovers_total not incremented")
	}
}

// TestRouterPromotesMostAppliedStandby: caught_up is one poll old, so a
// follower reporting it can be behind one that does not. The router
// promotes by what each standby holds now.
func TestRouterPromotesMostAppliedStandby(t *testing.T) {
	primary := &fakeNode{caughtUp: true}
	stale := &fakeNode{role: roleFollower, caughtUp: true, applied: 100}
	ahead := &fakeNode{role: roleFollower, applied: 130, lag: 5}
	startFakes(t, []*fakeNode{primary, stale, ahead}, func(c *Config) {
		c.AutoPromote = true
		c.ProbeTimeout = time.Second
	})

	primary.ts.Close()
	waitFor(t, "router-driven promotion", func() bool {
		return stale.promotes.Load()+ahead.promotes.Load() > 0
	})
	if stale.promotes.Load() != 0 || ahead.promotes.Load() != 1 {
		t.Fatalf("promoted the standby 30 records behind (stale=%d ahead=%d promotions)",
			stale.promotes.Load(), ahead.promotes.Load())
	}
}

func TestRouterWriteFoldsFenceEpoch(t *testing.T) {
	// The node's ingest path demands epoch 7 while its probed view says
	// 2: the first write 412s, and the router must fold the fence
	// body's epoch into its view so the retry stamps the fresher epoch
	// — not deterministically re-fail until the next probe round.
	n := &fakeNode{epoch: 2, caughtUp: true, consumeMinEpoch: 7}
	rt := startFakes(t, []*fakeNode{n}, func(c *Config) {
		c.ProbeInterval = time.Hour // only the fence fold can refresh the epoch
		c.RetryBudget = 1
	})

	rr := post(rt.Routes(), "/consume", `{"user":0,"item":1}`, nil)
	if rr.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rr.Code, rr.Body.String())
	}
	if got := n.consumes.Load(); got != 2 {
		t.Fatalf("%d consume attempts, want 2 (412 fence, then success)", got)
	}
	if got := n.lastEpochHdr.Load(); got != 7 {
		t.Fatalf("retry stamped epoch %d, want the fence body's 7", got)
	}
}

func TestRouterTopologyChangeDoesNotDeadlockScrape(t *testing.T) {
	// Regression: SetTopology used to register per-node gauges while
	// holding rt.mu, while a /metrics scrape holds the registry lock
	// and calls gauge closures that take rt.mu — an AB-BA deadlock when
	// a topology change that adds a node races a scrape. Hammer both
	// sides concurrently; a regression hangs the test.
	n := &fakeNode{caughtUp: true}
	rt := startFakes(t, []*fakeNode{n}, nil)
	h := rt.Routes()

	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 100; i++ {
			rt.SetTopology(Topology{Partitions: [][]string{{n.ts.URL, fmt.Sprintf("http://added-%d.invalid:1", i)}}})
		}
	}()
	for {
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/metrics", nil))
		if rr.Code != http.StatusOK {
			t.Fatalf("/metrics status %d", rr.Code)
		}
		select {
		case <-done:
			return
		default:
		}
	}
}

func TestRouterStopIsSafeWhenMisused(t *testing.T) {
	n := &fakeNode{caughtUp: true}
	n.ts = httptest.NewServer(n.handler())
	t.Cleanup(n.ts.Close)

	// Stop before Start must return immediately, not wait on a probe
	// loop that never ran.
	never, err := New(Config{Nodes: []string{n.ts.URL}})
	if err != nil {
		t.Fatal(err)
	}
	never.Stop()

	// Concurrent Stops must not double-close (panic).
	rt, err := New(Config{Nodes: []string{n.ts.URL}, ProbeInterval: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	rt.Start()
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rt.Stop()
		}()
	}
	wg.Wait()
}

func TestRouterOwnEndpoints(t *testing.T) {
	n := &fakeNode{caughtUp: true}
	rt := startFakes(t, []*fakeNode{n}, nil)
	h := rt.Routes()

	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/readyz", nil))
	if rr.Code != http.StatusOK {
		t.Fatalf("/readyz status %d: %s", rr.Code, rr.Body.String())
	}
	var st Status
	if err := json.Unmarshal(rr.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.WriteTarget != n.ts.URL || len(st.Nodes) != 1 {
		t.Fatalf("readyz body %+v", st)
	}

	rr = httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if rr.Code != http.StatusOK {
		t.Fatalf("/metrics status %d", rr.Code)
	}
	body := rr.Body.String()
	for _, family := range []string{"rrc_router_node_state", "rrc_router_node_epoch", "rrc_router_requests_total"} {
		if !strings.Contains(body, family) {
			t.Fatalf("/metrics missing %s family", family)
		}
	}
	if err := obs.ValidateExposition(strings.NewReader(body)); err != nil {
		t.Fatalf("exposition invalid: %v", err)
	}

	// Kill the only backend: /readyz flips to 503 with Retry-After.
	n.ts.Close()
	waitFor(t, "router readyz 503", func() bool {
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/readyz", nil))
		return rr.Code == http.StatusServiceUnavailable && rr.Result().Header.Get("Retry-After") != ""
	})
}
