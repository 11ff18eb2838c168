package router

// Partitioned-routing suite: key routing across replicated pairs,
// per-partition failover isolation, 421 ownership folding, the
// partitioned topology file format and its cutover, probe jitter, and
// the retry-budget ledger metrics.

import (
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"tsppr/internal/obs"
	"tsppr/internal/shard"
)

// userOwnedBy finds a small user id routed to partition p of count.
func userOwnedBy(t *testing.T, p, count int) int {
	t.Helper()
	for u := 0; u < 1_000_000; u++ {
		if shard.UserShard(u, count) == p {
			return u
		}
	}
	t.Fatalf("no user for partition %d/%d", p, count)
	return -1
}

// startPartitionedFakes boots pairs[i] as partition i (stamping each
// fake's partition identity) and a router over the partitioned layout.
func startPartitionedFakes(t *testing.T, pairs [][]*fakeNode, mutate func(*Config)) *Router {
	t.Helper()
	layout := make([][]string, len(pairs))
	for i, pair := range pairs {
		for _, f := range pair {
			f.partIdx, f.partCount = i, len(pairs)
			f.ts = httptest.NewServer(f.handler())
			t.Cleanup(f.ts.Close)
			layout[i] = append(layout[i], f.ts.URL)
		}
	}
	cfg := Config{
		Partitions:    layout,
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

func consumeBody(user int) string {
	return `{"user":` + strconv.Itoa(user) + `,"item":1}`
}

func TestRouterPartitionedWritesRouteByKey(t *testing.T) {
	p0 := &fakeNode{epoch: 1, caughtUp: true}
	p0s := &fakeNode{role: roleFollower, epoch: 1, caughtUp: true}
	p1 := &fakeNode{epoch: 4, caughtUp: true}
	p1s := &fakeNode{role: roleFollower, epoch: 4, caughtUp: true}
	rt := startPartitionedFakes(t, [][]*fakeNode{{p0, p0s}, {p1, p1s}}, nil)
	h := served(t, rt)

	u0 := userOwnedBy(t, 0, 2)
	u1 := userOwnedBy(t, 1, 2)
	for i := 0; i < 4; i++ {
		if rr := post(h, "/consume", consumeBody(u0), nil); rr.Code != http.StatusOK {
			t.Fatalf("partition-0 write %d: status %d: %s", i, rr.Code, rr.Body.String())
		}
		if rr := post(h, "/consume", consumeBody(u1), nil); rr.Code != http.StatusOK {
			t.Fatalf("partition-1 write %d: status %d: %s", i, rr.Code, rr.Body.String())
		}
	}
	if p0.consumes.Load() != 4 || p1.consumes.Load() != 4 {
		t.Fatalf("writes landed p0=%d p1=%d, want 4/4", p0.consumes.Load(), p1.consumes.Load())
	}
	if p0s.consumes.Load() != 0 || p1s.consumes.Load() != 0 {
		t.Fatal("writes reached standbys")
	}
	// The fakes 421 any non-owned key: zero misdirects proves the
	// router and the nodes agree on the hash for every routed key.
	if rt.misdirects.Value() != 0 {
		t.Fatalf("%d misdirects in a correctly configured fleet", rt.misdirects.Value())
	}

	// Keyed reads stay inside the owning partition too.
	for i := 0; i < 6; i++ {
		if rr := post(h, "/recommend/user", `{"user":`+strconv.Itoa(u1)+`,"n":3}`, nil); rr.Code != http.StatusOK {
			t.Fatalf("read %d: status %d: %s", i, rr.Code, rr.Body.String())
		}
	}
	if got := p1.recommends.Load() + p1s.recommends.Load(); got != 6 {
		t.Fatalf("partition 1 served %d of 6 keyed reads", got)
	}
	if got := p0.recommends.Load() + p0s.recommends.Load(); got != 0 {
		t.Fatalf("partition 0 served %d reads for partition-1 keys", got)
	}

	// A partitioned fleet cannot place a keyless request: loud 400,
	// never a guess.
	if rr := post(h, "/consume", `{"item":1}`, nil); rr.Code != http.StatusBadRequest {
		t.Fatalf("keyless write on P=2: status %d, want 400", rr.Code)
	}
}

func TestRouterPartitionFailureIsolatedAndFailsOver(t *testing.T) {
	p0 := &fakeNode{epoch: 7, caughtUp: true}
	p0s := &fakeNode{role: roleFollower, epoch: 7, caughtUp: true}
	p1 := &fakeNode{epoch: 1, caughtUp: true}
	p1s := &fakeNode{role: roleFollower, epoch: 1, caughtUp: true}
	rt := startPartitionedFakes(t, [][]*fakeNode{{p0, p0s}, {p1, p1s}}, func(c *Config) {
		c.AutoPromote = true
	})
	h := served(t, rt)
	u0 := userOwnedBy(t, 0, 2)
	u1 := userOwnedBy(t, 1, 2)

	// Kill partition 0's primary. Partition 1 must never notice.
	p0.ts.Close()
	for i := 0; i < 10; i++ {
		if rr := post(h, "/consume", consumeBody(u1), nil); rr.Code != http.StatusOK {
			t.Fatalf("partition-1 write %d failed during partition-0 outage: %d: %s", i, rr.Code, rr.Body.String())
		}
	}

	// The router promotes partition 0's standby on its own...
	waitFor(t, "partition-0 standby promoted", func() bool { return p0s.promotes.Load() > 0 })
	waitFor(t, "partition-0 writes recover", func() bool {
		return post(h, "/consume", consumeBody(u0), nil).Code == http.StatusOK && p0s.consumes.Load() > 0
	})
	if rt.failovers.Value() == 0 {
		t.Fatal("rrc_router_failovers_total not incremented")
	}

	// ...and partition 1's timeline was never touched: partition 0 ran
	// at epoch 7 (now 8), but partition 1's primary must not have been
	// fenced by a cross-partition epoch stamp.
	p1.mu.Lock()
	fenced := p1.fenced
	p1.mu.Unlock()
	if fenced {
		t.Fatal("partition 1's primary was fenced by partition 0's epoch — epochs leaked across partitions")
	}
}

func TestRouterMisdirectFoldsNodeOut(t *testing.T) {
	// Topology says this node is partition 0 of 2, but the node itself
	// was started as partition 1 of 2 (hidden from /readyz so only the
	// 421 path can reveal it). The write must fail loudly — 421 or a
	// shed — with the misconfiguration folded into the router's view
	// and counted, never silently misrouted.
	wrong := &fakeNode{caughtUp: true, hidePartition: true}
	p1 := &fakeNode{caughtUp: true}
	rt := startPartitionedFakes(t, [][]*fakeNode{{wrong}, {p1}}, nil)
	wrong.set(func(f *fakeNode) { f.partIdx = 1 }) // actually owns partition 1

	h := served(t, rt)
	u0 := userOwnedBy(t, 0, 2)
	rr := post(h, "/consume", consumeBody(u0), nil)
	if rr.Code == http.StatusOK {
		t.Fatalf("cross-partition write succeeded: %s", rr.Body.String())
	}
	if rt.misdirects.Value() == 0 {
		t.Fatal("rrc_router_misdirects_total not incremented")
	}
	waitFor(t, "misplaced node folded out of routing", func() bool {
		st, _ := rt.statusSnapshot()
		for _, ns := range st.Nodes {
			if ns.URL == wrong.ts.URL && ns.Misplaced {
				return true
			}
		}
		return false
	})
}

func TestRouterProbeDetectsMisplacedNode(t *testing.T) {
	// Same misconfiguration, but the node reports its identity in
	// /readyz: the probe alone must fold it out before any traffic is
	// misrouted. A root that says 0/1 (started without -partition) is
	// an identity like any other: in a P=2 topology it is misplaced.
	for name, owns := range map[string][2]int{"owns 1/2": {1, 2}, "owns 0/1": {0, 1}} {
		t.Run(name, func(t *testing.T) {
			wrong := &fakeNode{caughtUp: true}
			p1 := &fakeNode{caughtUp: true}
			rt := startPartitionedFakes(t, [][]*fakeNode{{wrong}, {p1}}, nil)
			wrong.set(func(f *fakeNode) { f.partIdx, f.partCount = owns[0], owns[1] })

			waitFor(t, "probe marks node misplaced", func() bool {
				st, _ := rt.statusSnapshot()
				for _, ns := range st.Nodes {
					if ns.URL == wrong.ts.URL && ns.Misplaced {
						return true
					}
				}
				return false
			})
			// With its only node misplaced, partition 0 sheds writes
			// locally — they are provably never misapplied.
			before := wrong.consumes.Load()
			rr := post(served(t, rt), "/consume", consumeBody(userOwnedBy(t, 0, 2)), nil)
			if rr.Code != http.StatusServiceUnavailable {
				t.Fatalf("write to a partition with only a misplaced node: status %d, want 503", rr.Code)
			}
			if wrong.consumes.Load() != before {
				t.Fatal("write reached a node the probe had already marked misplaced")
			}
		})
	}
}

func TestRouterPartitionedTopologyFileAndCutover(t *testing.T) {
	a := &fakeNode{caughtUp: true}
	b := &fakeNode{caughtUp: true, partIdx: 1, partCount: 2}
	a.ts = httptest.NewServer(a.handler())
	b.ts = httptest.NewServer(b.handler())
	t.Cleanup(a.ts.Close)
	t.Cleanup(b.ts.Close)

	// Boot on the single pair.
	path := filepath.Join(t.TempDir(), "topology")
	single := "partitions 1\npartition 0 " + a.ts.URL + "\n"
	if err := os.WriteFile(path, []byte(single), 0o644); err != nil {
		t.Fatal(err)
	}
	rt, err := New(Config{
		TopologyPath:  path,
		ProbeInterval: 10 * time.Millisecond,
		RetryBackoff:  time.Millisecond,
		Metrics:       obs.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	rt.Start()
	t.Cleanup(rt.Stop)
	h := served(t, rt)
	move := userOwnedBy(t, 1, 2)

	if rr := post(h, "/consume", consumeBody(move), nil); rr.Code != http.StatusOK || a.consumes.Load() != 1 {
		t.Fatalf("pre-cutover write: status %d, %d on the single pair", rr.Code, a.consumes.Load())
	}

	// Cut over: the operator rewrites the file as the split layout.
	final := "partitions 2\npartition 0 " + a.ts.URL + "\npartition 1 " + b.ts.URL + "\n"
	if err := os.WriteFile(path, []byte(final), 0o644); err != nil {
		t.Fatal(err)
	}
	future := time.Now().Add(2 * time.Second)
	if err := os.Chtimes(path, future, future); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "cutover: the user's writes land on the new owner", func() bool {
		return post(h, "/consume", consumeBody(move), nil).Code == http.StatusOK && b.consumes.Load() > 0
	})
	if got := rt.P(); got != 2 {
		t.Fatalf("post-cutover partition count %d, want 2", got)
	}
}

// goodTopologyDoc and badTopologyDocs are the documents the parser
// tests assert on; FuzzParseTopology seeds from them too.
const goodTopologyDoc = `# split fleet
partitions 2
partition 0 http://a:1 http://b:2
partition 1 http://c:3
partition 1 http://d:4/
`

var badTopologyDocs = map[string]string{
	"missing partition":  "partitions 2\npartition 0 http://a:1\n",
	"duplicate node":     "partitions 2\npartition 0 http://a:1\npartition 1 http://a:1\n",
	"node listed twice":  "partitions 1\npartition 0 http://a:1 http://a:1\n",
	"index out of range": "partitions 2\npartition 2 http://a:1\n",
	"body before header": "partition 0 http://a:1\npartitions 1\n",
	"unknown directive":  "partitions 1\nshard 0 http://a:1\n",
	"zero partitions":    "partitions 0\n",
	"count over the cap": "partitions 65537\npartition 0 http://a:1\n",
	"space inside a url": "partitions 1\npartition 0 http://a:1/x y\n",
	"bare urls":          "# fleet\nhttp://a:1\nhttp://b:2\n",
	"bare url, padded":   "# fleet\nhttp://a:8395\n\n  http://b:8396/  \n",
	"no header":          "# nothing here\n",
	"not a url":          "::::\n",
}

// badStaticLayouts are Config.Partitions values (rrc-router -nodes a,b
// is {{a, b}}) that New must refuse with the checks a file gets.
var badStaticLayouts = map[string][][]string{
	"no scheme":                 {{"localhost:8395"}},
	"duplicate once normalized": {{"http://a:1", "http://a:1/"}},
	"space inside a static url": {{"http://a:1/x y"}},
	"one url in two partitions": {{"http://a:1"}, {"http://a:1/"}},
}

func TestParseTopologyPartitionedFormat(t *testing.T) {
	topo, err := ParseTopology(strings.NewReader(goodTopologyDoc), "t")
	if err != nil {
		t.Fatal(err)
	}
	if err := topo.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(topo.Partitions) != 2 {
		t.Fatalf("parsed %d partitions", len(topo.Partitions))
	}
	// `partition 1` lines append, and trailing slashes normalize away.
	if got := topo.Partitions[1]; len(got) != 2 || got[1] != "http://d:4" {
		t.Fatalf("partition 1 = %v", got)
	}

	for name, bad := range badTopologyDocs {
		topo, err := ParseTopology(strings.NewReader(bad), "t")
		if err == nil {
			err = topo.Validate()
		}
		if err == nil {
			t.Errorf("%s: accepted", name)
		}
	}

	for name, layout := range badStaticLayouts {
		if _, err := New(Config{Partitions: layout}); err == nil {
			t.Errorf("static layout %s: accepted", name)
		}
	}

	// The count sizes an allocation, so the parser itself caps it.
	if _, err := ParseTopology(strings.NewReader(badTopologyDocs["count over the cap"]), "t"); err == nil {
		t.Error("partitions 65537 parsed: the header count is not capped")
	}
}

func TestProbeDelayJitter(t *testing.T) {
	// Satellite contract: inter-round spacing is ProbeInterval ±20%,
	// and actually varies — a fleet of routers must not phase-lock
	// their probe bursts.
	const interval = time.Second
	rng := rand.New(rand.NewSource(1))
	distinct := map[time.Duration]bool{}
	for i := 0; i < 1000; i++ {
		d := probeDelay(interval, rng)
		if d < 800*time.Millisecond || d > 1200*time.Millisecond {
			t.Fatalf("draw %d: %s outside [0.8s,1.2s]", i, d)
		}
		distinct[d] = true
	}
	if len(distinct) < 100 {
		t.Fatalf("only %d distinct delays in 1000 draws — not jittered", len(distinct))
	}
}
