package serve

// Chaos suite for the full routed topology: rrc-router in front of a
// primary/standby pair, mixed live traffic, primary killed mid-run.
// The contract under test is the PR's headline acceptance criterion:
// zero acknowledged writes lost, reads served continuously through the
// failover, the router converging on the promoted node with no manual
// intervention, and the deposed primary rejoining fenced and draining
// its lag to zero. The nodes and the router run in-process on
// httpserve, the server both binaries use ("kill" = close the listener
// and every connection and abandon the pool, the state a SIGKILL
// leaves); the router is the real internal/router engine.

import (
	"fmt"
	"net/http"
	"sync"
	"testing"
	"time"

	"tsppr/internal/faultinject"
	"tsppr/internal/httpserve/httpservetest"
	"tsppr/internal/obs"
	"tsppr/internal/router"
)

// newChaosRouter builds a router over the given node URLs with probe
// and retry settings tuned for test time scales.
func newChaosRouter(t *testing.T, reg *obs.Registry, urls ...string) *router.Router {
	t.Helper()
	rt, err := router.New(router.Config{
		Partitions:    [][]string{urls},
		ProbeInterval: 10 * time.Millisecond,
		ProbeTimeout:  10 * time.Millisecond,
		ProbeFails:    2,
		AutoPromote:   true,
		RetryBudget:   1, // every request may fund a failover retry
		RetryBackoff:  5 * time.Millisecond,
		MaxAttempts:   4,
		Metrics:       reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	rt.Start()
	t.Cleanup(rt.Stop)
	return rt
}

// consumeViaRouter writes one event through the router, retrying
// client-side on 503 (the only code the router may answer while the
// fleet has no write target). Any other failure is a contract breach:
// 502 would mean an ambiguous write leaked into a test that never
// creates one, and 4xx would mean the router mangled the request.
func consumeViaRouter(t *testing.T, h http.Handler, ev event) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for {
		rr := postJSON(t, h, "/consume", consumeRequest{User: ev.user, Item: ev.item})
		switch rr.Code {
		case http.StatusOK:
			return
		case http.StatusServiceUnavailable:
			// Not durable anywhere, safe to retry.
		default:
			t.Fatalf("consume %+v via router: status %d: %s", ev, rr.Code, rr.Body.String())
		}
		if time.Now().After(deadline) {
			t.Fatalf("consume %+v never landed through failover", ev)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestRouterFailoverZeroAckedWriteLoss(t *testing.T) {
	base, seqs := testServer(t)
	m := base.currentModel()
	evs := chaosEvents(seqs)
	preKill, postKill := evs[:30], evs[30:45]

	// Node A: primary. Node B: standby tailing A. Failover is the
	// router's job.
	dirA := t.TempDir()
	srvA := bootRepl(t, m, dirA, nil)
	tsA := httpservetest.Start(t, srvA)
	srvB := bootRepl(t, m, t.TempDir(), func(o *Options) { o.FollowURL = tsA.URL })
	tsB := httpservetest.Start(t, srvB)
	defer tsB.Close()
	defer srvB.Close(0)

	reg := obs.NewRegistry()
	rt := newChaosRouter(t, reg, tsA.URL, tsB.URL)
	h := httpservetest.Start(t, rt.Routes())

	// Continuous reads: a client hammering /recommend/user through the
	// router for the whole run, including the kill window. Every
	// response must be 200 or 404 (no session yet) — never an error.
	readUser := preKill[0].user
	stopReads := make(chan struct{})
	readFailure := make(chan string, 1)
	var readers sync.WaitGroup
	readers.Add(1)
	go func() {
		defer readers.Done()
		for {
			select {
			case <-stopReads:
				return
			default:
			}
			rr := postJSON(t, h, "/recommend/user", recommendUserRequest{User: readUser, N: 3})
			if rr.Code != http.StatusOK && rr.Code != http.StatusNotFound {
				select {
				case readFailure <- fmt.Sprintf("read status %d: %s", rr.Code, rr.Body.String()):
				default:
				}
				return
			}
			time.Sleep(2 * time.Millisecond)
		}
	}()

	// Phase 1: healthy fleet. Every write routes to A and succeeds.
	for _, ev := range preKill {
		consumeViaRouter(t, h, ev)
	}
	waitFor(t, "standby caught up pre-kill", func() bool { return replStatusOf(srvB).CaughtUp })
	waitApplied(t, srvA, srvB)

	// Kill the primary: listener closed, pool abandoned un-closed.
	tsA.Close()

	// Phase 2: writes keep landing — the router must notice A is gone,
	// promote B itself, and route there. Reads never stop in between.
	for _, ev := range postKill {
		consumeViaRouter(t, h, ev)
	}
	waitFor(t, "router-driven promotion", func() bool {
		st := replStatusOf(srvB)
		return st.Role == "primary" && st.Epoch > 0
	})
	if got := reg.SumCounters("rrc_router_failovers_total"); got < 1 {
		t.Fatalf("rrc_router_failovers_total = %d, want >= 1", got)
	}

	close(stopReads)
	readers.Wait()
	select {
	case msg := <-readFailure:
		t.Fatalf("reads did not survive failover: %s", msg)
	default:
	}

	// Zero acked-write loss: B's end state over every acknowledged
	// event is byte-identical to an unfaulted run of the same prefix.
	want := referenceRun(t, m, evs[:45], func(o *Options) { o.Shards = 2 })
	waitFor(t, "promoted node holding all acked writes", func() bool {
		return storeFingerprint(t, srvB) == want
	})

	// Phase 3: the deposed primary restarts over its old data directory
	// as a plain primary (no -peers — the worst case). One router probe
	// round must fence it via the X-RRC-Epoch contract.
	srvA2 := bootRepl(t, m, dirA, nil)
	tsA2 := httpservetest.Start(t, srvA2)
	rt.SetTopology(router.Topology{Partitions: [][]string{{tsA2.URL, tsB.URL}}})
	waitFor(t, "deposed primary fenced by router probe", func() bool {
		return replStatusOf(srvA2).Fenced
	})

	// Writes still reach only the true primary while the fenced node
	// loiters in the topology.
	consumeViaRouter(t, h, evs[45])
	if st := replStatusOf(srvA2); st.Role != "primary" || !st.Fenced {
		t.Fatalf("fenced node changed role unexpectedly: %+v", st)
	}

	// Phase 4: rejoin. A restarts as a follower of B and drains its
	// replication lag to zero, converging byte-identically.
	tsA2.Close()
	if _, err := srvA2.Close(0); err != nil {
		t.Fatalf("closing fenced node: %v", err)
	}
	srvA3 := bootRepl(t, m, dirA, func(o *Options) { o.FollowURL = tsB.URL })
	defer srvA3.Close(0)
	waitFor(t, "rejoined follower caught up", func() bool {
		st := replStatusOf(srvA3)
		return st.CaughtUp && st.LagRecords == 0
	})
	waitFor(t, "rejoined follower byte-identical", func() bool {
		return storeFingerprint(t, srvA3) == storeFingerprint(t, srvB)
	})
	if lag := scrapeLagRecords(t, srvA3); lag != 0 {
		t.Fatalf("scraped lag %v after rejoin, want 0", lag)
	}
}

// TestRouterFollowsOperatorPromotion covers the other failover mode:
// auto-promote off, an operator promotes the standby by hand, and the
// router — purely from probing — must converge its write routing on
// the new primary and fence the deposed one.
func TestRouterFollowsOperatorPromotion(t *testing.T) {
	base, seqs := testServer(t)
	m := base.currentModel()
	evs := chaosEvents(seqs)

	srvA := bootRepl(t, m, t.TempDir(), nil)
	tsA := httpservetest.Start(t, srvA)
	defer tsA.Close()
	defer srvA.Close(0)
	srvB := bootRepl(t, m, t.TempDir(), func(o *Options) { o.FollowURL = tsA.URL })
	tsB := httpservetest.Start(t, srvB)
	defer tsB.Close()
	defer srvB.Close(0)

	reg := obs.NewRegistry()
	rt, err := router.New(router.Config{
		Partitions:    [][]string{{tsA.URL, tsB.URL}},
		ProbeInterval: 10 * time.Millisecond,
		ProbeFails:    2,
		RetryBudget:   1,
		RetryBackoff:  5 * time.Millisecond,
		Metrics:       reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	rt.Start()
	defer rt.Stop()
	h := httpservetest.Start(t, rt.Routes())

	for _, ev := range evs[:20] {
		consumeViaRouter(t, h, ev)
	}
	waitFor(t, "standby caught up", func() bool { return replStatusOf(srvB).CaughtUp })

	// Operator promotes B while A is still alive and unfenced.
	rr := postJSON(t, tsB, "/admin/promote", struct{}{})
	if rr.Code != http.StatusOK {
		t.Fatalf("operator promote status %d: %s", rr.Code, rr.Body.String())
	}

	// The router's probes must move writes to B (higher epoch) and
	// fence A — with zero /admin/promote calls of its own.
	waitFor(t, "router converged on promoted node", func() bool {
		return replStatusOf(srvA).Fenced
	})
	before := srvB.reg.SumCounters(`rrc_http_requests_total`)
	consumeViaRouter(t, h, evs[20])
	if after := srvB.reg.SumCounters(`rrc_http_requests_total`); after <= before {
		t.Fatal("post-promotion write did not land on the promoted node")
	}
	if got := reg.SumCounters("rrc_router_failovers_total"); got != 0 {
		t.Fatalf("router drove %d promotions with auto-promote off", got)
	}
}

// TestRouterRetriesScorerPanicElsewhere: a scorer panic on one node is a
// 500, which the router's read retry takes to the other node. The client
// gets exactly the bytes an unfaulted request gets — the model's ranking,
// never a substitute one — at the cost of one retry.
func TestRouterRetriesScorerPanicElsewhere(t *testing.T) {
	faultinject.Reset()
	defer faultinject.Reset()
	base, seqs := testServer(t)
	other := mustNew(t, base.currentModel(), Options{})
	tsA := httpservetest.Start(t, base)
	defer tsA.Close()
	tsB := httpservetest.Start(t, other)
	defer tsB.Close()
	reg := obs.NewRegistry()
	h := httpservetest.Start(t, newChaosRouter(t, reg, tsA.URL, tsB.URL).Routes())

	history := make([]int, 0, 40)
	for _, v := range seqs[0][:40] {
		history = append(history, int(v))
	}
	req := recommendRequest{User: 0, History: history, N: 5}
	want := postJSON(t, h, "/recommend", req)
	if want.Code != http.StatusOK {
		t.Fatalf("unfaulted read: %d %s", want.Code, want.Body.String())
	}
	faultinject.Arm("server.score", faultinject.Plan{Mode: faultinject.Panic, Count: 1})
	got := postJSON(t, h, "/recommend", req)
	if got.Code != http.StatusOK || got.Body.String() != want.Body.String() {
		t.Fatalf("read with one scorer panic: %d %s, want 200 %s", got.Code, got.Body.String(), want.Body.String())
	}
	if _, fired := faultinject.Hits("server.score"); fired != 1 {
		t.Fatalf("scorer panic fired %d times, want 1", fired)
	}
	if n := reg.SumCounters("rrc_router_retries_total"); n != 1 {
		t.Fatalf("rrc_router_retries_total = %d, want 1", n)
	}
}

// TestRouterReadYourWritesAcrossPair pins the read rule with no fault
// injected: through a router fronting a primary and a live standby, a
// /consume followed by /recommend/user for the same user is answered
// from the window that holds the write — 200, never the 404 a follower
// gives a user whose first event it has not applied, and byte for byte
// what the primary answers when asked directly. The standby serves no
// keyed read while the primary is healthy.
func TestRouterReadYourWritesAcrossPair(t *testing.T) {
	const users, rounds = 200, 4
	base, seqs := testServerUsers(t, users)
	m := base.currentModel()

	srvA := bootRepl(t, m, t.TempDir(), nil)
	tsA := httpservetest.Start(t, srvA)
	defer tsA.Close()
	defer srvA.Close(0)
	srvB := bootRepl(t, m, t.TempDir(), func(o *Options) { o.FollowURL = tsA.URL })
	tsB := httpservetest.Start(t, srvB)
	defer tsB.Close()
	defer srvB.Close(0)

	h := httpservetest.Start(t, newChaosRouter(t, obs.NewRegistry(), tsA.URL, tsB.URL).Routes())
	direct := tsA

	// Ω=1: the item consumed a moment ago is exactly what a stale window
	// would still offer.
	omega := 1
	for r := 0; r < rounds; r++ {
		for u := 0; u < users; u++ {
			consumeViaRouter(t, h, event{user: u, item: int(seqs[u][r])})
			req := recommendUserRequest{User: u, N: 5, Omega: &omega}
			got := postJSON(t, h, "/recommend/user", req)
			if got.Code != http.StatusOK {
				t.Fatalf("round %d user %d: read after write answered %d: %s", r, u, got.Code, got.Body.String())
			}
			want := postJSON(t, direct, "/recommend/user", req)
			if got.Body.String() != want.Body.String() {
				t.Fatalf("round %d user %d: routed read differs from the primary's:\n got %s\nwant %s",
					r, u, got.Body.String(), want.Body.String())
			}
		}
	}
	if n := srvB.reg.Counter(metricRequests + `{endpoint="/recommend/user"}`).Value(); n != 0 {
		t.Fatalf("standby served %d /recommend/user requests with a healthy primary in the partition", n)
	}
}
