package serve

// Chaos suite for the full routed topology: rrc-router in front of a
// primary/standby pair, mixed live traffic, primary killed mid-run.
// The contract under test: zero acknowledged writes lost, reads served
// continuously through the failover, the router converging on the
// promoted node with no manual intervention, and the deposed primary
// rejoining fenced and draining its lag to zero. The fleet is the
// fixture's (newFleet): nodes and router in-process on httpserve, the
// router the real internal/router engine.

import (
	"fmt"
	"net/http"
	"strings"
	"testing"
	"time"

	"tsppr/internal/faultinject"
	"tsppr/internal/router"
)

func TestRouterFailoverZeroAckedWriteLoss(t *testing.T) {
	m, seqs := trained(t, 8)
	evs := chaosEvents(seqs)
	preKill, postKill := evs[:30], evs[30:45]

	// Node A: primary. Node B: standby tailing A. Failover is the
	// router's job.
	f := newFleet(t, fleetConfig{Partitions: 1, Standby: true, Router: chaosRouter})
	a, b := f.nodes[0][0], f.nodes[0][1]

	// Continuous reads: a client hammering /recommend/user through the
	// router for the whole run, including the kill window. Every
	// response must be 200 or 404 (no session yet) — never an error.
	stopReads := f.startReaders([]int{preKill[0].user}, http.StatusOK, http.StatusNotFound)

	// Phase 1: healthy fleet. Every write routes to A and succeeds.
	f.consume(preKill...)
	waitFor(t, "standby caught up pre-kill", func() bool { return b.repl.Status().CaughtUp })
	waitApplied(t, a, b)
	a.kill()

	// Phase 2: writes keep landing — the router must notice A is gone,
	// promote B itself, and route there. Reads never stop in between.
	f.consume(postKill...)
	waitFor(t, "router-driven promotion", func() bool {
		st := b.repl.Status()
		return st.Role == "primary" && st.Epoch > 0
	})
	if got := f.reg.SumCounters("rrc_router_failovers_total"); got < 1 {
		t.Fatalf("rrc_router_failovers_total = %d, want >= 1", got)
	}
	if msg := stopReads(); msg != "" {
		t.Fatalf("reads did not survive failover: %s", msg)
	}

	// Zero acked-write loss: B's end state over every acknowledged
	// event is byte-identical to an unfaulted run of the same prefix.
	want := referenceRun(t, m, evs[:45], replicated)
	waitFor(t, "promoted node holding all acked writes", func() bool {
		return storeFingerprint(t, b) == want
	})

	// Phases 3 and 4: writes still reach only the true primary while the
	// fenced node loiters in the topology; then it rejoins.
	f.rejoinDeposed(0, func(deposed *node) {
		f.consume(evs[45])
		if st := deposed.repl.Status(); st.Role != "primary" || !st.Fenced {
			t.Fatalf("fenced node changed role unexpectedly: %+v", st)
		}
	})
}

// TestRouterFollowsOperatorPromotion covers the other failover mode:
// auto-promote off, an operator promotes the standby by hand, and the
// router — purely from probing — must converge its write routing on
// the new primary and fence the deposed one.
func TestRouterFollowsOperatorPromotion(t *testing.T) {
	_, seqs := trained(t, 8)
	evs := chaosEvents(seqs)
	f := newFleet(t, fleetConfig{Partitions: 1, Standby: true, Router: router.Config{
		ProbeInterval: 10 * time.Millisecond,
		ProbeFails:    2,
		RetryBudget:   1,
		RetryBackoff:  5 * time.Millisecond,
	}})
	a, b := f.nodes[0][0], f.nodes[0][1]

	f.consume(evs[:20]...)
	waitFor(t, "standby caught up", func() bool { return b.repl.Status().CaughtUp })

	// Operator promotes B while A is still alive and unfenced.
	b.promote()

	// The router's probes must move writes to B (higher epoch) and
	// fence A — with zero /admin/promote calls of its own.
	waitFor(t, "router converged on promoted node", func() bool { return a.repl.Status().Fenced })
	before := b.reg.SumCounters(`rrc_http_requests_total`)
	f.consume(evs[20])
	if after := b.reg.SumCounters(`rrc_http_requests_total`); after <= before {
		t.Fatal("post-promotion write did not land on the promoted node")
	}
	if got := f.reg.SumCounters("rrc_router_failovers_total"); got != 0 {
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
	_, seqs := trained(t, 8)
	f := newFleet(t, fleetConfig{Partitions: 1, Standby: true, Router: chaosRouter})

	req := recommendRequest{User: 0, History: ints(seqs[0][:40]), N: 5}
	want := expect(t, http.StatusOK, f.h, "POST /recommend", req)
	faultinject.Arm("server.score", faultinject.Plan{Mode: faultinject.Panic, Count: 1})
	got := send(f.h, "POST /recommend", req)
	if got.Code != http.StatusOK || got.Body.String() != want.Body.String() {
		t.Fatalf("read with one scorer panic: %d %s, want 200 %s", got.Code, got.Body.String(), want.Body.String())
	}
	if _, fired := faultinject.Hits("server.score"); fired != 1 {
		t.Fatalf("scorer panic fired %d times, want 1", fired)
	}
	if n := f.reg.SumCounters("rrc_router_retries_total"); n != 1 {
		t.Fatalf("rrc_router_retries_total = %d, want 1", n)
	}
}

// TestRouterReadYourWritesAcrossPair pins the read rule with no fault
// injected: through a router fronting a primary and a live standby, a
// /consume followed by /recommend/user for the same user is answered
// from the window that holds the write — 200, never the 404 a follower
// gives a user whose first event it has not applied, and byte for byte
// what the primary answers when asked directly. The standby serves no
// keyed read while the primary is healthy: its counter is checked after
// every routed read, so the first read it serves fails the test with
// the router's view of the pair at that moment — a probe miss shows as
// a reachable node with an error, a retried attempt in
// rrc_router_retries_total.
func TestRouterReadYourWritesAcrossPair(t *testing.T) {
	const users, rounds = 200, 4
	_, seqs := trained(t, users)
	f := newFleet(t, fleetConfig{Partitions: 1, Standby: true, Users: users, Router: chaosRouter})
	a, b := f.nodes[0][0], f.nodes[0][1]
	standbyReads := b.reg.Counter(metricRequests + `{endpoint="/recommend/user"}`)

	// Ω=1: the item consumed a moment ago is exactly what a stale window
	// would still offer.
	omega := 1
	for r := 0; r < rounds; r++ {
		for u := 0; u < users; u++ {
			f.consume(event{user: u, item: int(seqs[u][r])})
			req := recommendUserRequest{User: u, N: 5, Omega: &omega}
			got := send(f.h, "POST /recommend/user", req)
			if n := standbyReads.Value(); n != 0 {
				t.Fatalf("round %d user %d: the standby served %d /recommend/user request(s) with a healthy primary in the partition (this read: %d); rrc_router_retries_total = %d; router /readyz nodes:%s",
					r, u, n, got.Code, f.reg.SumCounters("rrc_router_retries_total"), f.nodeViews())
			}
			if got.Code != http.StatusOK {
				t.Fatalf("round %d user %d: read after write answered %d: %s", r, u, got.Code, got.Body.String())
			}
			want := send(a.wire(), "POST /recommend/user", req)
			if got.Body.String() != want.Body.String() {
				t.Fatalf("round %d user %d: routed read differs from the primary's:\n got %s\nwant %s",
					r, u, got.Body.String(), want.Body.String())
			}
		}
	}
}

// nodeViews is the router's /readyz node views, one line each.
func (f *fleet) nodeViews() string {
	var b strings.Builder
	for _, n := range decodeAs[router.Status](f.t, send(f.h, "GET /readyz", nil).Body.Bytes()).Nodes {
		fmt.Fprintf(&b, "\n  %s: reachable=%v ready=%v status=%q role=%q error=%q", n.URL, n.Reachable, n.Ready, n.Status, n.Role, n.Error)
	}
	return b.String()
}
