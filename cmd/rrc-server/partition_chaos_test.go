package main

// Partition-chaos gate: P=3 replicated pairs behind the real
// internal/router engine, live mixed traffic spanning every partition,
// one pair's primary SIGKILLed mid-run (listener closed, pool
// abandoned). The PR's headline contract:
//
//   - the other two partitions serve error-free through the whole
//     outage — not "mostly", zero client-visible errors;
//   - the victim partition converges unaided (router-driven promotion
//     of ITS standby) with zero acknowledged-write loss, byte-identical
//     to an unfaulted reference run of the same key range;
//   - no cross-partition epoch leakage: the healthy primaries are
//     never fenced by the victim's failover;
//   - the deposed primary rejoins fenced, then drains to identical.

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"tsppr/internal/obs"
	"tsppr/internal/router"
	"tsppr/internal/shard"
)

func TestPartitionChaosIsolatedFailover(t *testing.T) {
	base, seqs := testServer(t)
	m := base.currentModel()
	const P = 3

	// Mixed traffic: all model users round-robined, so every partition
	// sees a continuous interleaved stream.
	var evs []event
	for i := 0; i < 96; i++ {
		u := i % m.NumUsers()
		evs = append(evs, event{user: u, item: int(seqs[u][i/m.NumUsers()])})
	}
	preKill, postKill := evs[:72], evs[72:]
	part := func(ev event) int { return shard.UserShard(ev.user, P) }

	// Boot P primary/standby pairs, each pinned to its slice of the key
	// space via -partition i/P.
	prims := make([]*server, P)
	tsPrims := make([]*httptest.Server, P)
	stands := make([]*server, P)
	standURLs := make([]string, P)
	primDirs := make([]string, P)
	layout := make([][]string, P)
	for i := 0; i < P; i++ {
		pid := shard.PartitionID{Index: i, Count: P}
		primDirs[i] = t.TempDir()
		prims[i] = bootRepl(t, m, primDirs[i], func(o *serverOptions) { o.partition = pid })
		tsPrims[i] = httptest.NewServer(prims[i].routes())
		stands[i] = bootRepl(t, m, t.TempDir(), func(o *serverOptions) {
			o.partition = pid
			o.followURL = tsPrims[i].URL
		})
		tsStand := httptest.NewServer(stands[i].routes())
		t.Cleanup(tsStand.Close)
		t.Cleanup(func() { stands[i].online.close() })
		standURLs[i] = tsStand.URL
		layout[i] = []string{tsPrims[i].URL, tsStand.URL}
	}
	t.Cleanup(tsPrims[1].Close)
	t.Cleanup(tsPrims[2].Close)
	t.Cleanup(func() { prims[1].online.close() })
	t.Cleanup(func() { prims[2].online.close() })

	reg := obs.NewRegistry()
	rt, err := router.New(router.Config{
		Partitions:    layout,
		ProbeInterval: 10 * time.Millisecond,
		// Dead-node detection here is connection-refused (the victim's
		// listener closes), which fails instantly — so a generous probe
		// timeout costs no failover latency. Left at its default (the
		// 10ms probe interval), a busy -race scheduler can stall a
		// healthy primary's probe past it and transiently cost the
		// partition its write target, breaking the strict
		// first-attempt-200 contract this test pins for healthy pairs.
		ProbeTimeout: time.Second,
		ProbeFails:   2,
		AutoPromote:  true,
		RetryBudget:  1,
		RetryBackoff: 5 * time.Millisecond,
		MaxAttempts:  4,
		Metrics:      reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	rt.Start()
	t.Cleanup(rt.Stop)
	h := rt.Routes()

	// Phase 1: healthy fleet, writes across every partition.
	for _, ev := range preKill {
		consumeViaRouter(t, h, ev)
	}
	for i := 0; i < P; i++ {
		waitFor(t, fmt.Sprintf("standby %d caught up pre-kill", i), func() bool {
			return replStatusOf(stands[i]).CaughtUp
		})
	}
	// CaughtUp is one poll stale (see waitApplied): the kill below must
	// not cut off an acknowledged victim write.
	waitApplied(t, prims[0], stands[0])

	// Continuous keyed reads against the two partitions that keep their
	// primaries: through the whole kill window every response must be
	// 200 — their users all have sessions by now, and their pairs are
	// untouched.
	var survivors []int
	for u := 0; u < m.NumUsers() && len(survivors) < 2; u++ {
		if p := shard.UserShard(u, P); p != 0 {
			survivors = append(survivors, u)
		}
	}
	stopReads := make(chan struct{})
	readFailure := make(chan string, 1)
	var readers sync.WaitGroup
	for _, u := range survivors {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stopReads:
					return
				default:
				}
				rr := postJSON(t, h, "/recommend/user", recommendUserRequest{User: u, N: 3})
				if rr.Code != http.StatusOK {
					select {
					case readFailure <- fmt.Sprintf("read for user %d (partition %d): status %d: %s",
						u, shard.UserShard(u, P), rr.Code, rr.Body.String()):
					default:
					}
					return
				}
				time.Sleep(2 * time.Millisecond)
			}
		}()
	}

	// SIGKILL partition 0's primary: listener closed, pool abandoned.
	tsPrims[0].Close()

	// Phase 2: live mixed traffic spanning all partitions. Writes keyed
	// to the two healthy partitions must succeed on the FIRST attempt —
	// one partition's outage sheds load only for its own key range.
	// Victim-partition writes retry on 503 until the router promotes the
	// pair's standby on its own.
	for _, ev := range postKill {
		if part(ev) == 0 {
			consumeViaRouter(t, h, ev)
		} else {
			mustConsume(t, h, ev)
		}
	}
	waitFor(t, "victim standby promoted by the router", func() bool {
		st := replStatusOf(stands[0])
		return st.Role == "primary" && st.Epoch > 0
	})
	if got := reg.SumCounters("rrc_router_failovers_total"); got < 1 {
		t.Fatalf("rrc_router_failovers_total = %d, want >= 1", got)
	}

	close(stopReads)
	readers.Wait()
	select {
	case msg := <-readFailure:
		t.Fatalf("healthy partitions did not serve error-free through the outage: %s", msg)
	default:
	}

	// Isolation: the healthy primaries were never fenced — partition 0's
	// epoch bump must not leak into partition 1's or 2's timeline — and
	// the router never misrouted a key (the ownership gates would 421).
	for i := 1; i < P; i++ {
		if st := replStatusOf(prims[i]); st.Role != "primary" || st.Fenced {
			t.Fatalf("partition %d primary disturbed by partition 0's failover: %+v", i, st)
		}
	}
	if got := reg.SumCounters("rrc_router_misdirects_total"); got != 0 {
		t.Fatalf("rrc_router_misdirects_total = %d, want 0 in a correctly keyed run", got)
	}

	// Zero acked-write loss: the promoted standby's end state over the
	// victim key range is byte-identical to an unfaulted reference run
	// of exactly the acknowledged victim events.
	var victimEvs []event
	for _, ev := range evs {
		if part(ev) == 0 {
			victimEvs = append(victimEvs, ev)
		}
	}
	want := referenceRun(t, m, victimEvs, func(o *serverOptions) {
		o.shards = 2
		o.partition = shard.PartitionID{Index: 0, Count: P}
	})
	waitFor(t, "promoted standby holding every acked victim write", func() bool {
		return storeFingerprint(t, stands[0]) == want
	})

	// Phase 3: the deposed primary restarts over its old directory as a
	// plain primary. One router probe round fences it; the healthy
	// partitions never notice this either.
	srvA2 := bootRepl(t, m, primDirs[0], func(o *serverOptions) {
		o.partition = shard.PartitionID{Index: 0, Count: P}
	})
	tsA2 := httptest.NewServer(srvA2.routes())
	layout[0] = []string{tsA2.URL, standURLs[0]}
	rt.SetTopology(router.Topology{Partitions: layout})
	waitFor(t, "deposed primary fenced by router probe", func() bool {
		return replStatusOf(srvA2).Fenced
	})
	mustConsume(t, h, event{user: survivors[0], item: int(seqs[survivors[0]][40])})

	// Phase 4: rejoin as a follower of the promoted standby and drain to
	// byte-identical.
	tsA2.Close()
	if err := srvA2.online.close(); err != nil {
		t.Fatalf("closing fenced node: %v", err)
	}
	srvA3 := bootRepl(t, m, primDirs[0], func(o *serverOptions) {
		o.partition = shard.PartitionID{Index: 0, Count: P}
		o.followURL = standURLs[0]
	})
	defer srvA3.online.close()
	defer srvA3.repl.stop()
	waitFor(t, "rejoined follower caught up", func() bool {
		st := replStatusOf(srvA3)
		return st.CaughtUp && st.LagRecords == 0
	})
	waitFor(t, "rejoined follower byte-identical", func() bool {
		return storeFingerprint(t, srvA3) == storeFingerprint(t, stands[0])
	})
}
