package serve

// Shard-kill chaos suite: with -shards=4 under live mixed /consume +
// /recommend/user traffic, a panic injected into one shard and a sticky
// WAL-append failure injected into another must stay contained — the
// other shards keep answering 2xx throughout, broken shards fast-fail
// 503 + Retry-After for exactly their own users, and once the
// supervisor restarts the victims the pool's windows are byte-identical
// to an uninterrupted run. Run under -race (make race, or go test -race
// -run Shard ./internal/serve); the traffic is genuinely concurrent.

import (
	"fmt"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tsppr/internal/faultinject"
	"tsppr/internal/obs"
	"tsppr/internal/seq"
	"tsppr/internal/shard"
	"tsppr/internal/wal"
)

// Shard ownership of the 8 test users at -shards=4, pinned by
// TestUserShardGolden in internal/shard:
//
//	shard 0: user 6 · shard 1: users 1,3 · shard 2: users 2,4,5 · shard 3: users 0,7
const (
	panicShard  = 1 // takes the injected panic
	stickyShard = 2 // takes the sticky append failure
)

// chaosOpts tunes the supervisor for test speed: trip after 2 append
// failures, restart in single-digit milliseconds, never exhaust the
// budget.
func chaosOpts(o *Options) {
	o.Shards = 4
	o.Fsync = wal.SyncNever
	o.SnapshotEvery = 10
	o.shardFailThreshold = 2
	o.shardRestartBudget = 100
	o.shardBackoffBase = time.Millisecond
	o.shardBackoffMax = 4 * time.Millisecond
}

// userStreams derives each user's event stream from the generated
// sequences: per-user order is fixed (it defines the window), cross-user
// interleaving is free.
func userStreams(seqs []seq.Sequence) [][]int {
	streams := make([][]int, 8)
	for u := range streams {
		streams[u] = ints(seqs[u][:25])
	}
	return streams
}

// TestShardChaosOtherShardsUnharmed is the headline robustness proof.
func TestShardChaosOtherShardsUnharmed(t *testing.T) {
	defer faultinject.Reset()

	// Reference: the same per-user streams ingested with no faults.
	m, seqs := trained(t, 8)
	streams := userStreams(seqs)
	var evs []event
	for u, stream := range streams {
		for _, item := range stream {
			evs = append(evs, event{u, item})
		}
	}
	want := referenceRun(t, m, evs, chaosOpts)

	// Chaos run: same streams, live-concurrent, one shard panics, one
	// shard's appends fail stickily (4 times → two breaker trips at
	// threshold 2).
	srv := newNode(t, m, "", chaosOpts)
	faultinject.Arm(shard.IngestPoint(panicShard), faultinject.Plan{Mode: faultinject.Panic, After: 2, Count: 1})
	faultinject.Arm(shard.IngestPoint(stickyShard), faultinject.Plan{Mode: faultinject.Error, After: 3, Count: 4})

	var (
		healthyErrs   atomic.Int64 // non-200s observed by users of healthy shards
		missingRetry  atomic.Int64 // 503s without a Retry-After header
		got503        [4]atomic.Int64
		recommendErrs atomic.Int64
		wg            sync.WaitGroup
	)
	for u, stream := range streams {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sh := shard.UserShard(u, 4)
			healthy := sh != panicShard && sh != stickyShard
			for i, item := range stream {
				for attempt := 0; ; attempt++ {
					rr := send(srv, "POST /consume", consumeRequest{User: u, Item: item})
					if rr.Code == http.StatusOK {
						break
					}
					if healthy {
						healthyErrs.Add(1)
						return
					}
					if rr.Code != http.StatusServiceUnavailable || attempt > 5000 {
						healthyErrs.Add(1) // victims must only ever see 503, and recover eventually
						return
					}
					if rr.Header().Get("Retry-After") == "" {
						missingRetry.Add(1)
					}
					got503[sh].Add(1)
					time.Sleep(time.Millisecond)
				}
				// Mixed traffic: read back through the scorer mid-stream.
				// Healthy users must never see an error; victims may race a
				// restart and bounce, which is the contract, not a failure.
				if i%5 == 4 {
					rr := send(srv, "POST /recommend/user", recommendUserRequest{User: u, N: 3})
					if healthy && rr.Code != http.StatusOK {
						recommendErrs.Add(1)
					}
				}
			}
		}()
	}
	wg.Wait()

	panicHits, panicFired := faultinject.Hits(shard.IngestPoint(panicShard))
	stickyHits, stickyFired := faultinject.Hits(shard.IngestPoint(stickyShard))
	faultinject.Reset()
	if panicFired != 1 || stickyFired != 4 {
		t.Fatalf("faults fired panic=%d sticky=%d (hits %d/%d), want 1 and 4",
			panicFired, stickyFired, panicHits, stickyHits)
	}
	if n := healthyErrs.Load(); n != 0 {
		t.Fatalf("%d error responses leaked outside the broken shards", n)
	}
	if n := recommendErrs.Load(); n != 0 {
		t.Fatalf("%d healthy-shard recommend errors during chaos", n)
	}
	if n := missingRetry.Load(); n != 0 {
		t.Fatalf("%d 503s without Retry-After", n)
	}
	if got503[panicShard].Load() == 0 || got503[stickyShard].Load() == 0 {
		t.Fatalf("victims never bounced: 503s per shard %v", []int64{
			got503[0].Load(), got503[1].Load(), got503[2].Load(), got503[3].Load()})
	}

	// Every shard must return to serving, the victims via supervised
	// restart...
	deadline := time.Now().Add(5 * time.Second)
	for !srv.pool.Ready() {
		if time.Now().After(deadline) {
			t.Fatalf("pool never recovered: %v", srv.pool.States())
		}
		time.Sleep(time.Millisecond)
	}
	for _, idx := range []int{panicShard, stickyShard} {
		st := srv.pool.Shard(idx).Status()
		if st.BreakerTrips < 1 || st.Restarts < 1 {
			t.Fatalf("shard %d was never supervised: %+v", idx, st)
		}
	}
	for _, idx := range []int{0, 3} {
		if st := srv.pool.Shard(idx).Status(); st.BreakerTrips != 0 || st.Restarts != 0 {
			t.Fatalf("healthy shard %d tripped: %+v", idx, st)
		}
	}

	// ...and the final windows must be byte-identical to the no-fault
	// run: nothing lost, nothing doubled, nobody else's state touched.
	if got := storeFingerprint(t, srv); got != want {
		t.Fatalf("chaos run diverged from reference\n got %s\nwant %s", got, want)
	}
}

// TestAdminDrainIsolatesShard drains one shard through the admin plane
// and verifies the 503 + Retry-After fence applies to exactly its
// users, while /readyz names the stopped shard.
func TestAdminDrainIsolatesShard(t *testing.T) {
	m, seqs := trained(t, 8)
	srv := newNode(t, m, "", chaosOpts)
	streams := userStreams(seqs)
	for u, stream := range streams {
		mustConsume(t, srv, event{u, stream[0]})
	}

	const victim = stickyShard // 2: users 2, 4, 5
	for i, tc := range []struct {
		query string
		code  int
	}{
		{"", http.StatusBadRequest},
		{"?shard=x", http.StatusBadRequest},
		{"?shard=-1", http.StatusBadRequest},
		{"?shard=4", http.StatusBadRequest},
		{fmt.Sprintf("?shard=%d", victim), http.StatusOK},
		{fmt.Sprintf("?shard=%d", victim), http.StatusOK}, // idempotent
	} {
		if rr := send(srv, "POST /admin/drain"+tc.query, nil); rr.Code != tc.code {
			t.Fatalf("drain case %d (%q): %d, want %d: %s", i, tc.query, rr.Code, tc.code, rr.Body.String())
		}
	}

	for u, stream := range streams {
		crr := send(srv, "POST /consume", consumeRequest{User: u, Item: stream[1]})
		rrr := send(srv, "POST /recommend/user", recommendUserRequest{User: u, N: 3})
		if shard.UserShard(u, 4) == victim {
			if crr.Code != http.StatusServiceUnavailable || rrr.Code != http.StatusServiceUnavailable {
				t.Fatalf("user %d on drained shard: consume %d, recommend %d, want 503s", u, crr.Code, rrr.Code)
			}
			if crr.Header().Get("Retry-After") == "" || rrr.Header().Get("Retry-After") == "" {
				t.Fatalf("user %d: drained-shard 503 without Retry-After", u)
			}
		} else if crr.Code != http.StatusOK || rrr.Code != http.StatusOK {
			t.Fatalf("user %d on healthy shard: consume %d, recommend %d: %s",
				u, crr.Code, rrr.Code, crr.Body.String())
		}
	}

	rr := expect(t, http.StatusServiceUnavailable, srv, "GET /readyz", nil)
	ready := decodeAs[readyResponse](t, rr.Body.Bytes())
	if len(ready.Shards) != 4 || ready.Shards[victim] != "stopped" {
		t.Fatalf("readyz shards %v", ready.Shards)
	}
	for i, st := range ready.Shards {
		if i != victim && st != "serving" {
			t.Fatalf("shard %d reported %q", i, st)
		}
	}
}

// TestShardMetricsExposition locks the per-shard families into GET
// /metrics: state gauges for every shard, restart/trip counters that
// move when a shard is supervised, all in valid exposition format.
func TestShardMetricsExposition(t *testing.T) {
	defer faultinject.Reset()
	m, seqs := trained(t, 8)
	srv := newNode(t, m, "", chaosOpts)
	streams := userStreams(seqs)
	for u, stream := range streams {
		mustConsume(t, srv, event{u, stream[0]})
	}

	// Trip shard 1 once and let the supervisor bring it back.
	faultinject.Arm(shard.IngestPoint(panicShard), faultinject.Plan{Mode: faultinject.Panic, Count: 1})
	expect(t, http.StatusServiceUnavailable, srv, "POST /consume", consumeRequest{User: 1, Item: streams[1][1]})
	faultinject.Reset()
	deadline := time.Now().Add(5 * time.Second)
	for srv.pool.Shard(panicShard).State() != shard.Serving {
		if time.Now().After(deadline) {
			t.Fatalf("shard %d never recovered", panicShard)
		}
		time.Sleep(time.Millisecond)
	}

	rr := expect(t, http.StatusOK, srv, "GET /metrics", nil)
	body := rr.Body.String()
	for _, want := range []string{
		`rrc_shard_state{shard="0"} 2`, // serving
		`rrc_shard_state{shard="1"} 2`,
		`rrc_shard_state{shard="2"} 2`,
		`rrc_shard_state{shard="3"} 2`,
		`rrc_shard_restarts_total{shard="1"} 1`,
		`rrc_shard_breaker_trips_total{shard="1"} 1`,
		`rrc_shard_breaker_trips_total{shard="0"} 0`,
		`rrc_shard_sessions{shard="`,
		`rrc_shard_recovery_lag{shard="1"}`,
		"rrc_online_sessions 8",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	if err := obs.ValidateExposition(strings.NewReader(body)); err != nil {
		t.Fatalf("exposition does not parse: %v\n%s", err, body)
	}
}
