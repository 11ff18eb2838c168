package serve

// Partition-chaos gate: P=3 replicated pairs behind the real
// internal/router engine, live mixed traffic spanning every partition,
// one pair's primary SIGKILLed mid-run (listener closed, pool
// abandoned). The contract:
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
	"net/http"
	"testing"
	"time"

	"tsppr/internal/shard"
)

func TestPartitionChaosIsolatedFailover(t *testing.T) {
	m, seqs := trained(t, 8)
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

	// P primary/standby pairs, each pinned to its slice of the key space
	// via -partition i/P.
	rc := chaosRouter
	// Dead-node detection here is connection-refused (the victim's
	// listener closes), which fails instantly — so a generous probe
	// timeout costs no failover latency. Left at the 10ms probe
	// interval, a busy -race scheduler can stall a healthy primary's
	// probe past it and transiently cost the partition its write
	// target, breaking the strict first-attempt-200 contract this test
	// pins for healthy pairs.
	rc.ProbeTimeout = time.Second
	f := newFleet(t, fleetConfig{Partitions: P, Standby: true, Router: rc})

	// Phase 1: healthy fleet, writes across every partition.
	f.consume(preKill...)
	for i := 0; i < P; i++ {
		waitFor(t, "standby caught up pre-kill", func() bool { return f.nodes[i][1].repl.Status().CaughtUp })
	}
	// caught_up does not cover a write acked after the latest quiet poll
	// (see waitApplied): the kill below must not cut off an acked victim
	// write.
	victim, promoted := f.nodes[0][0], f.nodes[0][1]
	waitApplied(t, victim, promoted)

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
	stopReads := f.startReaders(survivors, http.StatusOK)
	victim.kill()

	// Phase 2: live mixed traffic spanning all partitions. Writes keyed
	// to the two healthy partitions must succeed on the FIRST attempt —
	// one partition's outage sheds load only for its own key range.
	// Victim-partition writes retry on 503 until the router promotes the
	// pair's standby on its own.
	for _, ev := range postKill {
		if part(ev) == 0 {
			f.consume(ev)
		} else {
			mustConsume(t, f.h, ev)
		}
	}
	waitFor(t, "victim standby promoted by the router", func() bool {
		st := promoted.repl.Status()
		return st.Role == "primary" && st.Epoch > 0
	})
	if got := f.reg.SumCounters("rrc_router_failovers_total"); got < 1 {
		t.Fatalf("rrc_router_failovers_total = %d, want >= 1", got)
	}
	if msg := stopReads(); msg != "" {
		t.Fatalf("healthy partitions did not serve error-free through the outage: %s", msg)
	}

	// Isolation: the healthy primaries were never fenced — partition 0's
	// epoch bump must not leak into partition 1's or 2's timeline — and
	// the router never misrouted a key (the ownership gates would 421).
	for i := 1; i < P; i++ {
		if st := f.nodes[i][0].repl.Status(); st.Role != "primary" || st.Fenced {
			t.Fatalf("partition %d primary disturbed by partition 0's failover: %+v", i, st)
		}
	}
	if got := f.reg.SumCounters("rrc_router_misdirects_total"); got != 0 {
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
	want := referenceRun(t, m, victimEvs, replicated, partition(0, P))
	waitFor(t, "promoted standby holding every acked victim write", func() bool {
		return storeFingerprint(t, promoted) == want
	})

	// Phases 3 and 4: the deposed primary rejoins; the healthy
	// partitions never notice this either.
	f.rejoinDeposed(0, func(*node) {
		mustConsume(t, f.h, event{user: survivors[0], item: int(seqs[survivors[0]][40])})
	})
}
