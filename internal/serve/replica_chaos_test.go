package serve

// Chaos suite for the replication plane: a primary/standby pair under
// mixed traffic must fail over without losing an acknowledged-and-
// shipped write, a deposed primary must never acknowledge another
// write, and a rejoining node must truncate its divergent tail and
// drain its replication lag to zero. The pair runs in-process on
// httpserve; "kill" is closing the primary's listener and connections
// and abandoning its pool un-closed, exactly the state a SIGKILL leaves.

import (
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"tsppr/internal/faultinject"
	"tsppr/internal/httpserve/httpservetest"
	"tsppr/internal/replica"
	"tsppr/internal/shard"
)

// TestReplicaFailoverPreservesAckedWrites is the headline property: a
// standby tailing a primary under traffic holds, after the primary is
// killed and the standby is promoted (POST /admin/promote — what an
// operator or the router sends), exactly the state an unfaulted run
// produces over the acknowledged prefix — and then accepts writes under
// the bumped epoch.
func TestReplicaFailoverPreservesAckedWrites(t *testing.T) {
	m, seqs := trained(t, 8)
	evs := chaosEvents(seqs)
	acked := evs[:40]
	want := referenceRun(t, m, acked, replicated)

	a := newNode(t, m, "", replicated)
	b := newNode(t, m, "", replicated, follows(a))
	mustConsume(t, a.wire(), acked...)
	waitFor(t, "standby caught up", func() bool { return b.repl.Status().CaughtUp })
	waitApplied(t, a.wire(), b.wire())
	// /readyz says what each node holds now — what the router ranks
	// promotion candidates by.
	if a, b := a.repl.Status().AppliedLSN, b.repl.Status().AppliedLSN; a != uint64(len(acked)) || b != a {
		t.Fatalf("applied_lsn primary=%d standby=%d, want %d on both", a, b, len(acked))
	}

	// A standby must refuse writes while following.
	expect(t, http.StatusServiceUnavailable, b.wire(), "POST /consume", consumeRequest{User: 0, Item: 1})

	a.kill()
	b.promote()
	if st := b.repl.Status(); st.Role != "primary" || st.Epoch != 1 {
		t.Fatalf("promoted status %+v, want primary at epoch 1", st)
	}
	if got := storeFingerprint(t, b); got != want {
		t.Fatal("promoted standby diverges from the unfaulted run over the acked prefix")
	}
	// Writes are open on the new primary.
	mustConsume(t, b.wire(), evs[40])
}

// TestReplicaKilledPrimaryNeverCaughtUp: the standby loses its link to
// the primary, the primary acknowledges writes the standby never sees,
// then dies. The standby's /readyz must stop saying caught_up within
// two long-poll waits and never say it again: the horizon it last saw
// is stale.
func TestReplicaKilledPrimaryNeverCaughtUp(t *testing.T) {
	m, seqs := trained(t, 8)
	evs := chaosEvents(seqs)

	a := newNode(t, m, "", replicated)
	var cut atomic.Bool
	link := httpservetest.Start(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if cut.Load() {
			http.Error(w, "link down", http.StatusServiceUnavailable)
			return
		}
		a.ServeHTTP(w, r)
	}))
	b := newNode(t, m, "", replicated, func(o *Options) { o.FollowURL = link.URL })

	mustConsume(t, a, evs[:20]...)
	waitFor(t, "standby caught up", func() bool { return readyOf(t, b).Replication.CaughtUp })
	cut.Store(true)
	time.Sleep(100 * time.Millisecond) // any poll already past the link returns
	mustConsume(t, a, evs[20:30]...)
	link.Close()
	if pa, sb := readyOf(t, a).Replication.AppliedLSN, readyOf(t, b).Replication.AppliedLSN; sb >= pa {
		t.Fatalf("standby applied %d of the primary's %d: the link was not cut", sb, pa)
	}
	waitFor(t, "standby stops reporting caught_up", func() bool { return !readyOf(t, b).Replication.CaughtUp })
	for end := time.Now().Add(300 * time.Millisecond); time.Now().Before(end); time.Sleep(10 * time.Millisecond) {
		if readyOf(t, b).Replication.CaughtUp {
			t.Fatal("standby of a dead primary reports caught_up again")
		}
	}
}

// TestReplicaRejoinTruncatesDivergentTail exercises the full rejoin
// protocol: the old primary keeps acknowledging writes its (stopped)
// follower never sees, the follower is promoted, the old primary
// restarts pointed at the new one, is told 412 with the divergence
// point, truncates its unshipped tail node-wide, adopts the new epoch,
// and drains its lag to zero — converging byte-identically.
func TestReplicaRejoinTruncatesDivergentTail(t *testing.T) {
	m, seqs := trained(t, 8)
	evs := chaosEvents(seqs)

	a := newNode(t, m, "", replicated)
	b := newNode(t, m, "", replicated, follows(a))
	mustConsume(t, a.wire(), evs[:30]...)
	waitFor(t, "standby caught up", func() bool { return b.repl.Status().CaughtUp })

	// Stop shipping, then let the primary acknowledge 12 more writes it
	// will never ship: the doomed divergent tail.
	b.repl.Close()
	mustConsume(t, a.wire(), evs[30:42]...)

	rr := expect(t, http.StatusOK, b.wire(), "POST /admin/promote", nil)
	if pr := decodeAs[promoteResponse](t, rr.Body.Bytes()); pr.Epoch != 1 || pr.Role != "primary" {
		t.Fatalf("promote reply %+v", pr)
	}
	// The new primary moves on: 9 writes on the epoch-1 timeline.
	mustConsume(t, b.wire(), evs[42:51]...)

	// The old primary crashes and restarts as a follower of the new one.
	a.kill()
	a.restart(follows(b))
	waitFor(t, "rejoined node caught up", func() bool { return a.repl.Status().CaughtUp })
	waitFor(t, "replication lag drained to 0", func() bool { return scrapeLagRecords(t, a) == 0 })

	if got, wantFP := storeFingerprint(t, a), storeFingerprint(t, b); got != wantFP {
		t.Fatal("rejoined node did not converge with the new primary")
	}
	if got := a.repl.Meta().Epoch; got != 1 {
		t.Fatalf("rejoined node epoch = %d, want 1", got)
	}
	// And the adopted epoch survived to disk under the old primary's root.
	meta, err := replica.LoadMeta(a.dir)
	if err != nil {
		t.Fatal(err)
	}
	if meta.Epoch != 1 {
		t.Fatalf("persisted epoch = %d, want 1", meta.Epoch)
	}
	// /readyz reports the follower role.
	rr = send(a, "GET /readyz", nil)
	if ready := decodeAs[readyResponse](t, rr.Body.Bytes()); rr.Code != http.StatusOK || ready.Status != "following" || ready.Replication == nil || ready.Replication.Role != "follower" {
		t.Fatalf("rejoined /readyz = %d %s", rr.Code, rr.Body.String())
	}
}

// TestReplicaStalePrimaryStartsFenced: a crashed primary that was
// promoted over comes back (with -peers naming the fleet) already
// fenced — it refuses every write, answers /readyz 503, and a request
// carrying a stale epoch header is refused with 412 even where the
// fence is not involved.
func TestReplicaStalePrimaryStartsFenced(t *testing.T) {
	m, _ := trained(t, 8)
	a := newNode(t, m, "", replicated)
	b := newNode(t, m, "", replicated, follows(a))
	waitFor(t, "standby start", func() bool { return b.repl.Status().Role == "follower" })
	if _, err := b.repl.Promote(); err != nil {
		t.Fatal(err)
	}
	a.kill()

	// Old primary restarts at epoch 0 with -peers pointing at the fleet:
	// it must discover epoch 1 and start fenced.
	a.restart(func(o *Options) { o.Peers = []string{b.url(), "http://127.0.0.1:1/unreachable"} })
	if st := a.repl.Status(); st.Role != "primary" || !st.Fenced {
		t.Fatalf("stale primary status %+v, want fenced primary", st)
	}
	rr := send(a, "POST /consume", consumeRequest{User: 0, Item: 1})
	if rr.Code != http.StatusServiceUnavailable || !strings.Contains(rr.Body.String(), "fenced") {
		t.Fatalf("fenced /consume = %d %s, want 503 fenced", rr.Code, rr.Body.String())
	}
	rr = send(a, "GET /readyz", nil)
	if rr.Code != http.StatusServiceUnavailable || !strings.Contains(rr.Body.String(), "fenced") {
		t.Fatalf("fenced /readyz = %d %s, want 503 fenced", rr.Code, rr.Body.String())
	}

	// Epoch-header fencing on ingest, independent of the fence bit: a
	// write stamped with the old epoch is refused by the new primary.
	expect(t, http.StatusPreconditionFailed, b, "POST /consume", consumeRequest{User: 0, Item: 1}, replica.EpochHeader, "0")
}

// TestReplicaFencedNodeRefusesPromote: a primary fenced by a probe from
// the epoch that replaced it must not be promoted. Promotion bumps its
// own epoch, which is the one that fenced it, so the fleet would get two
// primaries on one epoch. Only an unfenced follower may be promoted; a
// deposed primary rejoins as a follower first. The probe is the GET
// /replica/epoch rrc-router sends every round, stamped with its epoch.
func TestReplicaFencedNodeRefusesPromote(t *testing.T) {
	m, _ := trained(t, 8)
	a := newNode(t, m, "", replicated)
	b := newNode(t, m, "", replicated, follows(a))
	b.promote()

	expect(t, http.StatusPreconditionFailed, a, "GET /replica/epoch", nil, replica.EpochHeader, "1")
	if !a.repl.Status().Fenced {
		t.Fatal("epoch-1 probe did not fence the old primary")
	}
	expect(t, http.StatusConflict, a, "POST /admin/promote", nil)
	if st := a.repl.Status(); st.Epoch != 0 || !st.Fenced {
		t.Fatalf("refused promotion changed the node: %+v", st)
	}
	if rr := send(a, "POST /consume", consumeRequest{User: 0, Item: 1}, replica.EpochHeader, "1"); rr.Code == http.StatusOK {
		t.Fatal("fenced old primary acked a write stamped with the new epoch")
	}
}

// TestReplicaRejoinedFollowerUnfences: a deposed primary restarted as a
// follower of the new one can be fenced by a probe from the new epoch
// before its tailers have converged. Once they adopt that epoch the
// node is an ordinary follower again: /readyz says "following" and the
// router may read from it and promote it.
func TestReplicaRejoinedFollowerUnfences(t *testing.T) {
	m, seqs := trained(t, 8)
	a := newNode(t, m, "", replicated)
	b := newNode(t, m, "", replicated, follows(a))
	mustConsume(t, a.wire(), chaosEvents(seqs)[:10]...)
	waitApplied(t, a, b)
	a.stop()
	b.promote()

	// The old primary rejoins behind a link that is down at first, so
	// the probe lands before its tailers reach the new primary.
	var up atomic.Bool
	link := httpservetest.Start(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !up.Load() {
			http.Error(w, "link down", http.StatusServiceUnavailable)
			return
		}
		b.ServeHTTP(w, r)
	}))
	a.restart(func(o *Options) { o.FollowURL = link.URL })
	expect(t, http.StatusPreconditionFailed, a, "GET /replica/epoch", nil, replica.EpochHeader, "1")
	if !a.repl.Status().Fenced {
		t.Fatal("epoch-1 probe did not fence the rejoining node")
	}

	up.Store(true)
	waitFor(t, "rejoined follower adopts epoch 1 and unfences", func() bool {
		st := a.repl.Status()
		return st.Epoch == 1 && st.CaughtUp && !st.Fenced
	})
	if ready := readyOf(t, a); ready.Status != "following" || ready.Replication.Role != "follower" {
		t.Fatalf("rejoined /readyz = %+v, want following", ready)
	}
}

// TestReplicaRetryAfterFromSupervisorBackoff pins satellite behavior:
// the Retry-After on a tripped shard's 503 is derived from the
// supervisor's remaining restart backoff — rounded up, never the old
// flat hint that invited guaranteed-rejected retries.
func TestReplicaRetryAfterFromSupervisorBackoff(t *testing.T) {
	m, _ := trained(t, 8)
	srv := newNode(t, m, "", func(o *Options) {
		o.shardFailThreshold = 1
		o.shardBackoffBase = 7 * time.Second
		o.shardBackoffMax = 8 * time.Second
	})

	faultinject.Arm(shard.IngestPoint(0), faultinject.Plan{Mode: faultinject.Error, Count: 1})
	defer faultinject.Reset()
	expect(t, http.StatusServiceUnavailable, srv, "POST /consume", consumeRequest{User: 0, Item: 1})
	// The breaker is open with ~7s of backoff left; the hint must
	// reflect it (ceil), not a flat 1.
	rr := expect(t, http.StatusServiceUnavailable, srv, "POST /consume", consumeRequest{User: 0, Item: 1})
	secs, err := strconv.Atoi(rr.Header().Get("Retry-After"))
	if err != nil {
		t.Fatalf("Retry-After %q: %v", rr.Header().Get("Retry-After"), err)
	}
	if secs < 5 || secs > 7 {
		t.Fatalf("Retry-After = %d, want within [5,7] of the 7s supervisor backoff", secs)
	}
}

// TestReplicaShutdownTimeoutReportsMissedShards pins satellite
// behavior: a shard wedged in its final snapshot cannot hold shutdown
// past -shutdown-timeout, and the miss is reported so the operator
// knows recovery will replay that shard's WAL.
func TestReplicaShutdownTimeoutReportsMissedShards(t *testing.T) {
	m, seqs := trained(t, 8)
	// SnapshotEvery stays 0: the final snapshot happens only at close.
	srv := newNode(t, m, "", func(o *Options) { o.Shards = 2 })
	mustConsume(t, srv, chaosEvents(seqs)[:8]...)
	// One shard's final drain stalls well past the deadline.
	faultinject.Arm("shard.drain", faultinject.Plan{Mode: faultinject.Delay, Sleep: 600 * time.Millisecond, Count: 1})
	defer faultinject.Reset()
	start := time.Now()
	missed, _ := srv.Close(150 * time.Millisecond)
	if elapsed := time.Since(start); elapsed > 500*time.Millisecond {
		t.Fatalf("Close took %s, not bounded by the 150ms deadline", elapsed)
	}
	if len(missed) != 1 {
		t.Fatalf("missed shards = %v, want exactly one", missed)
	}
	// Let the stalled snapshot goroutine finish before TempDir cleanup.
	time.Sleep(700 * time.Millisecond)
}
