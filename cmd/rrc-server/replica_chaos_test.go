package main

// Chaos suite for the replication plane: a primary/standby pair under
// mixed traffic must fail over without losing an acknowledged-and-
// shipped write, a deposed primary must never acknowledge another
// write, and a rejoining node must truncate its divergent tail and
// drain its replication lag to zero. The pair runs in-process over
// httptest servers; "kill" is closing the primary's listener and
// abandoning its pool un-closed, exactly the state a SIGKILL leaves.

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"tsppr/internal/core"
	"tsppr/internal/faultinject"
	"tsppr/internal/replica"
	"tsppr/internal/shard"
)

// bootRepl boots an online server and wires its replication plane; the
// follower role (and its tailers) starts here when mutate sets
// followURL.
func bootRepl(t *testing.T, m *core.Model, dir string, mutate func(*serverOptions)) *server {
	t.Helper()
	srv := bootOnline(t, m, dir, func(o *serverOptions) {
		o.shards = 2
		o.replWait = 30 * time.Millisecond
		o.replBackoffBase = 5 * time.Millisecond
		o.replBackoffMax = 50 * time.Millisecond
		if mutate != nil {
			mutate(o)
		}
	})
	if err := srv.setupReplication(); err != nil {
		t.Fatalf("setupReplication: %v", err)
	}
	return srv
}

func waitFor(t *testing.T, what string, cond func() bool) {
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

// scrapeLagRecords sums rrc_replica_lag_records across shards from a
// live GET /metrics scrape, failing if the family is absent — the
// metric being exported at all is part of the contract.
func scrapeLagRecords(t *testing.T, h http.Handler) float64 {
	t.Helper()
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/metrics", nil))
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

func replStatusOf(srv *server) replStatus { return srv.repl.status() }

// waitApplied blocks until every shard of the standby has applied at least
// the LSN the primary's same shard has. replStatus.CaughtUp is not that:
// it says the standby holds what the primary had one poll ago, so a kill
// right after it can still cut off an acknowledged write. Call it once the
// primary has stopped taking writes, just before killing it.
func waitApplied(t *testing.T, primary, standby *server) {
	t.Helper()
	waitFor(t, "standby applied every LSN the primary holds", func() bool {
		ps, ss := primary.online.pool.Statuses(), standby.online.pool.Statuses()
		for i := range ps {
			if ss[i].AppliedLSN < ps[i].AppliedLSN {
				return false
			}
		}
		return true
	})
}

// TestReplicaFailoverPreservesAckedWrites is the headline property: a
// standby tailing a primary under traffic holds, after the primary is
// killed and the standby is promoted (POST /admin/promote — what an
// operator or the router sends), exactly the state an unfaulted run
// produces over the acknowledged prefix — and then accepts writes under
// the bumped epoch.
func TestReplicaFailoverPreservesAckedWrites(t *testing.T) {
	base, seqs := testServer(t)
	m := base.currentModel()
	evs := chaosEvents(seqs)
	acked := evs[:40]
	want := referenceRun(t, m, acked, func(o *serverOptions) { o.shards = 2 })

	srvA := bootRepl(t, m, t.TempDir(), nil)
	tsA := httptest.NewServer(srvA.routes())
	srvB := bootRepl(t, m, t.TempDir(), func(o *serverOptions) { o.followURL = tsA.URL })
	hA, hB := srvA.routes(), srvB.routes()

	for _, ev := range acked {
		mustConsume(t, hA, ev)
	}
	waitFor(t, "standby caught up", func() bool { return replStatusOf(srvB).CaughtUp })
	waitApplied(t, srvA, srvB)
	// /readyz says what each node holds now — what the router ranks
	// promotion candidates by.
	if a, b := replStatusOf(srvA).AppliedLSN, replStatusOf(srvB).AppliedLSN; a != uint64(len(acked)) || b != a {
		t.Fatalf("applied_lsn primary=%d standby=%d, want %d on both", a, b, len(acked))
	}

	// A standby must refuse writes while following.
	rr := postJSON(t, hB, "/consume", consumeRequest{User: 0, Item: 1})
	if rr.Code != http.StatusServiceUnavailable {
		t.Fatalf("standby /consume status %d, want 503: %s", rr.Code, rr.Body.String())
	}

	// Kill the primary: listener gone, pool abandoned un-closed.
	tsA.Close()
	if rr := postJSON(t, hB, "/admin/promote", nil); rr.Code != http.StatusOK {
		t.Fatalf("promote status %d: %s", rr.Code, rr.Body.String())
	}
	if st := replStatusOf(srvB); st.Role != "primary" || st.Epoch != 1 {
		t.Fatalf("promoted status %+v, want primary at epoch 1", st)
	}
	if got := storeFingerprint(t, srvB); got != want {
		t.Fatal("promoted standby diverges from the unfaulted run over the acked prefix")
	}
	// Writes are open on the new primary.
	mustConsume(t, hB, evs[40])
	defer srvB.online.close()
}

// TestReplicaRejoinTruncatesDivergentTail exercises the full rejoin
// protocol: the old primary keeps acknowledging writes its (stopped)
// follower never sees, the follower is promoted, the old primary
// restarts pointed at the new one, is told 412 with the divergence
// point, truncates its unshipped tail node-wide, adopts the new epoch,
// and drains its lag to zero — converging byte-identically.
func TestReplicaRejoinTruncatesDivergentTail(t *testing.T) {
	base, seqs := testServer(t)
	m := base.currentModel()
	evs := chaosEvents(seqs)

	dirA := t.TempDir()
	srvA := bootRepl(t, m, dirA, nil)
	tsA := httptest.NewServer(srvA.routes())
	defer tsA.Close()
	srvB := bootRepl(t, m, t.TempDir(), func(o *serverOptions) { o.followURL = tsA.URL })
	hA, hB := srvA.routes(), srvB.routes()

	for _, ev := range evs[:30] {
		mustConsume(t, hA, ev)
	}
	waitFor(t, "standby caught up", func() bool { return replStatusOf(srvB).CaughtUp })

	// Stop shipping, then let the primary acknowledge 12 more writes it
	// will never ship: the doomed divergent tail.
	srvB.repl.tailer.Stop()
	for _, ev := range evs[30:42] {
		mustConsume(t, hA, ev)
	}

	rr := postJSON(t, hB, "/admin/promote", nil)
	if rr.Code != http.StatusOK {
		t.Fatalf("promote status %d: %s", rr.Code, rr.Body.String())
	}
	var pr promoteResponse
	if err := json.Unmarshal(rr.Body.Bytes(), &pr); err != nil {
		t.Fatal(err)
	}
	if pr.Epoch != 1 || pr.Role != "primary" {
		t.Fatalf("promote reply %+v", pr)
	}
	// The new primary moves on: 9 writes on the epoch-1 timeline.
	for _, ev := range evs[42:51] {
		mustConsume(t, hB, ev)
	}
	tsB := httptest.NewServer(srvB.routes())
	defer tsB.Close()
	defer srvB.online.close()

	// "Restart" the old primary as a follower of the new one (its old
	// pool is abandoned un-closed, as a crash would leave it).
	srvA2 := bootRepl(t, m, dirA, func(o *serverOptions) { o.followURL = tsB.URL })
	hA2 := srvA2.routes()
	waitFor(t, "rejoined node caught up", func() bool { return replStatusOf(srvA2).CaughtUp })
	waitFor(t, "replication lag drained to 0", func() bool { return scrapeLagRecords(t, hA2) == 0 })

	if got, wantFP := storeFingerprint(t, srvA2), storeFingerprint(t, srvB); got != wantFP {
		t.Fatal("rejoined node did not converge with the new primary")
	}
	if got := srvA2.repl.metaSnapshot().Epoch; got != 1 {
		t.Fatalf("rejoined node epoch = %d, want 1", got)
	}
	// And the adopted epoch survived to disk under the old primary's root.
	meta, err := replica.LoadMeta(dirA)
	if err != nil {
		t.Fatal(err)
	}
	if meta.Epoch != 1 {
		t.Fatalf("persisted epoch = %d, want 1", meta.Epoch)
	}
	// /readyz reports the follower role.
	rec := httptest.NewRecorder()
	hA2.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/readyz", nil))
	var ready readyResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &ready); err != nil {
		t.Fatal(err)
	}
	if rec.Code != http.StatusOK || ready.Status != "following" || ready.Replication == nil || ready.Replication.Role != "follower" {
		t.Fatalf("rejoined /readyz = %d %s", rec.Code, rec.Body.String())
	}
	srvA2.repl.stop()
	srvA2.online.close()
}

// TestReplicaStalePrimaryStartsFenced: a crashed primary that was
// promoted over comes back (with -peers naming the fleet) already
// fenced — it refuses every write, answers /readyz 503, and a request
// carrying a stale epoch header is refused with 412 even where the
// fence is not involved.
func TestReplicaStalePrimaryStartsFenced(t *testing.T) {
	base, _ := testServer(t)
	m := base.currentModel()

	dirA := t.TempDir()
	srvA := bootRepl(t, m, dirA, nil)
	tsA := httptest.NewServer(srvA.routes())
	srvB := bootRepl(t, m, t.TempDir(), func(o *serverOptions) { o.followURL = tsA.URL })
	waitFor(t, "standby start", func() bool { return replStatusOf(srvB).Role == "follower" })
	if _, err := srvB.repl.promote(); err != nil {
		t.Fatal(err)
	}
	tsA.Close()
	tsB := httptest.NewServer(srvB.routes())
	defer tsB.Close()
	defer srvB.online.close()

	// Old primary restarts at epoch 0 with -peers pointing at the fleet:
	// it must discover epoch 1 and start fenced.
	srvA2 := bootRepl(t, m, dirA, func(o *serverOptions) { o.peers = []string{tsB.URL, "http://127.0.0.1:1/unreachable"} })
	hA2 := srvA2.routes()
	st := replStatusOf(srvA2)
	if st.Role != "primary" || !st.Fenced {
		t.Fatalf("stale primary status %+v, want fenced primary", st)
	}
	rr := postJSON(t, hA2, "/consume", consumeRequest{User: 0, Item: 1})
	if rr.Code != http.StatusServiceUnavailable || !strings.Contains(rr.Body.String(), "fenced") {
		t.Fatalf("fenced /consume = %d %s, want 503 fenced", rr.Code, rr.Body.String())
	}
	rec := httptest.NewRecorder()
	hA2.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/readyz", nil))
	if rec.Code != http.StatusServiceUnavailable || !strings.Contains(rec.Body.String(), "fenced") {
		t.Fatalf("fenced /readyz = %d %s, want 503 fenced", rec.Code, rec.Body.String())
	}

	// Epoch-header fencing on ingest, independent of the fence bit: a
	// write stamped with the old epoch is refused by the new primary.
	raw, _ := json.Marshal(consumeRequest{User: 0, Item: 1})
	req := httptest.NewRequest(http.MethodPost, "/consume", bytes.NewReader(raw))
	req.Header.Set(replica.EpochHeader, "0")
	rec = httptest.NewRecorder()
	srvB.routes().ServeHTTP(rec, req)
	if rec.Code != http.StatusPreconditionFailed {
		t.Fatalf("stale-epoch /consume on new primary = %d, want 412", rec.Code)
	}
	srvA2.online.close()
}

// TestReplicaRetryAfterFromSupervisorBackoff pins satellite behavior:
// the Retry-After on a tripped shard's 503 is derived from the
// supervisor's remaining restart backoff — rounded up, never the old
// flat hint that invited guaranteed-rejected retries.
func TestReplicaRetryAfterFromSupervisorBackoff(t *testing.T) {
	base, _ := testServer(t)
	m := base.currentModel()
	srv := bootOnline(t, m, t.TempDir(), func(o *serverOptions) {
		o.shards = 1
		o.shardFailThreshold = 1
		o.shardBackoffBase = 7 * time.Second
		o.shardBackoffMax = 8 * time.Second
	})
	defer srv.online.close()
	h := srv.routes()

	faultinject.Arm(shard.IngestPoint(0), faultinject.Plan{Mode: faultinject.Error, Count: 1})
	defer faultinject.Reset()
	rr := postJSON(t, h, "/consume", consumeRequest{User: 0, Item: 1})
	if rr.Code != http.StatusServiceUnavailable {
		t.Fatalf("tripping consume status %d, want 503", rr.Code)
	}
	// The breaker is open with ~7s of backoff left; the hint must
	// reflect it (ceil), not a flat 1.
	rr = postJSON(t, h, "/consume", consumeRequest{User: 0, Item: 1})
	if rr.Code != http.StatusServiceUnavailable {
		t.Fatalf("tripped consume status %d, want 503", rr.Code)
	}
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
	base, seqs := testServer(t)
	m := base.currentModel()
	srv := bootOnline(t, m, t.TempDir(), func(o *serverOptions) {
		o.shards = 2
		o.snapshotEvery = 0 // final snapshot happens only at close
	})
	h := srv.routes()
	for _, ev := range chaosEvents(seqs)[:8] {
		mustConsume(t, h, ev)
	}
	// One shard's final drain stalls well past the deadline.
	faultinject.Arm("shard.drain", faultinject.Plan{Mode: faultinject.Delay, Sleep: 600 * time.Millisecond, Count: 1})
	defer faultinject.Reset()
	start := time.Now()
	missed, _ := srv.online.closeTimeout(150 * time.Millisecond)
	if elapsed := time.Since(start); elapsed > 500*time.Millisecond {
		t.Fatalf("closeTimeout took %s, not bounded by the 150ms deadline", elapsed)
	}
	if len(missed) != 1 {
		t.Fatalf("missed shards = %v, want exactly one", missed)
	}
	// Let the stalled snapshot goroutine finish before TempDir cleanup.
	time.Sleep(700 * time.Millisecond)
}
