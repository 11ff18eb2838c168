package serve

// Chaos suite for the replication plane: a primary/standby pair under
// mixed traffic must fail over without losing an acknowledged-and-
// shipped write, a deposed primary must never acknowledge another
// write, and a rejoining node must truncate its divergent tail and
// drain its replication lag to zero. The pair runs in-process on
// httpserve; "kill" is closing the primary's listener and connections
// and abandoning its pool un-closed, exactly the state a SIGKILL leaves.

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"tsppr/internal/core"
	"tsppr/internal/faultinject"
	"tsppr/internal/httpserve/httpservetest"
	"tsppr/internal/replica"
	"tsppr/internal/shard"
)

// bootRepl is bootOnline over two shards with fast replication timings;
// New starts the follower role (and its tailers) when mutate sets
// FollowURL.
func bootRepl(t *testing.T, m *core.Model, dir string, mutate func(*Options)) *Server {
	t.Helper()
	return bootOnline(t, m, dir, func(o *Options) {
		o.Shards = 2
		o.replWait = 30 * time.Millisecond
		o.replBackoffBase = 5 * time.Millisecond
		o.replBackoffMax = 50 * time.Millisecond
		if mutate != nil {
			mutate(o)
		}
	})
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

func replStatusOf(srv *Server) replica.Status { return srv.repl.Status() }

// waitApplied blocks until the standby's /readyz shard_applied_lsn has
// reached the primary's on every shard. caught_up is not that: a write
// acked after the standby's latest quiet poll is not in it yet. Call it
// once the primary has stopped taking writes, just before killing it.
func waitApplied(t *testing.T, primary, standby http.Handler) {
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
	want := referenceRun(t, m, acked, func(o *Options) { o.Shards = 2 })

	srvA := bootRepl(t, m, t.TempDir(), nil)
	tsA := httpservetest.Start(t, srvA)
	srvB := bootRepl(t, m, t.TempDir(), func(o *Options) { o.FollowURL = tsA.URL })
	hA, hB := tsA, httpservetest.Start(t, srvB)

	for _, ev := range acked {
		mustConsume(t, hA, ev)
	}
	waitFor(t, "standby caught up", func() bool { return replStatusOf(srvB).CaughtUp })
	waitApplied(t, hA, hB)
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
	defer srvB.Close(0)
}

// readyOf decodes h's GET /readyz reply.
func readyOf(t *testing.T, h http.Handler) readyResponse {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/readyz", nil))
	var ready readyResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &ready); err != nil || ready.Replication == nil {
		t.Fatalf("/readyz = %d %s: %v", rec.Code, rec.Body.String(), err)
	}
	return ready
}

// TestReplicaKilledPrimaryNeverCaughtUp: the standby loses its link to
// the primary, the primary acknowledges writes the standby never sees,
// then dies. The standby's /readyz must stop saying caught_up within
// two long-poll waits and never say it again: the horizon it last saw
// is stale.
func TestReplicaKilledPrimaryNeverCaughtUp(t *testing.T) {
	base, seqs := testServer(t)
	m := base.currentModel()
	evs := chaosEvents(seqs)

	srvA := bootRepl(t, m, t.TempDir(), nil)
	hA := srvA
	var cut atomic.Bool
	link := httpservetest.Start(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if cut.Load() {
			http.Error(w, "link down", http.StatusServiceUnavailable)
			return
		}
		hA.ServeHTTP(w, r)
	}))
	srvB := bootRepl(t, m, t.TempDir(), func(o *Options) { o.FollowURL = link.URL })
	defer srvB.Close(0)
	hB := srvB

	for _, ev := range evs[:20] {
		mustConsume(t, hA, ev)
	}
	waitFor(t, "standby caught up", func() bool { return readyOf(t, hB).Replication.CaughtUp })
	cut.Store(true)
	time.Sleep(100 * time.Millisecond) // any poll already past the link returns
	for _, ev := range evs[20:30] {
		mustConsume(t, hA, ev)
	}
	link.Close()
	if a, b := readyOf(t, hA).Replication.AppliedLSN, readyOf(t, hB).Replication.AppliedLSN; b >= a {
		t.Fatalf("standby applied %d of the primary's %d: the link was not cut", b, a)
	}
	waitFor(t, "standby stops reporting caught_up", func() bool { return !readyOf(t, hB).Replication.CaughtUp })
	for end := time.Now().Add(300 * time.Millisecond); time.Now().Before(end); time.Sleep(10 * time.Millisecond) {
		if readyOf(t, hB).Replication.CaughtUp {
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
	base, seqs := testServer(t)
	m := base.currentModel()
	evs := chaosEvents(seqs)

	dirA := t.TempDir()
	srvA := bootRepl(t, m, dirA, nil)
	tsA := httpservetest.Start(t, srvA)
	defer tsA.Close()
	srvB := bootRepl(t, m, t.TempDir(), func(o *Options) { o.FollowURL = tsA.URL })
	hA, hB := tsA, httpservetest.Start(t, srvB)

	for _, ev := range evs[:30] {
		mustConsume(t, hA, ev)
	}
	waitFor(t, "standby caught up", func() bool { return replStatusOf(srvB).CaughtUp })

	// Stop shipping, then let the primary acknowledge 12 more writes it
	// will never ship: the doomed divergent tail.
	srvB.repl.Close()
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
	tsB := httpservetest.Start(t, srvB)
	defer tsB.Close()
	defer srvB.Close(0)

	// "Restart" the old primary as a follower of the new one (its old
	// pool is abandoned un-closed, as a crash would leave it).
	srvA2 := bootRepl(t, m, dirA, func(o *Options) { o.FollowURL = tsB.URL })
	hA2 := srvA2
	waitFor(t, "rejoined node caught up", func() bool { return replStatusOf(srvA2).CaughtUp })
	waitFor(t, "replication lag drained to 0", func() bool { return scrapeLagRecords(t, hA2) == 0 })

	if got, wantFP := storeFingerprint(t, srvA2), storeFingerprint(t, srvB); got != wantFP {
		t.Fatal("rejoined node did not converge with the new primary")
	}
	if got := srvA2.repl.Meta().Epoch; got != 1 {
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
	srvA2.Close(0)
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
	tsA := httpservetest.Start(t, srvA)
	srvB := bootRepl(t, m, t.TempDir(), func(o *Options) { o.FollowURL = tsA.URL })
	waitFor(t, "standby start", func() bool { return replStatusOf(srvB).Role == "follower" })
	if _, err := srvB.repl.Promote(); err != nil {
		t.Fatal(err)
	}
	tsA.Close()
	tsB := httpservetest.Start(t, srvB)
	defer tsB.Close()
	defer srvB.Close(0)

	// Old primary restarts at epoch 0 with -peers pointing at the fleet:
	// it must discover epoch 1 and start fenced.
	srvA2 := bootRepl(t, m, dirA, func(o *Options) { o.Peers = []string{tsB.URL, "http://127.0.0.1:1/unreachable"} })
	hA2 := srvA2
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
	srvB.ServeHTTP(rec, req)
	if rec.Code != http.StatusPreconditionFailed {
		t.Fatalf("stale-epoch /consume on new primary = %d, want 412", rec.Code)
	}
	srvA2.Close(0)
}

// getEpochStamped sends GET /replica/epoch stamped with epoch: the probe
// rrc-router sends every round, and the request that fences a node
// whose own epoch is lower.
func getEpochStamped(h http.Handler, epoch uint64) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodGet, "/replica/epoch", nil)
	req.Header.Set(replica.EpochHeader, strconv.FormatUint(epoch, 10))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// TestReplicaFencedNodeRefusesPromote: a primary fenced by a probe from
// the epoch that replaced it must not be promoted. Promotion bumps its
// own epoch, which is the one that fenced it, so the fleet would get two
// primaries on one epoch. Only an unfenced follower may be promoted; a
// deposed primary rejoins as a follower first.
func TestReplicaFencedNodeRefusesPromote(t *testing.T) {
	base, _ := testServer(t)
	m := base.currentModel()

	srvA := bootRepl(t, m, t.TempDir(), nil)
	defer srvA.Close(0)
	tsA := httpservetest.Start(t, srvA)
	srvB := bootRepl(t, m, t.TempDir(), func(o *Options) { o.FollowURL = tsA.URL })
	defer srvB.Close(0)
	if rr := postJSON(t, srvB, "/admin/promote", nil); rr.Code != http.StatusOK {
		t.Fatalf("promote standby: status %d: %s", rr.Code, rr.Body.String())
	}

	if rec := getEpochStamped(srvA, 1); rec.Code != http.StatusPreconditionFailed {
		t.Fatalf("epoch-1 probe of the old primary: status %d, want 412: %s", rec.Code, rec.Body.String())
	}
	if !replStatusOf(srvA).Fenced {
		t.Fatal("epoch-1 probe did not fence the old primary")
	}
	rr := postJSON(t, srvA, "/admin/promote", nil)
	if rr.Code != http.StatusConflict {
		t.Fatalf("promote fenced primary: status %d, want 409: %s", rr.Code, rr.Body.String())
	}
	if st := replStatusOf(srvA); st.Epoch != 0 || !st.Fenced {
		t.Fatalf("refused promotion changed the node: %+v", st)
	}
	raw, _ := json.Marshal(consumeRequest{User: 0, Item: 1})
	req := httptest.NewRequest(http.MethodPost, "/consume", bytes.NewReader(raw))
	req.Header.Set(replica.EpochHeader, "1")
	rec := httptest.NewRecorder()
	srvA.ServeHTTP(rec, req)
	if rec.Code == http.StatusOK {
		t.Fatal("fenced old primary acked a write stamped with the new epoch")
	}
}

// TestReplicaRejoinedFollowerUnfences: a deposed primary restarted as a
// follower of the new one can be fenced by a probe from the new epoch
// before its tailers have converged. Once they adopt that epoch the
// node is an ordinary follower again: /readyz says "following" and the
// router may read from it and promote it.
func TestReplicaRejoinedFollowerUnfences(t *testing.T) {
	base, seqs := testServer(t)
	m := base.currentModel()
	evs := chaosEvents(seqs)

	dirA := t.TempDir()
	srvA := bootRepl(t, m, dirA, nil)
	tsA := httpservetest.Start(t, srvA)
	srvB := bootRepl(t, m, t.TempDir(), func(o *Options) { o.FollowURL = tsA.URL })
	defer srvB.Close(0)
	for _, ev := range evs[:10] {
		mustConsume(t, tsA, ev)
	}
	waitApplied(t, srvA, srvB)
	tsA.Close()
	srvA.Close(0)
	if rr := postJSON(t, srvB, "/admin/promote", nil); rr.Code != http.StatusOK {
		t.Fatalf("promote standby: status %d: %s", rr.Code, rr.Body.String())
	}

	// The old primary rejoins behind a link that is down at first, so
	// the probe lands before its tailers reach the new primary.
	var up atomic.Bool
	link := httpservetest.Start(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !up.Load() {
			http.Error(w, "link down", http.StatusServiceUnavailable)
			return
		}
		srvB.ServeHTTP(w, r)
	}))
	srvA2 := bootRepl(t, m, dirA, func(o *Options) { o.FollowURL = link.URL })
	defer srvA2.Close(0)
	if rec := getEpochStamped(srvA2, 1); rec.Code != http.StatusPreconditionFailed {
		t.Fatalf("epoch-1 probe of the rejoining node: status %d, want 412: %s", rec.Code, rec.Body.String())
	}
	if !replStatusOf(srvA2).Fenced {
		t.Fatal("epoch-1 probe did not fence the rejoining node")
	}

	up.Store(true)
	waitFor(t, "rejoined follower adopts epoch 1 and unfences", func() bool {
		st := replStatusOf(srvA2)
		return st.Epoch == 1 && st.CaughtUp && !st.Fenced
	})
	ready := readyOf(t, srvA2)
	if ready.Status != "following" || ready.Replication.Role != "follower" {
		t.Fatalf("rejoined /readyz = %+v, want following", ready)
	}
}

// TestReplicaRetryAfterFromSupervisorBackoff pins satellite behavior:
// the Retry-After on a tripped shard's 503 is derived from the
// supervisor's remaining restart backoff — rounded up, never the old
// flat hint that invited guaranteed-rejected retries.
func TestReplicaRetryAfterFromSupervisorBackoff(t *testing.T) {
	base, _ := testServer(t)
	m := base.currentModel()
	srv := bootOnline(t, m, t.TempDir(), func(o *Options) {
		o.Shards = 1
		o.shardFailThreshold = 1
		o.shardBackoffBase = 7 * time.Second
		o.shardBackoffMax = 8 * time.Second
	})
	defer srv.Close(0)
	h := srv

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
	srv := bootOnline(t, m, t.TempDir(), func(o *Options) {
		o.Shards = 2
		o.SnapshotEvery = 0 // final snapshot happens only at close
	})
	h := srv
	for _, ev := range chaosEvents(seqs)[:8] {
		mustConsume(t, h, ev)
	}
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
