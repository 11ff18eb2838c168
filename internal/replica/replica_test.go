package replica_test

import (
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"tsppr/internal/faultinject"
	"tsppr/internal/obs"
	"tsppr/internal/replica"
	"tsppr/internal/seq"
	"tsppr/internal/shard"
	"tsppr/internal/wal"
)

func poolCfg(n, snapshotEvery int) shard.Config {
	return shard.Config{
		Shards:        n,
		WindowCap:     8,
		Fsync:         wal.SyncNever,
		SnapshotEvery: snapshotEvery,
		SegmentBytes:  128, // rotate constantly so pruning actually prunes
	}
}

// newPrimary serves the replication endpoints of pool as a primary
// under the meta persisted at its root.
func newPrimary(t *testing.T, pool *shard.Pool) (*replica.Node, *httptest.Server) {
	t.Helper()
	n, err := replica.Open(pool, replica.Config{Wait: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	mux := http.NewServeMux()
	n.Register(mux)
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return n, ts
}

func newFollower(t *testing.T, primary string, pool *shard.Pool, reg *obs.Registry) *replica.Node {
	t.Helper()
	f, err := replica.Open(pool, replica.Config{
		Follow:      primary,
		BackoffBase: 5 * time.Millisecond,
		BackoffMax:  50 * time.Millisecond,
		Metrics:     reg,
	})
	if err != nil {
		t.Fatalf("follower start: %v", err)
	}
	t.Cleanup(f.Close)
	return f
}

func waitCaughtUp(t *testing.T, f *replica.Node) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if f.CaughtUp() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("follower never caught up")
}

func fingerprint(t *testing.T, p *shard.Pool) string {
	t.Helper()
	b, err := json.Marshal(p.Dump())
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func ingest(t *testing.T, p *shard.Pool, users, events int) {
	t.Helper()
	for e := 0; e < events; e++ {
		u := e % users
		if _, _, err := p.Ingest(u, seq.Item(e%13)); err != nil {
			t.Fatalf("ingest event %d: %v", e, err)
		}
	}
}

// ingestPruned ingests 60 events and leaves the pool's WAL pruned well
// past LSN 1. Periodic snapshots are written in the background, so how
// many land during a burst is a matter of timing; two explicit
// generations, the older at LSN 30, make the prune horizon certain.
func ingestPruned(t *testing.T, p *shard.Pool) {
	t.Helper()
	ingest(t, p, 4, 30)
	p.SnapshotAll()
	ingest(t, p, 4, 30)
	p.SnapshotAll()
}

func TestMetaPromoteAdoptDivergence(t *testing.T) {
	var m replica.Meta
	m2, err := m.Promote(1, []uint64{10, 20})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m2.Promote(1, nil); err == nil {
		t.Fatal("re-promoting to the same epoch must fail")
	}
	m3, err := m2.Promote(3, []uint64{15, 25})
	if err != nil {
		t.Fatal(err)
	}
	if m3.Epoch != 3 || len(m3.History) != 2 {
		t.Fatalf("meta after two promotions: %+v", m3)
	}

	// A node synced through epoch 0 diverged at the min base across both
	// promotions; one synced through epoch 1 only at the second's.
	if div, ok := m3.DivergenceLSN(0, 0); !ok || div != 10 {
		t.Fatalf("divergence(shard 0, since 0) = %d,%v", div, ok)
	}
	if div, ok := m3.DivergenceLSN(1, 1); !ok || div != 25 {
		t.Fatalf("divergence(shard 1, since 1) = %d,%v", div, ok)
	}
	if _, ok := m3.DivergenceLSN(0, 3); ok {
		t.Fatal("no divergence expected for a fully synced node")
	}

	// Adopting a superset history is fine; adopting one missing our own
	// promotion is a divergent future and must be refused.
	var fresh replica.Meta
	if _, err := fresh.Adopt(m3); err != nil {
		t.Fatalf("fresh adopt: %v", err)
	}
	side, err := m2.Promote(2, []uint64{11, 21})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := side.Adopt(m3); err == nil {
		t.Fatal("adopting a history missing our epoch-2 promotion must fail")
	}
}

func TestMetaStoreLoad(t *testing.T) {
	dir := t.TempDir()
	m, err := replica.LoadMeta(dir)
	if err != nil {
		t.Fatal(err)
	}
	if m.Epoch != 0 || m.History != nil {
		t.Fatalf("missing marker should load zero meta, got %+v", m)
	}
	m, err = m.Promote(2, []uint64{7})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Store(dir); err != nil {
		t.Fatal(err)
	}
	got, err := replica.LoadMeta(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got.Epoch != 2 || len(got.History) != 1 || got.History[0].Bases[0] != 7 {
		t.Fatalf("round trip: %+v", got)
	}
}

func TestReplicaStreamConverges(t *testing.T) {
	primaryPool, err := shard.Open(t.TempDir(), poolCfg(2, 0))
	if err != nil {
		t.Fatal(err)
	}
	defer primaryPool.Close()
	ingest(t, primaryPool, 6, 80)

	_, ts := newPrimary(t, primaryPool)

	followRoot := t.TempDir()
	followPool, err := shard.Open(followRoot, poolCfg(2, 0))
	if err != nil {
		t.Fatal(err)
	}
	defer followPool.Close()
	reg := obs.NewRegistry()
	f := newFollower(t, ts.URL, followPool, reg)
	waitCaughtUp(t, f)

	if got, want := fingerprint(t, followPool), fingerprint(t, primaryPool); got != want {
		t.Fatalf("follower state diverged:\n got %s\nwant %s", got, want)
	}
	for i := 0; i < 2; i++ {
		if rec, _ := f.Lag(i); rec != 0 {
			t.Fatalf("shard %d lag %d after catch-up", i, rec)
		}
	}

	// Live tail: new primary writes show up without restarting anything.
	ingest(t, primaryPool, 6, 40)
	deadline := time.Now().Add(10 * time.Second)
	for fingerprint(t, followPool) != fingerprint(t, primaryPool) {
		if time.Now().After(deadline) {
			t.Fatal("live tail never converged")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestReplicaEpochConflictTruncatesAndAdopts(t *testing.T) {
	// Node A: the original primary. Node B: its fully caught-up standby.
	rootA, rootB := t.TempDir(), t.TempDir()
	poolA, err := shard.Open(rootA, poolCfg(2, 0))
	if err != nil {
		t.Fatal(err)
	}
	defer poolA.Close()
	poolB, err := shard.Open(rootB, poolCfg(2, 0))
	if err != nil {
		t.Fatal(err)
	}
	defer poolB.Close()

	ingest(t, poolA, 6, 40)
	_, tsA := newPrimary(t, poolA)
	fB := newFollower(t, tsA.URL, poolB, nil)
	waitCaughtUp(t, fB)
	fB.Close()

	// B is promoted: epoch 2, bases = B's horizons. A, not knowing,
	// keeps acknowledging writes — a divergent tail B never saw.
	bases, err := replica.NextLSNs(poolB)
	if err != nil {
		t.Fatal(err)
	}
	metaB, err := fB.Meta().Promote(2, bases)
	if err != nil {
		t.Fatal(err)
	}
	if err := metaB.Store(rootB); err != nil {
		t.Fatal(err)
	}
	ingest(t, poolA, 6, 24) // A's doomed tail
	ingest(t, poolB, 6, 16) // B's new-timeline writes

	// A rejoins as a follower of B: its stale epoch gets a 412 carrying
	// the divergence LSN, it truncates the tail, adopts epoch 2, and
	// converges to B's timeline byte-identically.
	_, tsB := newPrimary(t, poolB)
	fA := newFollower(t, tsB.URL, poolA, nil)
	waitCaughtUp(t, fA)

	if got, want := fingerprint(t, poolA), fingerprint(t, poolB); got != want {
		t.Fatalf("rejoined node diverged:\n got %s\nwant %s", got, want)
	}
	if got := fA.Meta().Epoch; got != 2 {
		t.Fatalf("rejoined node epoch %d, want 2", got)
	}
	persisted, err := replica.LoadMeta(rootA)
	if err != nil {
		t.Fatal(err)
	}
	if persisted.Epoch != 2 {
		t.Fatalf("adopted epoch not persisted: %+v", persisted)
	}
}

func TestReplicaReseedWhenPruned(t *testing.T) {
	// Aggressive snapshotting prunes the primary's WAL well past LSN 1,
	// so a fresh follower cannot tail from the beginning and must
	// download a snapshot.
	root := t.TempDir()
	primaryPool, err := shard.Open(root, poolCfg(1, 5))
	if err != nil {
		t.Fatal(err)
	}
	defer primaryPool.Close()
	ingestPruned(t, primaryPool)
	if oldest := primaryPool.Shard(0).WALStats(); oldest.PrunedSegments == 0 {
		t.Fatal("wal never pruned; the test would not exercise the reseed path")
	}

	_, ts := newPrimary(t, primaryPool)
	followRoot := t.TempDir()
	followPool, err := shard.Open(followRoot, poolCfg(1, 0))
	if err != nil {
		t.Fatal(err)
	}
	defer followPool.Close()
	reg := obs.NewRegistry()
	f := newFollower(t, ts.URL, followPool, reg)
	waitCaughtUp(t, f)

	if got, want := fingerprint(t, followPool), fingerprint(t, primaryPool); got != want {
		t.Fatalf("reseeded state diverged:\n got %s\nwant %s", got, want)
	}
	if n := reg.SumCounters("rrc_replica_resyncs_total"); n == 0 {
		t.Fatal("expected at least one snapshot resync")
	}
}

// TestReplicaReseedFailureRecovers: the first snapshot download lands
// short, so the reseed fails after the old timeline was quarantined. The
// shard must not stay down: its supervisor reopens the emptied directory,
// the next poll is told to reseed again, and the follower catches up.
func TestReplicaReseedFailureRecovers(t *testing.T) {
	defer faultinject.Reset()
	root := t.TempDir()
	primaryPool, err := shard.Open(root, poolCfg(1, 5))
	if err != nil {
		t.Fatal(err)
	}
	defer primaryPool.Close()
	ingestPruned(t, primaryPool)
	_, ts := newPrimary(t, primaryPool)

	followPool, err := shard.Open(t.TempDir(), poolCfg(1, 0))
	if err != nil {
		t.Fatal(err)
	}
	defer followPool.Close()
	faultinject.Arm("replica.reseed", faultinject.Plan{Mode: faultinject.ShortWrite, Count: 1})
	reg := obs.NewRegistry()
	f := newFollower(t, ts.URL, followPool, reg)
	waitCaughtUp(t, f)

	if got, want := fingerprint(t, followPool), fingerprint(t, primaryPool); got != want {
		t.Fatalf("state after a failed then retried reseed diverged:\n got %s\nwant %s", got, want)
	}
	if n := reg.SumCounters("rrc_replica_resyncs_total"); n < 2 {
		t.Fatalf("%v snapshot resyncs, want the failed one and its retry", n)
	}
	if st := followPool.Shard(0).Status(); st.State != "serving" {
		t.Fatalf("follower shard %s after catching up", st.State)
	}
}

func TestFollowerRefusesDeposedPrimary(t *testing.T) {
	// The follower has witnessed epoch 3; the primary is stuck at 1.
	// The primary must fence itself and the follower must not adopt the
	// older timeline.
	root := t.TempDir()
	primaryPool, err := shard.Open(root, poolCfg(1, 0))
	if err != nil {
		t.Fatal(err)
	}
	defer primaryPool.Close()
	ingest(t, primaryPool, 2, 10)

	primary, ts := newPrimary(t, primaryPool)

	followRoot := t.TempDir()
	followPool, err := shard.Open(followRoot, poolCfg(1, 0))
	if err != nil {
		t.Fatal(err)
	}
	defer followPool.Close()
	promoted, err := replica.Meta{}.Promote(3, []uint64{1})
	if err != nil {
		t.Fatal(err)
	}
	if err := promoted.Store(followRoot); err != nil {
		t.Fatal(err)
	}
	f := newFollower(t, ts.URL, followPool, nil)

	deadline := time.Now().Add(5 * time.Second)
	for !primary.Status().Fenced {
		if time.Now().After(deadline) {
			t.Fatal("primary never saw the higher epoch")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if f.CaughtUp() {
		t.Fatal("follower must not sync from a deposed primary")
	}
	if got := f.Meta().Epoch; got != 3 {
		t.Fatalf("follower regressed to epoch %d", got)
	}
}

func TestTruncateAndReloadPrunedFallsToReseed(t *testing.T) {
	// A shard whose WAL no longer reaches below the divergence point
	// reports wal.ErrPruned so the tailer reseeds instead.
	root := t.TempDir()
	pool, err := shard.Open(root, poolCfg(1, 5))
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	ingestPruned(t, pool)
	sh := pool.Shard(0)
	oldest := uint64(1)
	if next, err := sh.NextLSN(); err != nil || next < 10 {
		t.Fatalf("next=%d err=%v", next, err)
	}
	err = sh.TruncateAndReload(oldest)
	if err == nil {
		t.Fatal("wal retained everything; the test would not exercise the pruned path")
	}
	if !errors.Is(err, wal.ErrPruned) {
		t.Fatalf("got %v, want wal.ErrPruned", err)
	}
	if sh.State() != shard.Serving {
		t.Fatalf("shard left %v after refused truncate", sh.State())
	}
}
