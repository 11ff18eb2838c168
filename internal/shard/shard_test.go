package shard

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"tsppr/internal/faultinject"
	"tsppr/internal/seq"
	"tsppr/internal/sessions"
	"tsppr/internal/wal"
)

// TestUserShardGolden pins the user→shard mapping. These values are
// part of the on-disk contract: a shard's WAL directory is only
// replayable into the same shard, so if this test fails the change
// orphans every existing sharded events dir. Never update the
// expectations — revert the hash.
func TestUserShardGolden(t *testing.T) {
	golden := []struct{ user, shards, want int }{
		{0, 2, 1}, {1, 2, 1}, {2, 2, 0}, {3, 2, 1}, {7, 2, 1},
		{42, 2, 1}, {1000, 2, 0}, {65535, 2, 0}, {1048576, 2, 1},
		{0, 4, 3}, {1, 4, 1}, {2, 4, 2}, {3, 4, 1}, {7, 4, 3},
		{42, 4, 1}, {1000, 4, 0}, {65535, 4, 2}, {1048576, 4, 1},
		{0, 16, 15}, {1, 16, 1}, {2, 16, 14}, {3, 16, 13}, {7, 16, 7},
		{42, 16, 5}, {1000, 16, 8}, {65535, 16, 6}, {1048576, 16, 13},
		{0, 256, 175}, {1, 256, 193}, {2, 256, 206}, {3, 256, 237}, {7, 256, 215},
		{42, 256, 149}, {1000, 256, 72}, {65535, 256, 118}, {1048576, 256, 45},
	}
	for _, g := range golden {
		if got := UserShard(g.user, g.shards); got != g.want {
			t.Errorf("UserShard(%d, %d) = %d, want %d (HASH CHANGED: breaks existing event dirs)",
				g.user, g.shards, got, g.want)
		}
	}
	// Degenerate pools route everything to shard 0.
	for _, n := range []int{1, 0, -3} {
		if got := UserShard(12345, n); got != 0 {
			t.Errorf("UserShard(12345, %d) = %d, want 0", n, got)
		}
	}
}

// TestUserShardStable re-derives the mapping repeatedly: same id, same
// shard, every time.
func TestUserShardStable(t *testing.T) {
	for u := 0; u < 1000; u++ {
		first := UserShard(u, 16)
		for rep := 0; rep < 3; rep++ {
			if got := UserShard(u, 16); got != first {
				t.Fatalf("UserShard(%d, 16) unstable: %d then %d", u, first, got)
			}
		}
	}
}

// TestUserShardDistribution bounds the skew of the hash over 1M dense
// sequential ids — the realistic id shape, since user ids are matrix
// rows. Every one of 16 shards must hold within 2% of the fair share.
func TestUserShardDistribution(t *testing.T) {
	const (
		ids    = 1_000_000
		shards = 16
	)
	counts := make([]int, shards)
	for u := 0; u < ids; u++ {
		counts[UserShard(u, shards)]++
	}
	fair := float64(ids) / shards
	for i, c := range counts {
		if skew := (float64(c) - fair) / fair; skew > 0.02 || skew < -0.02 {
			t.Errorf("shard %d holds %d of %d ids (%.2f%% from fair share)", i, c, ids, skew*100)
		}
	}
}

// testConfig is a pool config tuned for fast tests: no fsync, tiny
// supervisor backoffs.
func testConfig(n int) Config {
	return Config{
		Shards:        n,
		WindowCap:     8,
		Fsync:         wal.SyncNever,
		FailThreshold: 2,
		BackoffBase:   time.Millisecond,
		BackoffMax:    4 * time.Millisecond,
	}
}

// seedEvents pushes a deterministic little stream for users 0..7 and
// returns the expected pool fingerprint.
func seedEvents(t *testing.T, p *Pool) string {
	t.Helper()
	for i := 0; i < 40; i++ {
		u := i % 8
		if _, _, err := p.Ingest(u, seq.Item(10+i%5)); err != nil {
			t.Fatalf("ingest u=%d: %v", u, err)
		}
	}
	return fingerprint(t, p)
}

func fingerprint(t *testing.T, p *Pool) string {
	t.Helper()
	b, err := json.Marshal(p.Dump())
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// waitState polls until sh reaches want or the deadline passes.
func waitState(t *testing.T, sh *Shard, want State) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if sh.State() == want {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("shard %d stuck in %s, want %s", sh.Index(), sh.State(), want)
}

// TestPoolLifecycleAndReopen is the happy path: ingest across four
// shards, close, reopen, and get byte-identical windows back — each
// shard recovered independently from its own directory.
func TestPoolLifecycleAndReopen(t *testing.T) {
	dir := t.TempDir()
	p, err := Open(dir, testConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	want := seedEvents(t, p)
	if !p.Ready() {
		t.Fatalf("pool not ready: %v", p.States())
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}

	// Four shard dirs on disk, no flat WAL in the root.
	dirs, _ := filepath.Glob(filepath.Join(dir, "shard-*"))
	if len(dirs) != 4 {
		t.Fatalf("shard dirs = %v, want 4", dirs)
	}
	if flat, _ := filepath.Glob(filepath.Join(dir, "wal-*.log")); len(flat) != 0 {
		t.Fatalf("flat WAL files in sharded root: %v", flat)
	}

	p2, err := Open(dir, testConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	defer p2.Close()
	if got := fingerprint(t, p2); got != want {
		t.Fatalf("reopen diverged\n got %s\nwant %s", got, want)
	}
	// Clean close snapshotted every shard: nothing to replay.
	for i := 0; i < p2.N(); i++ {
		if r := p2.Shard(i).RecoverStats().Replayed; r != 0 {
			t.Errorf("shard %d replayed %d records after clean close", i, r)
		}
	}
}

// TestDrainFencesOnlyThatShard drains one shard and verifies exactly
// its users bounce (with the long Retry-After) while every other
// shard's users keep ingesting.
func TestDrainFencesOnlyThatShard(t *testing.T) {
	p, err := Open(t.TempDir(), testConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	seedEvents(t, p)

	const victim = 2 // owns users 2, 4, 5 of 0..7
	if err := p.Drain(victim); err != nil {
		t.Fatal(err)
	}
	if err := p.Drain(victim); err != nil {
		t.Fatalf("drain not idempotent: %v", err)
	}
	if p.Shard(victim).State() != Stopped {
		t.Fatalf("drained shard state %s", p.Shard(victim).State())
	}
	if p.Ready() {
		t.Fatal("pool ready with a stopped shard")
	}
	for u := 0; u < 8; u++ {
		_, _, err := p.Ingest(u, 1)
		if p.ShardFor(u) == victim {
			var ue *UnavailableError
			if !errors.As(err, &ue) {
				t.Fatalf("user %d on drained shard: err = %v, want UnavailableError", u, err)
			}
			if ue.Shard != victim || ue.RetryAfter < 5*time.Second {
				t.Fatalf("user %d: %+v", u, ue)
			}
			if _, _, _, rerr := p.WindowCloneLSN(u); !errors.As(rerr, &ue) {
				t.Fatalf("user %d read on drained shard: %v", u, rerr)
			}
		} else if err != nil {
			t.Fatalf("user %d on healthy shard: %v", u, err)
		}
	}
}

// TestPanicTripsBreakerAndSupervisorRestarts injects a one-shot panic
// into one shard's ingest path: the panic is absorbed, the shard trips
// and restarts through recovery, its pre-fault windows survive, and the
// other shards never notice.
func TestPanicTripsBreakerAndSupervisorRestarts(t *testing.T) {
	defer faultinject.Reset()
	p, err := Open(t.TempDir(), testConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	want := seedEvents(t, p)

	const victim = 1 // owns users 1, 3
	faultinject.Arm(IngestPoint(victim), faultinject.Plan{Mode: faultinject.Panic, Count: 1})
	_, _, err = p.Ingest(1, 99)
	var ue *UnavailableError
	if !errors.As(err, &ue) || ue.Shard != victim {
		t.Fatalf("panic ingest: err = %v, want shard-%d UnavailableError", err, victim)
	}
	// Healthy shards are oblivious, even while the victim restarts.
	if _, _, err := p.Ingest(6, 50); err != nil {
		t.Fatalf("healthy shard during restart: %v", err)
	}

	waitState(t, p.Shard(victim), Serving)
	st := p.Shard(victim).Status()
	if st.BreakerTrips != 1 || st.Restarts != 1 {
		t.Fatalf("victim status %+v, want 1 trip / 1 restart", st)
	}
	// The panicked event was never acked; retry lands it. After catch-up
	// (plus user 6's extra event) the state must match the no-fault run
	// plus exactly those two events.
	if _, _, err := p.Ingest(1, 99); err != nil {
		t.Fatalf("retry after restart: %v", err)
	}
	got := p.Dump()
	var ref []sessions.UserWindow
	if err := json.Unmarshal([]byte(want), &ref); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(ref) {
		t.Fatalf("user count changed: %d vs %d", len(got), len(ref))
	}
	for i, uw := range got {
		wantPushed := ref[i].Pushed
		if uw.User == 1 || uw.User == 6 {
			wantPushed++ // the retried event and the during-restart event
		}
		if uw.Pushed != wantPushed {
			t.Fatalf("user %d pushed %d, want %d", uw.User, uw.Pushed, wantPushed)
		}
	}
}

// TestDumpSortsInterleavedShards: users hash across shards, so the
// per-shard dumps interleave. The merged listing must come back in
// ascending user order, and in n·log n — the fingerprint of a 20k-user
// pool is taken in well under a second.
func TestDumpSortsInterleavedShards(t *testing.T) {
	const users = 20_000
	p, err := Open(t.TempDir(), testConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	for u := 0; u < users; u++ {
		if _, _, err := p.Ingest(u, seq.Item(u%7)); err != nil {
			t.Fatalf("ingest u=%d: %v", u, err)
		}
	}
	start := time.Now()
	got := p.Dump()
	if d := time.Since(start); d > time.Second {
		t.Fatalf("Dump of %d users took %s, want < 1s", users, d)
	}
	if len(got) != users {
		t.Fatalf("Dump listed %d users, want %d", len(got), users)
	}
	for i, uw := range got {
		if uw.User != i {
			t.Fatalf("Dump[%d].User = %d: not ascending", i, uw.User)
		}
	}
}

// TestStickyAppendFailureTripsAfterThreshold drives FailThreshold
// consecutive append failures through one shard: below the threshold the
// raw storage error surfaces (event not durable, caller retries), at the
// threshold the breaker trips, and once the fault is lifted the
// supervisor brings the shard back.
func TestStickyAppendFailureTripsAfterThreshold(t *testing.T) {
	defer faultinject.Reset()
	p, err := Open(t.TempDir(), testConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	seedEvents(t, p)

	const victim = 3                                                                          // owns users 0, 7
	faultinject.Arm(IngestPoint(victim), faultinject.Plan{Mode: faultinject.Error, Count: 0}) // sticky
	_, _, err = p.Ingest(0, 1)
	var ue *UnavailableError
	if err == nil || errors.As(err, &ue) {
		t.Fatalf("first failure: err = %v, want raw storage error", err)
	}
	_, _, err = p.Ingest(7, 1) // second consecutive failure = FailThreshold
	if !errors.As(err, &ue) || ue.Shard != victim {
		t.Fatalf("threshold failure: err = %v, want UnavailableError", err)
	}
	faultinject.Disarm(IngestPoint(victim))
	waitState(t, p.Shard(victim), Serving)
	if _, _, err := p.Ingest(0, 1); err != nil {
		t.Fatalf("after recovery: %v", err)
	}
	if st := p.Shard(victim).Status(); st.BreakerTrips != 1 || st.Restarts < 1 {
		t.Fatalf("victim status %+v", st)
	}
}

// TestRestartBudgetExhaustedFails makes recovery itself impossible (a
// bit-flipped committed record under CorruptHalt) and verifies the
// supervisor gives up after its budget and parks the shard in Failed
// instead of hot-looping forever.
func TestRestartBudgetExhaustedFails(t *testing.T) {
	defer faultinject.Reset()
	dir := t.TempDir()
	cfg := testConfig(1)
	cfg.RestartBudget = 2
	p, err := Open(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	for i := 0; i < 6; i++ {
		if _, _, err := p.Ingest(i, 1); err != nil {
			t.Fatal(err)
		}
	}

	// Corrupt a committed record on disk, then trip the shard: every
	// recovery attempt must now refuse the WAL (CorruptHalt).
	segs, _ := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if len(segs) == 0 {
		t.Fatal("no wal segment")
	}
	raw, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	raw[2*16+8] ^= 0x01 // payload bit of record 2 (16B per record)
	if err := os.WriteFile(segs[0], raw, 0o644); err != nil {
		t.Fatal(err)
	}
	faultinject.Arm(IngestPoint(0), faultinject.Plan{Mode: faultinject.Panic, Count: 1})
	if _, _, err := p.Ingest(0, 1); err == nil {
		t.Fatal("panic ingest did not error")
	}

	waitState(t, p.Shard(0), Failed)
	st := p.Shard(0).Status()
	if st.Restarts != 0 || st.LastError == "" {
		t.Fatalf("failed-shard status %+v", st)
	}
	_, _, err = p.Ingest(0, 1)
	var ue *UnavailableError
	if !errors.As(err, &ue) || ue.State != Failed || ue.RetryAfter < 5*time.Second {
		t.Fatalf("ingest on failed shard: %v", err)
	}
}

// TestShardCountIsPinnedPerDir locks the layout guards: a root opened
// with one shard count can never silently reopen with another, in
// either direction, marker present or not.
func TestShardCountIsPinnedPerDir(t *testing.T) {
	// Marker mismatch, sharded → different N.
	dir := t.TempDir()
	p, err := Open(dir, testConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	p.Close()
	if _, err := Open(dir, testConfig(2)); err == nil || !strings.Contains(err.Error(), "created with 4") {
		t.Fatalf("N=4 dir reopened as N=2: %v", err)
	}

	// Marker mismatch, flat (N=1) → sharded.
	flat := t.TempDir()
	p, err = Open(flat, testConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := p.Ingest(0, 1); err != nil {
		t.Fatal(err)
	}
	p.Close()
	if _, err := Open(flat, testConfig(4)); err == nil {
		t.Fatal("flat dir reopened as N=4")
	}

	// Legacy flat dir (no marker, pre-sharding WAL files) → sharded.
	if err := os.Remove(filepath.Join(flat, markerName)); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(flat, testConfig(4)); err == nil || !strings.Contains(err.Error(), "unsharded event log") {
		t.Fatalf("legacy flat dir accepted as N=4: %v", err)
	}
	// ...but keeps working as N=1, which re-pins the marker.
	p, err = Open(flat, testConfig(1))
	if err != nil {
		t.Fatalf("legacy flat dir rejected as N=1: %v", err)
	}
	p.Close()
	if _, err := os.Stat(filepath.Join(flat, markerName)); err != nil {
		t.Fatalf("marker not re-pinned: %v", err)
	}

	// Sharded root without its marker → N=1.
	sharded := t.TempDir()
	p, err = Open(sharded, testConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	p.Close()
	if err := os.Remove(filepath.Join(sharded, markerName)); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(sharded, testConfig(1)); err == nil || !strings.Contains(err.Error(), "sharded events root") {
		t.Fatalf("sharded root accepted as N=1: %v", err)
	}

	// Garbage marker → refused outright.
	bad := t.TempDir()
	if err := os.WriteFile(filepath.Join(bad, markerName), []byte("many\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(bad, testConfig(2)); err == nil || !strings.Contains(err.Error(), "marker") {
		t.Fatalf("garbage marker accepted: %v", err)
	}
}
