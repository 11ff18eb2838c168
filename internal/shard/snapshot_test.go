package shard

import (
	"encoding/json"
	"fmt"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"tsppr/internal/faultinject"
	"tsppr/internal/seq"
	"tsppr/internal/sessions"
)

// slowSnapshotWrite makes the next snapshot file take at least d to
// write: the stall sits on the file's first Write, after the capture.
func slowSnapshotWrite(d time.Duration) {
	faultinject.Arm("sessions.snapshot", faultinject.Plan{Mode: faultinject.Delay, Sleep: d, Count: 1})
}

// snapshotFiles lists the applied LSNs of dir's snapshot files,
// ascending: their names are fixed-width hex.
func snapshotFiles(t *testing.T, dir string) []uint64 {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, "sessions-*.snap"))
	if err != nil {
		t.Fatal(err)
	}
	lsns := make([]uint64, len(paths))
	for i, path := range paths {
		if _, err := fmt.Sscanf(filepath.Base(path), "sessions-%016x.snap", &lsns[i]); err != nil {
			t.Fatal(err)
		}
	}
	return lsns
}

// TestIngestProceedsWhileSnapshotIsWritten is the off-lock contract: the
// periodic snapshot holds the shard lock for its in-memory capture only,
// so appends racing a slow snapshot write stay fast, a second snapshot is
// not started on top of it, and Close and Drain still join it and leave
// a final snapshot at the last LSN.
func TestIngestProceedsWhileSnapshotIsWritten(t *testing.T) {
	for _, stop := range []string{"close", "drain"} {
		t.Run(stop, func(t *testing.T) {
			defer faultinject.Reset()
			dir := t.TempDir()
			cfg := testConfig(1)
			cfg.SnapshotEvery = 50
			p, err := Open(dir, cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer p.Close()
			sh := p.Shard(0)

			slowSnapshotWrite(500 * time.Millisecond)
			for i := 0; i < 50; i++ { // the 50th append starts the snapshot
				if _, _, err := p.Ingest(i%8, seq.Item(i)); err != nil {
					t.Fatal(err)
				}
			}
			var (
				wg      sync.WaitGroup
				mu      sync.Mutex
				slowest time.Duration
			)
			for w := 0; w < 4; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < 40; i++ { // 160 more appends: three more periods
						start := time.Now()
						if _, _, err := p.Ingest(w, seq.Item(i)); err != nil {
							t.Errorf("ingest during snapshot: %v", err)
							return
						}
						d := time.Since(start)
						mu.Lock()
						slowest = max(slowest, d)
						mu.Unlock()
					}
				}()
			}
			wg.Wait()
			if slowest >= 50*time.Millisecond {
				t.Fatalf("an ingest took %v while the snapshot was being written", slowest)
			}
			if st := sh.Status(); st.Snapshots != 0 || len(snapshotFiles(t, shardDir(dir, 0))) != 0 {
				t.Fatalf("snapshot already landed (%d counted, files %v): the ingests did not race its write",
					st.Snapshots, snapshotFiles(t, shardDir(dir, 0)))
			}

			if stop == "close" {
				err = sh.Close()
			} else {
				err = sh.Drain()
			}
			if err != nil {
				t.Fatal(err)
			}
			// Exactly two: the slow periodic one at LSN 50 — single-flight, so
			// the periods that elapsed behind it started nothing — then the
			// final one at the last LSN.
			if got := snapshotFiles(t, shardDir(dir, 0)); len(got) != 2 || got[0] != 50 || got[1] != 210 {
				t.Fatalf("snapshots on disk %v, want [50 210]", got)
			}
			if st := sh.Status(); st.Snapshots != 2 || st.SnapshotErrs != 0 {
				t.Fatalf("snapshots=%d errors=%d, want 2 and 0", st.Snapshots, st.SnapshotErrs)
			}
		})
	}
}

// TestSnapshotReturnsAfterTheFileLanded pins the explicit Snapshot call:
// it joins a write already in flight, takes one of its own at the current
// LSN, and returns only when that file exists.
func TestSnapshotReturnsAfterTheFileLanded(t *testing.T) {
	defer faultinject.Reset()
	dir := t.TempDir()
	cfg := testConfig(1)
	cfg.SnapshotEvery = 10
	p, err := Open(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	slowSnapshotWrite(100 * time.Millisecond)
	for i := 0; i < 15; i++ {
		if _, _, err := p.Ingest(i%8, seq.Item(i)); err != nil {
			t.Fatal(err)
		}
	}
	p.Shard(0).Snapshot()
	if got := snapshotFiles(t, shardDir(dir, 0)); len(got) != 2 || got[0] != 10 || got[1] != 15 {
		t.Fatalf("snapshots on disk %v, want [10 15]", got)
	}
}

// divergedShard builds the race's starting position: a one-shard pool
// with a snapshot at LSN 30, seventy events ingested, and the periodic
// snapshot captured at LSN 70 still being written when it returns. ref
// is the fingerprint of a pool that only ever saw the first keep events.
func divergedShard(t *testing.T, dir string, keep int) (p *Pool, ref string) {
	t.Helper()
	events := func(p *Pool, from, to int) {
		for i := from; i < to; i++ {
			if _, _, err := p.Ingest(i%8, seq.Item(100+i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	refPool, err := Open(t.TempDir(), testConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	events(refPool, 0, keep)
	ref = fingerprint(t, refPool)
	if err := refPool.Close(); err != nil {
		t.Fatal(err)
	}

	cfg := testConfig(1)
	cfg.SnapshotEvery = 40
	if p, err = Open(dir, cfg); err != nil {
		t.Fatal(err)
	}
	events(p, 0, 30)
	p.SnapshotAll() // sessions-30: the recovery base below the cut; restarts the period
	slowSnapshotWrite(200 * time.Millisecond)
	events(p, 30, 70) // the 40th append since starts the write of sessions-70
	if got := snapshotFiles(t, shardDir(dir, 0)); len(got) != 1 || got[0] != 30 {
		t.Fatalf("snapshots before the race %v, want [30] with 70 in flight", got)
	}
	return p, ref
}

// TestTruncateJoinsInFlightSnapshot is the resurrection race: a snapshot
// captured above the cut is still being written when the shard is told
// to drop its divergent tail. The file must not outlive the truncation —
// landing after DropSnapshotsFrom it would be the newest generation, and
// the next recovery would load the timeline that was just cut away.
func TestTruncateJoinsInFlightSnapshot(t *testing.T) {
	defer faultinject.Reset()
	dir := t.TempDir()
	p, ref := divergedShard(t, dir, 34)
	sh := p.Shard(0)
	if err := sh.TruncateAndReload(35); err != nil {
		t.Fatal(err)
	}
	if next, err := sh.NextLSN(); err != nil || next != 35 {
		t.Fatalf("next lsn %d err %v after truncating from 35", next, err)
	}
	time.Sleep(250 * time.Millisecond) // a straggling writer would have landed by now
	if got := snapshotFiles(t, shardDir(dir, 0)); len(got) != 1 || got[0] != 30 {
		t.Fatalf("snapshots after truncation %v, want [30]: one at or above the cut survived", got)
	}
	if got := fingerprint(t, p); got != ref {
		t.Fatalf("state after truncation diverged\n got %s\nwant %s", got, ref)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	p2, err := Open(dir, testConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	defer p2.Close()
	if got := fingerprint(t, p2); got != ref {
		t.Fatalf("recovery resurrected the cut timeline\n got %s\nwant %s", got, ref)
	}
}

// TestReseedJoinsInFlightSnapshot is the same race against Reseed: the
// straggler must be quarantined with its timeline, not land next to the
// new primary's snapshot and outrank it.
func TestReseedJoinsInFlightSnapshot(t *testing.T) {
	defer faultinject.Reset()
	// The new primary's state: 20 events, one snapshot.
	src, err := Open(t.TempDir(), testConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if _, _, err := src.Ingest(i%8, seq.Item(500+i)); err != nil {
			t.Fatal(err)
		}
	}
	ref := fingerprint(t, src)
	snapPath, snapLSN, err := src.Shard(0).SnapshotInfo()
	if err != nil || snapLSN != 20 {
		t.Fatalf("source snapshot lsn %d err %v", snapLSN, err)
	}
	defer src.Close()

	dir := t.TempDir()
	p, _ := divergedShard(t, dir, 0)
	defer p.Close()
	err = p.Shard(0).Reseed(snapLSN, func(dir string) error {
		return copyFile(snapPath, sessions.SnapshotPath(dir, snapLSN))
	})
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(250 * time.Millisecond)
	if got := snapshotFiles(t, shardDir(dir, 0)); len(got) != 1 || got[0] != 20 {
		t.Fatalf("snapshots after reseed %v, want [20]", got)
	}
	if got := snapshotFiles(t, filepath.Join(shardDir(dir, 0), quarantineDir)); fmt.Sprint(got) != "[30 70]" {
		t.Fatalf("quarantined snapshots %v, want [30 70]", got)
	}
	if got := fingerprint(t, p); got != ref {
		t.Fatalf("state after reseed diverged\n got %s\nwant %s", got, ref)
	}
}

// TestNoWindowIsForgotten: W_ut is the user's last |W| consumption steps,
// with no condition. However many users a shard holds, a user's window
// survives snapshots that cover and prune its events from the log, and a
// reopen that rebuilds the shard from what is left on disk.
func TestNoWindowIsForgotten(t *testing.T) {
	dir := t.TempDir()
	cfg := testConfig(1)
	cfg.MaxSessionsPerShard = 2
	cfg.SnapshotEvery = 2
	cfg.SegmentBytes = 2 * recordBytes
	p, err := Open(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ref := sessions.NewStore(sessions.Config{WindowCap: cfg.WindowCap})
	ingest := func(user int, item seq.Item) {
		t.Helper()
		lsn, _, err := p.Ingest(user, item)
		if err != nil {
			t.Fatal(err)
		}
		ref.Apply(lsn, user, item)
	}
	for u := 0; u < 3; u++ {
		ingest(u, seq.Item(10+u))
	}
	for i := 0; i < 6; i++ {
		ingest(1+i%2, seq.Item(20+i))
	}
	p.SnapshotAll()
	ingest(1, 30)
	ingest(2, 31)
	p.SnapshotAll()
	if pruned := p.WALStats().PrunedSegments; pruned == 0 {
		t.Fatal("no WAL segment pruned: u0's event is still in the log")
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}

	p, err = Open(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	win, _, ok, err := p.WindowCloneLSN(0)
	if err != nil || !ok {
		t.Fatalf("u0's window is gone after snapshot, prune and reopen (err %v)", err)
	}
	if items, pushed := win.Snapshot(); pushed != 1 || len(items) != 1 || items[0] != 10 {
		t.Fatalf("u0's window = %v (pushed %d), want [10] (pushed 1)", items, pushed)
	}
	want, err := json.Marshal(ref.Capture().Dump())
	if err != nil {
		t.Fatal(err)
	}
	if got := fingerprint(t, p); got != string(want) {
		t.Fatalf("reopened shard differs from a store that forgets nothing\n got %s\nwant %s", got, want)
	}
}
