package shard

import (
	"io"
	"os"
	"path/filepath"
	"testing"

	"tsppr/internal/faultinject"
	"tsppr/internal/seq"
	"tsppr/internal/sessions"
	"tsppr/internal/wal"
)

// quiesce returns once no background snapshot write is in flight.
func quiesce(sh *Shard) {
	sh.lockQuiesced()
	sh.mu.Unlock()
}

func ingestRange(t *testing.T, p *Pool, from, to int) {
	t.Helper()
	for i := from; i < to; i++ {
		if _, _, err := p.Ingest(i%2000, seq.Item(i%7919)); err != nil {
			t.Fatalf("ingest %d: %v", i, err)
		}
	}
}

// seedLargeRoot leaves a one-shard root whose newest snapshot holds
// 2,000 full windows — large enough that its file outweighs hundreds of
// SnapshotEvery=64 periods of log — and returns that snapshot.
func seedLargeRoot(t *testing.T) (root, snapPath string, snapLSN uint64) {
	t.Helper()
	root = t.TempDir()
	p, err := Open(root, testConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	ingestRange(t, p, 0, 2000*8)
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	snapPath, snapLSN, ok, err := sessions.NewestSnapshot(shardDir(root, 0))
	if err != nil || !ok {
		t.Fatalf("seed root has no snapshot (err %v)", err)
	}
	return root, snapPath, snapLSN
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

// TestPeriodicSnapshotFollowsLogSize pins the periodic trigger: a snapshot
// is due only once SnapshotEvery appends AND the log written since the
// newest snapshot outweighs that snapshot's file. Every site that installs
// a store must seed the size floor from the recovered file; each case
// starts from a zero floor, so a site that forgets falls back to a
// snapshot every SnapshotEvery appends and fails here.
func TestPeriodicSnapshotFollowsLogSize(t *testing.T) {
	const every = 64
	cfg := testConfig(1)
	cfg.SnapshotEvery = every

	sites := []struct {
		name    string
		install func(t *testing.T) *Pool
	}{
		{"open", func(t *testing.T) *Pool {
			root, _, _ := seedLargeRoot(t)
			p, err := Open(root, cfg)
			if err != nil {
				t.Fatal(err)
			}
			return p
		}},
		{"supervised restart", func(t *testing.T) *Pool {
			root, _, _ := seedLargeRoot(t)
			p, err := Open(root, cfg)
			if err != nil {
				t.Fatal(err)
			}
			sh := p.Shard(0)
			sh.snapBytes.Store(0)
			defer faultinject.Reset()
			faultinject.Arm(IngestPoint(0), faultinject.Plan{Mode: faultinject.Panic, Count: 1})
			if _, _, err := p.Ingest(0, 1); err == nil {
				t.Fatal("armed ingest panic did not trip the breaker")
			}
			waitState(t, sh, Serving)
			if sh.Status().Restarts != 1 {
				t.Fatal("shard serving again without a supervised restart")
			}
			return p
		}},
		{"truncate reload", func(t *testing.T) *Pool {
			root, _, _ := seedLargeRoot(t)
			p, err := Open(root, cfg)
			if err != nil {
				t.Fatal(err)
			}
			ingestRange(t, p, 0, 10)
			sh := p.Shard(0)
			sh.snapBytes.Store(0)
			next, err := sh.NextLSN()
			if err != nil {
				t.Fatal(err)
			}
			if err := sh.TruncateAndReload(next - 5); err != nil {
				t.Fatal(err)
			}
			if got := sh.RecoverStats().Replayed; got != 5 {
				t.Fatalf("reload replayed %d records, want 5", got)
			}
			return p
		}},
		{"reseed", func(t *testing.T) *Pool {
			_, snapPath, snapLSN := seedLargeRoot(t)
			p, err := Open(t.TempDir(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			err = p.Shard(0).Reseed(snapLSN, func(dir string) error {
				return copyFile(snapPath, sessions.SnapshotPath(dir, snapLSN))
			})
			if err != nil {
				t.Fatal(err)
			}
			return p
		}},
	}
	for _, site := range sites {
		t.Run(site.name, func(t *testing.T) {
			p := site.install(t)
			defer p.Close()
			sh := p.Shard(0)
			dir := sh.Dir()
			before := snapshotFiles(t, dir)
			rs := sh.RecoverStats()
			size := fileSize(rs.SnapshotPath)
			// Appends until due: the log since the snapshot (the replayed
			// records count) must reach the file's size.
			due := int((size+recordBytes-1)/recordBytes) - rs.Replayed
			if due <= 4*every {
				t.Fatalf("snapshot of %d B is due after %d appends: too small to tell the size floor from SnapshotEvery", size, due)
			}

			ingestRange(t, p, 0, 4*every)
			quiesce(sh)
			if got := snapshotFiles(t, dir); len(got) != len(before) {
				t.Fatalf("%d appends against a %d B snapshot wrote one: snapshots %v, were %v", 4*every, size, got, before)
			}
			ingestRange(t, p, 4*every, due-1)
			quiesce(sh)
			if got := snapshotFiles(t, dir); len(got) != len(before) {
				t.Fatalf("snapshot one append early: snapshots %v, were %v", got, before)
			}
			ingestRange(t, p, due-1, due)
			quiesce(sh)
			next, err := sh.NextLSN()
			if err != nil {
				t.Fatal(err)
			}
			got := snapshotFiles(t, dir)
			if len(got) != len(before)+1 || got[len(got)-1] != next-1 {
				t.Fatalf("after %d appends: snapshots %v, were %v; want one new one at lsn %d", due, got, before, next-1)
			}
			if st := sh.Status(); st.Snapshots != 1 || st.SnapshotErrs != 0 {
				t.Fatalf("snapshots=%d errors=%d, want 1 and 0", st.Snapshots, st.SnapshotErrs)
			}
		})
	}
}

// TestRecoveryReplaysAtMostOneSnapshotOfLog crashes a shard at the worst
// moment of the cadence — the append before a periodic snapshot would
// start — and checks the recovery bound the trigger promises: the replayed
// tail is at most the newest snapshot's size plus one SnapshotEvery of
// log, and the recovered state equals a pure WAL replay of the same
// events.
func TestRecoveryReplaysAtMostOneSnapshotOfLog(t *testing.T) {
	const (
		every = 64
		users = 300
	)
	cfg := testConfig(1)
	cfg.SnapshotEvery = every
	dir, refDir := t.TempDir(), t.TempDir()
	p, err := Open(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := Open(refDir, testConfig(1)) // never snapshots before the crash
	if err != nil {
		t.Fatal(err)
	}
	sh := p.Shard(0)
	dueNext := func() bool {
		sh.mu.Lock()
		defer sh.mu.Unlock()
		n := sh.sinceSnapshot + 1
		return n >= every && int64(n)*recordBytes >= sh.snapBytes.Load()
	}
	events := 0
	for sh.Status().Snapshots < 3 || !dueNext() {
		for _, q := range []*Pool{p, ref} {
			if _, _, err := q.Ingest(events%users, seq.Item(events%977)); err != nil {
				t.Fatal(err)
			}
		}
		events++
		quiesce(sh) // each periodic write lands before the next append
	}

	// Every event is one fixed-size record: the unit the trigger counts in.
	segs, err := filepath.Glob(filepath.Join(shardDir(refDir, 0), "wal-*.log"))
	if err != nil {
		t.Fatal(err)
	}
	var walBytes int64
	for _, seg := range segs {
		walBytes += fileSize(seg)
	}
	if walBytes != int64(events)*recordBytes {
		t.Fatalf("%d events wrote %d WAL bytes, want %d per record", events, walBytes, recordBytes)
	}

	// Crash both: abandon the pools without their final snapshots.
	p2, err := Open(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer p2.Close()
	ref2, err := Open(refDir, testConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	defer ref2.Close()

	rs := p2.Shard(0).RecoverStats()
	size := fileSize(rs.SnapshotPath)
	if bound := size + every*recordBytes; int64(rs.Replayed)*recordBytes > bound {
		t.Fatalf("replayed %d records (%d B) past a %d B snapshot: over the %d B bound",
			rs.Replayed, int64(rs.Replayed)*recordBytes, size, bound)
	}
	if int64(rs.Replayed+1)*recordBytes < size || rs.Replayed < every {
		t.Fatalf("replayed %d records past a %d B snapshot: the crash missed the worst case", rs.Replayed, size)
	}
	if rr := ref2.Shard(0).RecoverStats(); rr.SnapshotPath != "" || rr.Replayed != events {
		t.Fatalf("reference recovered %+v, want a pure replay of %d records", rr, events)
	}
	if got, want := fingerprint(t, p2), fingerprint(t, ref2); got != want {
		t.Fatalf("recovered state differs from a pure WAL replay\n got %s\nwant %s", got, want)
	}
}

// BenchmarkRecover puts a number on the recovery bound at the north-star
// window shape (25,000 users × |W| = 100, one shard): snapshot_load is a
// restart with nothing past the snapshot, snapshot_plus_max_tail one with
// the longest tail the size-floor trigger allows — one snapshot's worth of
// log. The second should cost at most about twice the first.
func BenchmarkRecover(b *testing.B) {
	const users, window = 25_000, 100
	cfg := Config{WindowCap: window, MaxSessionsPerShard: users, Fsync: wal.SyncNever}
	tailDir, snapDir := b.TempDir(), b.TempDir()
	l, store, _, err := openState(tailDir, cfg)
	if err != nil {
		b.Fatal(err)
	}
	apply := func(u int, it seq.Item) {
		lsn, err := l.Append(sessions.EncodeEvent(u, it))
		if err != nil {
			b.Fatal(err)
		}
		store.Apply(lsn, u, it)
	}
	for k := 0; k < window; k++ {
		for u := 0; u < users; u++ {
			apply(u, seq.Item((u*31+k)%50_000))
		}
	}
	snapPath, _, err := store.Save(tailDir)
	if err != nil {
		b.Fatal(err)
	}
	size := fileSize(snapPath)
	tail := int(size / recordBytes)
	for i := 0; i < tail; i++ {
		apply(i%users, seq.Item(i%50_000))
	}
	if err := l.Close(); err != nil {
		b.Fatal(err)
	}
	if err := copyFile(snapPath, filepath.Join(snapDir, filepath.Base(snapPath))); err != nil {
		b.Fatal(err)
	}

	for _, c := range []struct{ name, dir string }{
		{"snapshot_load", snapDir},
		{"snapshot_plus_max_tail", tailDir},
	} {
		b.Run(c.name, func(b *testing.B) {
			var rs sessions.RecoverStats
			for i := 0; i < b.N; i++ {
				var l *wal.Log
				l, _, rs, err = openState(c.dir, cfg)
				if err != nil {
					b.Fatal(err)
				}
				l.Close()
			}
			b.ReportMetric(float64(size)/(1<<20), "snap_MB")
			b.ReportMetric(float64(rs.Replayed), "replayed")
		})
	}
}
