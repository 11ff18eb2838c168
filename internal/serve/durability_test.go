package serve

// Chaos suite for the durable online-session layer: a server killed at
// any point during ingestion must recover per-user windows identical to
// an uninterrupted run (under -fsync always), and corruption must be
// detected, never silently served. Crashes are simulated in-process:
// faultinject tears the write (short write) and suppresses the
// self-heal, leaving the log exactly as a SIGKILL mid-append would;
// "restart" is reopening the same directory with a fresh store, as
// newNode's kill and restart handles do.

import (
	"errors"
	"net/http"
	"os"
	"path/filepath"
	"testing"

	"tsppr/internal/faultinject"
	"tsppr/internal/wal"
)

// TestCrashMidAppendRecoversIdentically is the core chaos property: for
// a spread of kill points p, the server dies mid-append of event p (torn
// tail on disk, no ack to the client), restarts, the client retries p
// and continues — and the final windows are byte-identical to the
// uninterrupted run.
func TestCrashMidAppendRecoversIdentically(t *testing.T) {
	m, seqs := trained(t, 8)
	evs := chaosEvents(seqs)
	want := referenceRun(t, m, evs)

	for p := 0; p < len(evs); p += 7 {
		srv := newNode(t, m, "")
		mustConsume(t, srv, evs[:p]...)
		// Kill mid-append of event p: the write tears halfway and the
		// self-heal "never runs" (the process is dead).
		faultinject.Arm("wal.append", faultinject.Plan{Mode: faultinject.ShortWrite, Count: 1})
		faultinject.Arm("wal.heal", faultinject.Plan{Mode: faultinject.Error, Count: 1})
		rr := send(srv, "POST /consume", consumeRequest{User: evs[p].user, Item: evs[p].item})
		faultinject.Reset()
		if rr.Code != http.StatusServiceUnavailable {
			t.Fatalf("p=%d: torn append status %d, want 503: %s", p, rr.Code, rr.Body.String())
		}
		srv.kill()
		srv.restart()
		if ws := srv.pool.WALStats(); ws.TruncatedTails != 1 {
			t.Fatalf("p=%d: truncated tails = %d, want 1", p, ws.TruncatedTails)
		}
		if got := srv.pool.Shard(0).RecoverStats().Replayed; got != p {
			t.Fatalf("p=%d: recovered %d records, want %d", p, got, p)
		}
		// The client saw a 503 for event p, so it retries, then carries on.
		mustConsume(t, srv, evs[p:]...)
		if got := storeFingerprint(t, srv); got != want {
			t.Fatalf("p=%d: recovered state diverged\n got %s\nwant %s", p, got, want)
		}
		srv.Close(0)
	}
}

// TestCrashMidSnapshotRecoversIdentically kills the process while a
// periodic snapshot is being written. The half-written snapshot must
// never be visible (atomic rename), the WAL stays authoritative, and
// the restarted server converges to the reference state.
func TestCrashMidSnapshotRecoversIdentically(t *testing.T) {
	m, seqs := trained(t, 8)
	evs := chaosEvents(seqs)
	small := func(o *Options) { o.SnapshotEvery = 8 }
	want := referenceRun(t, m, evs, small)

	srv := newNode(t, m, "", small)
	// The 8th consume triggers a snapshot; tear it mid-write.
	faultinject.Arm("sessions.snapshot", faultinject.Plan{Mode: faultinject.ShortWrite, Count: 1})
	mustConsume(t, srv, evs[:20]...) // snapshot failure is non-fatal: appends keep working
	// Periodic snapshots are written in the background: join the torn one
	// and leave a good generation behind before the process "dies".
	srv.pool.SnapshotAll()
	faultinject.Reset()
	if serrs := srv.pool.Shard(0).Status().SnapshotErrs; serrs == 0 {
		t.Fatal("snapshot fault never fired")
	}
	if snaps, _ := filepath.Glob(filepath.Join(srv.dir, "shard-000", "sessions-*.snap")); len(snaps) == 0 {
		t.Fatal("later snapshot generation missing")
	}

	// SIGKILL, restart, finish the stream.
	srv.kill()
	srv.restart()
	mustConsume(t, srv, evs[20:]...)
	if got := storeFingerprint(t, srv); got != want {
		t.Fatalf("post-snapshot-crash state diverged\n got %s\nwant %s", got, want)
	}
}

// TestBitFlippedRecordIsDetectedNeverServed flips one bit of a committed
// record on disk: the restart refuses to serve.
func TestBitFlippedRecordIsDetectedNeverServed(t *testing.T) {
	m, seqs := trained(t, 8)
	srv := newNode(t, m, "")
	mustConsume(t, srv, chaosEvents(seqs)[:12]...)
	// SIGKILL: Close would flush a snapshot and prune the segment this
	// test is about to corrupt. Under -fsync always every acknowledged
	// record is already on disk.
	srv.kill()

	// Flip a payload bit of record 5 (records are 8B header + 8B event).
	segs, err := filepath.Glob(filepath.Join(srv.dir, "shard-000", "wal-*.log"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no wal segments: %v", err)
	}
	raw, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	raw[5*16+8+3] ^= 0x10
	if err := os.WriteFile(segs[0], raw, 0o644); err != nil {
		t.Fatal(err)
	}

	// The server must refuse to start rather than serve windows silently
	// missing an acknowledged event.
	if _, err := New(srv.currentModel(), srv.opts); !errors.Is(err, wal.ErrCorrupt) {
		t.Fatalf("start over a corrupt record: err = %v, want ErrCorrupt", err)
	}
}

// TestTruncatedFinalRecordRecovered cuts the last committed record short
// on disk (as a crash between the two sectors of a write would). The
// restart truncates the torn tail, the client re-consumes the lost
// event, and the state matches the reference.
func TestTruncatedFinalRecordRecovered(t *testing.T) {
	m, seqs := trained(t, 8)
	evs := chaosEvents(seqs)[:10]
	want := referenceRun(t, m, evs)

	srv := newNode(t, m, "")
	mustConsume(t, srv, evs...)
	// SIGKILL, same rationale as the bit-flip test (Close would snapshot
	// and prune the segment under test).
	srv.kill()

	segs, _ := filepath.Glob(filepath.Join(srv.dir, "shard-000", "wal-*.log"))
	fi, err := os.Stat(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(segs[0], fi.Size()-5); err != nil {
		t.Fatal(err)
	}

	srv.restart()
	ws, rs := srv.pool.WALStats(), srv.pool.Shard(0).RecoverStats()
	if ws.TruncatedTails != 1 || rs.Replayed != len(evs)-1 {
		t.Fatalf("stats after torn tail: %+v, %+v", ws, rs)
	}
	// The ack for the last event was (in this scenario) lost with the
	// crash; the client retries it.
	mustConsume(t, srv, evs[len(evs)-1])
	if got := storeFingerprint(t, srv); got != want {
		t.Fatalf("torn-tail recovery diverged\n got %s\nwant %s", got, want)
	}
}

// TestGracefulShutdownRecoversFromSnapshotAlone verifies the clean path:
// Close flushes a final snapshot, so the next start replays nothing
// and still reproduces the exact state.
func TestGracefulShutdownRecoversFromSnapshotAlone(t *testing.T) {
	m, seqs := trained(t, 8)
	srv := newNode(t, m, "")
	mustConsume(t, srv, chaosEvents(seqs)...)
	want := storeFingerprint(t, srv)
	srv.restart() // graceful: Close, then boot over the same dir

	if replayed := srv.pool.Shard(0).RecoverStats().Replayed; replayed != 0 {
		t.Fatalf("replayed %d records after graceful shutdown, want 0", replayed)
	}
	if got := storeFingerprint(t, srv); got != want {
		t.Fatalf("graceful restart diverged\n got %s\nwant %s", got, want)
	}
}
