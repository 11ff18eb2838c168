package main

// Chaos suite for the durable online-session layer: a server killed at
// any point during ingestion must recover per-user windows identical to
// an uninterrupted run (under -fsync always), and corruption must be
// detected, never silently served. Crashes are simulated in-process:
// faultinject tears the write (short write) and suppresses the
// self-heal, leaving the log exactly as a SIGKILL mid-append would;
// "restart" is reopening the same directory with a fresh store.

import (
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"testing"

	"tsppr/internal/core"
	"tsppr/internal/faultinject"
	"tsppr/internal/seq"
	"tsppr/internal/wal"
)

type event struct {
	user, item int
}

// chaosEvents derives a deterministic interleaved event stream from the
// generated sequences: 60 events round-robined over 4 users.
func chaosEvents(seqs []seq.Sequence) []event {
	evs := make([]event, 0, 60)
	for i := 0; i < 60; i++ {
		u := i % 4
		evs = append(evs, event{user: u, item: int(seqs[u][i/4])})
	}
	return evs
}

// bootOnline builds a server over an existing trained model with the
// online layer rooted in dir. Recovery runs inside newOnline, exactly as
// a process restart would.
func bootOnline(t *testing.T, m *core.Model, dir string, mutate func(*serverOptions)) *server {
	t.Helper()
	srv := newServer(m, serverOptions{
		windowCap:    20,
		defaultOmega: 3,
		eventsDir:    dir,
		fsync:        wal.SyncAlways,
	})
	if mutate != nil {
		mutate(&srv.opts)
	}
	o, err := newOnline(srv.opts, m)
	if err != nil {
		t.Fatalf("recovery failed: %v", err)
	}
	srv.online = o
	return srv
}

func storeFingerprint(t *testing.T, srv *server) string {
	t.Helper()
	b, err := json.Marshal(srv.online.pool.Dump())
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func mustConsume(t *testing.T, h http.Handler, ev event) {
	t.Helper()
	rr := postJSON(t, h, "/consume", consumeRequest{User: ev.user, Item: ev.item})
	if rr.Code != http.StatusOK {
		t.Fatalf("consume %+v: status %d: %s", ev, rr.Code, rr.Body.String())
	}
}

// referenceRun ingests every event uninterrupted and returns the
// canonical end-state fingerprint.
func referenceRun(t *testing.T, m *core.Model, evs []event, mutate func(*serverOptions)) string {
	t.Helper()
	srv := bootOnline(t, m, t.TempDir(), mutate)
	defer srv.online.close()
	h := srv.routes()
	for _, ev := range evs {
		mustConsume(t, h, ev)
	}
	return storeFingerprint(t, srv)
}

// TestCrashMidAppendRecoversIdentically is the core chaos property: for
// a spread of kill points p, the server dies mid-append of event p (torn
// tail on disk, no ack to the client), restarts, the client retries p
// and continues — and the final windows are byte-identical to the
// uninterrupted run.
func TestCrashMidAppendRecoversIdentically(t *testing.T) {
	base, seqs := testServer(t)
	m := base.currentModel()
	evs := chaosEvents(seqs)
	want := referenceRun(t, m, evs, nil)

	for p := 0; p < len(evs); p += 7 {
		dir := t.TempDir()
		srv := bootOnline(t, m, dir, nil)
		h := srv.routes()
		for _, ev := range evs[:p] {
			mustConsume(t, h, ev)
		}
		// Kill mid-append of event p: the write tears halfway and the
		// self-heal "never runs" (the process is dead).
		faultinject.Arm("wal.append", faultinject.Plan{Mode: faultinject.ShortWrite, Count: 1})
		faultinject.Arm("wal.heal", faultinject.Plan{Mode: faultinject.Error, Count: 1})
		rr := postJSON(t, h, "/consume", consumeRequest{User: evs[p].user, Item: evs[p].item})
		faultinject.Reset()
		if rr.Code != http.StatusServiceUnavailable {
			t.Fatalf("p=%d: torn append status %d, want 503: %s", p, rr.Code, rr.Body.String())
		}
		// Abandon srv without closing: simulated SIGKILL. Restart:
		srv2 := bootOnline(t, m, dir, nil)
		ws := srv2.online.pool.WALStats()
		if ws.TruncatedTails != 1 {
			t.Fatalf("p=%d: truncated tails = %d, want 1", p, ws.TruncatedTails)
		}
		if ws.RecoveredRecords != int64(p) {
			t.Fatalf("p=%d: recovered %d records, want %d", p, ws.RecoveredRecords, p)
		}
		// The client saw a 503 for event p, so it retries, then carries on.
		h2 := srv2.routes()
		for _, ev := range evs[p:] {
			mustConsume(t, h2, ev)
		}
		if got := storeFingerprint(t, srv2); got != want {
			t.Fatalf("p=%d: recovered state diverged\n got %s\nwant %s", p, got, want)
		}
		srv2.online.close()
	}
}

// TestCrashMidSnapshotRecoversIdentically kills the process while a
// periodic snapshot is being written. The half-written snapshot must
// never be visible (atomic rename), the WAL stays authoritative, and
// the restarted server converges to the reference state.
func TestCrashMidSnapshotRecoversIdentically(t *testing.T) {
	base, seqs := testServer(t)
	m := base.currentModel()
	evs := chaosEvents(seqs)
	small := func(o *serverOptions) { o.snapshotEvery = 8 }
	want := referenceRun(t, m, evs, small)

	dir := t.TempDir()
	srv := bootOnline(t, m, dir, small)
	h := srv.routes()
	// The 8th consume triggers a snapshot; tear it mid-write.
	faultinject.Arm("sessions.snapshot", faultinject.Plan{Mode: faultinject.ShortWrite, Count: 1})
	for _, ev := range evs[:20] {
		mustConsume(t, h, ev) // snapshot failure is non-fatal: appends keep working
	}
	// Periodic snapshots are written in the background: join the torn one
	// and leave a good generation behind before the process "dies".
	srv.online.pool.SnapshotAll()
	faultinject.Reset()
	if serrs := srv.online.pool.Shard(0).Status().SnapshotErrs; serrs == 0 {
		t.Fatal("snapshot fault never fired")
	}
	if snaps, _ := filepath.Glob(filepath.Join(dir, "shard-000", "sessions-*.snap")); len(snaps) == 0 {
		t.Fatal("later snapshot generation missing")
	}

	// SIGKILL, restart, finish the stream.
	srv2 := bootOnline(t, m, dir, small)
	h2 := srv2.routes()
	for _, ev := range evs[20:] {
		mustConsume(t, h2, ev)
	}
	if got := storeFingerprint(t, srv2); got != want {
		t.Fatalf("post-snapshot-crash state diverged\n got %s\nwant %s", got, want)
	}
	srv2.online.close()
}

// TestBitFlippedRecordIsDetectedNeverServed flips one bit of a committed
// record on disk. Default policy: the restart refuses to serve. Skip
// policy: the restart quarantines the record, counts it, and every other
// event survives.
func TestBitFlippedRecordIsDetectedNeverServed(t *testing.T) {
	base, seqs := testServer(t)
	m := base.currentModel()
	evs := chaosEvents(seqs)[:12]

	dir := t.TempDir()
	srv := bootOnline(t, m, dir, nil)
	h := srv.routes()
	for _, ev := range evs {
		mustConsume(t, h, ev)
	}
	// Abandon srv open (SIGKILL): close() would flush a snapshot and
	// prune the segment this test is about to corrupt. Under -fsync
	// always every acknowledged record is already on disk.

	// Flip a payload bit of record 5 (records are 8B header + 8B event).
	segs, err := filepath.Glob(filepath.Join(dir, "shard-000", "wal-*.log"))
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

	// Default (halt): the server must refuse to start rather than serve
	// windows silently missing an acknowledged event.
	opts := serverOptions{windowCap: 20, defaultOmega: 3, eventsDir: dir, fsync: wal.SyncAlways}
	if _, err := newOnline(opts, m); err == nil {
		t.Fatal("halt policy started over a corrupt record")
	}

	// Opt-in skip: starts, quarantines exactly one record, serves the rest.
	srv2 := bootOnline(t, m, dir, func(o *serverOptions) { o.corrupt = wal.CorruptSkip })
	defer srv2.online.close()
	ws := srv2.online.pool.WALStats()
	if ws.SkippedCorrupt != 1 {
		t.Fatalf("skipped corrupt = %d, want 1", ws.SkippedCorrupt)
	}
	if got := int(ws.RecoveredRecords); got != len(evs)-1 {
		t.Fatalf("recovered %d records, want %d", got, len(evs)-1)
	}
}

// TestTruncatedFinalRecordRecovered cuts the last committed record short
// on disk (as a crash between the two sectors of a write would). The
// restart truncates the torn tail, the client re-consumes the lost
// event, and the state matches the reference.
func TestTruncatedFinalRecordRecovered(t *testing.T) {
	base, seqs := testServer(t)
	m := base.currentModel()
	evs := chaosEvents(seqs)[:10]
	want := referenceRun(t, m, evs, nil)

	dir := t.TempDir()
	srv := bootOnline(t, m, dir, nil)
	h := srv.routes()
	for _, ev := range evs {
		mustConsume(t, h, ev)
	}
	// Abandoned open: SIGKILL semantics, same rationale as the bit-flip
	// test (close() would snapshot and prune the segment under test).

	segs, _ := filepath.Glob(filepath.Join(dir, "shard-000", "wal-*.log"))
	fi, err := os.Stat(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(segs[0], fi.Size()-5); err != nil {
		t.Fatal(err)
	}

	srv2 := bootOnline(t, m, dir, nil)
	defer srv2.online.close()
	ws := srv2.online.pool.WALStats()
	if ws.TruncatedTails != 1 || ws.RecoveredRecords != int64(len(evs)-1) {
		t.Fatalf("stats after torn tail: %+v", ws)
	}
	// The ack for the last event was (in this scenario) lost with the
	// crash; the client retries it.
	mustConsume(t, srv2.routes(), evs[len(evs)-1])
	if got := storeFingerprint(t, srv2); got != want {
		t.Fatalf("torn-tail recovery diverged\n got %s\nwant %s", got, want)
	}
}

// TestGracefulShutdownRecoversFromSnapshotAlone verifies the clean path:
// close() flushes a final snapshot, so the next start replays nothing
// and still reproduces the exact state.
func TestGracefulShutdownRecoversFromSnapshotAlone(t *testing.T) {
	base, seqs := testServer(t)
	m := base.currentModel()
	evs := chaosEvents(seqs)

	dir := t.TempDir()
	srv := bootOnline(t, m, dir, nil)
	h := srv.routes()
	for _, ev := range evs {
		mustConsume(t, h, ev)
	}
	want := storeFingerprint(t, srv)
	if err := srv.online.close(); err != nil {
		t.Fatal(err)
	}

	srv2 := bootOnline(t, m, dir, nil)
	defer srv2.online.close()
	if replayed := srv2.online.pool.Shard(0).RecoverStats().Replayed; replayed != 0 {
		t.Fatalf("replayed %d records after graceful shutdown, want 0", replayed)
	}
	if got := storeFingerprint(t, srv2); got != want {
		t.Fatalf("graceful restart diverged\n got %s\nwant %s", got, want)
	}
}
