package sessions

import (
	"bytes"
	"encoding/json"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"tsppr/internal/faultinject"
	"tsppr/internal/seq"
	"tsppr/internal/wal"
)

func mustStore(cfg Config) *Store {
	if cfg.WindowCap == 0 {
		cfg.WindowCap = 5
	}
	return NewStore(cfg)
}

// fingerprint canonicalizes a store's state for equality checks.
func fingerprint(t *testing.T, s *Store) string {
	t.Helper()
	b, err := json.Marshal(s.Capture().Dump())
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func TestApplyAdvancesWindows(t *testing.T) {
	s := mustStore(Config{WindowCap: 3})
	events := []struct {
		user int
		item seq.Item
	}{{0, 1}, {0, 2}, {1, 7}, {0, 3}, {0, 4}}
	for i, ev := range events {
		if !s.Apply(uint64(i+1), ev.user, ev.item) {
			t.Fatalf("event %d not applied", i)
		}
	}
	ring, _, ok := s.RingCloneLSN(0)
	if !ok {
		t.Fatal("no window for user 0")
	}
	items, pushed := ring.Snapshot()
	if pushed != 4 || !reflect.DeepEqual(items, []seq.Item{2, 3, 4}) {
		t.Fatalf("user 0 window = %v (pushed %d)", items, pushed)
	}
	if s.WindowLen(1) != 1 || s.WindowLen(99) != 0 {
		t.Fatalf("window lengths wrong: u1=%d u99=%d", s.WindowLen(1), s.WindowLen(99))
	}
	if s.AppliedLSN() != 5 || s.Len() != 2 {
		t.Fatalf("lsn=%d sessions=%d", s.AppliedLSN(), s.Len())
	}
}

func TestApplyIsIdempotentOverLSNs(t *testing.T) {
	s := mustStore(Config{WindowCap: 3})
	s.Apply(1, 0, 5)
	s.Apply(2, 0, 6)
	// Over-replay: the same LSNs again must not double-push.
	if s.Apply(1, 0, 5) || s.Apply(2, 0, 6) {
		t.Fatal("duplicate LSNs were applied")
	}
	if s.WindowLen(0) != 2 {
		t.Fatalf("window len %d after over-replay, want 2", s.WindowLen(0))
	}
}

func TestApplyDropsOutOfBoundsEvents(t *testing.T) {
	s := mustStore(Config{WindowCap: 3, NumUsers: 2, NumItems: 10})
	if s.Apply(1, 5, 1) || s.Apply(2, 0, 99) || s.Apply(3, -1, 1) || s.Apply(4, 0, -2) {
		t.Fatal("out-of-bounds event applied")
	}
	if s.Dropped() != 4 || s.Len() != 0 {
		t.Fatalf("dropped=%d sessions=%d", s.Dropped(), s.Len())
	}
	// The LSN still advances: a dropped event is observed, not lost.
	if s.AppliedLSN() != 4 {
		t.Fatalf("applied lsn %d, want 4", s.AppliedLSN())
	}
}

func TestEventCodecRoundtrip(t *testing.T) {
	b := EncodeEvent(123, 456)
	user, item, err := DecodeEvent(b)
	if err != nil || user != 123 || item != 456 {
		t.Fatalf("roundtrip = (%d, %d, %v)", user, item, err)
	}
	if _, _, err := DecodeEvent(b[:5]); err == nil {
		t.Fatal("short payload decoded")
	}
}

func TestSnapshotRoundtripPreservesState(t *testing.T) {
	dir := t.TempDir()
	s := mustStore(Config{WindowCap: 4})
	lsn := uint64(0)
	for i, ev := range []struct {
		user int
		item seq.Item
	}{{2, 1}, {0, 3}, {1, 4}, {0, 5}, {2, 6}, {1, 7}, {1, 8}} {
		lsn = uint64(i + 1)
		s.Apply(lsn, ev.user, ev.item)
	}
	path, savedLSN, err := s.Save(dir)
	if err != nil {
		t.Fatal(err)
	}
	if savedLSN != lsn {
		t.Fatalf("snapshot lsn %d, want %d", savedLSN, lsn)
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatal(err)
	}

	restored, stats, err := LoadLatest(dir, Config{WindowCap: 4})
	if err != nil {
		t.Fatal(err)
	}
	if stats.SnapshotLSN != lsn || stats.SnapshotUsers != 3 {
		t.Fatalf("load stats = %+v", stats)
	}
	if fingerprint(t, restored) != fingerprint(t, s) {
		t.Fatalf("restored state differs:\n%s\n%s", fingerprint(t, restored), fingerprint(t, s))
	}
	if restored.AppliedLSN() != lsn {
		t.Fatalf("restored lsn %d", restored.AppliedLSN())
	}
	// Applies after the restore land on the same windows as on the live
	// store.
	for _, st := range []*Store{restored, s} {
		st.Apply(lsn+1, 5, 1)
		st.Apply(lsn+2, 0, 9)
	}
	if fingerprint(t, restored) != fingerprint(t, s) {
		t.Fatal("post-restore applies diverged from the live store")
	}
}

func TestLoadLatestSkipsCorruptSnapshot(t *testing.T) {
	dir := t.TempDir()
	s := mustStore(Config{WindowCap: 4})
	s.Apply(1, 0, 1)
	if _, _, err := s.Save(dir); err != nil {
		t.Fatal(err)
	}
	s.Apply(2, 0, 2)
	path2, _, err := s.Save(dir)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a body byte of the newest snapshot: its CRC check must fail
	// and recovery must fall back to the older generation.
	raw, err := os.ReadFile(path2)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-3] ^= 1
	if err := os.WriteFile(path2, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	restored, stats, err := LoadLatest(dir, Config{WindowCap: 4})
	if err != nil {
		t.Fatal(err)
	}
	if stats.SnapshotsSkipped != 1 || stats.SnapshotLSN != 1 {
		t.Fatalf("fallback stats = %+v", stats)
	}
	if restored.AppliedLSN() != 1 {
		t.Fatalf("restored from lsn %d, want the older snapshot", restored.AppliedLSN())
	}
}

func TestLoadLatestRefusesCapacityMismatch(t *testing.T) {
	dir := t.TempDir()
	s := mustStore(Config{WindowCap: 4})
	s.Apply(1, 0, 1)
	if _, _, err := s.Save(dir); err != nil {
		t.Fatal(err)
	}
	if _, _, err := LoadLatest(dir, Config{WindowCap: 9}); err == nil {
		t.Fatal("capacity mismatch accepted")
	}
}

func TestPruneSnapshotsKeepsTwoGenerations(t *testing.T) {
	dir := t.TempDir()
	s := mustStore(Config{WindowCap: 4})
	for i := 1; i <= 4; i++ {
		s.Apply(uint64(i), 0, seq.Item(i))
		if _, _, err := s.Save(dir); err != nil {
			t.Fatal(err)
		}
	}
	horizon, err := PruneSnapshots(dir)
	if err != nil {
		t.Fatal(err)
	}
	if horizon != 3 {
		t.Fatalf("prune horizon %d, want the older kept snapshot's lsn 3", horizon)
	}
	snaps, err := listSnapshots(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) != KeepSnapshots {
		t.Fatalf("%d snapshots kept, want %d", len(snaps), KeepSnapshots)
	}
}

func TestSnapshotWriteFailureLeavesOldGeneration(t *testing.T) {
	faultinject.Reset()
	defer faultinject.Reset()
	dir := t.TempDir()
	s := mustStore(Config{WindowCap: 4})
	s.Apply(1, 0, 1)
	if _, _, err := s.Save(dir); err != nil {
		t.Fatal(err)
	}
	s.Apply(2, 0, 2)
	faultinject.Arm("sessions.snapshot", faultinject.Plan{Mode: faultinject.ShortWrite})
	if _, _, err := s.Save(dir); err == nil {
		t.Fatal("short-written snapshot reported success")
	}
	faultinject.Reset()
	restored, stats, err := LoadLatest(dir, Config{WindowCap: 4})
	if err != nil {
		t.Fatal(err)
	}
	if stats.SnapshotLSN != 1 || restored.AppliedLSN() != 1 {
		t.Fatalf("old generation lost: %+v", stats)
	}
}

func TestRecoverFromSnapshotPlusWALTail(t *testing.T) {
	dir := t.TempDir()
	l, err := wal.Open(dir, wal.Options{Sync: wal.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{WindowCap: 4}
	live := NewStore(cfg)
	apply := func(user int, item seq.Item) {
		lsn, err := l.Append(EncodeEvent(user, item))
		if err != nil {
			t.Fatal(err)
		}
		live.Apply(lsn, user, item)
	}
	apply(0, 1)
	apply(1, 2)
	apply(0, 3)
	if _, _, err := live.Save(dir); err != nil {
		t.Fatal(err)
	}
	apply(2, 4) // after the snapshot: only in the WAL
	apply(0, 5)

	recovered, stats, err := Recover(dir, l, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if stats.SnapshotLSN != 3 || stats.Replayed != 2 {
		t.Fatalf("recover stats = %+v", stats)
	}
	if fingerprint(t, recovered) != fingerprint(t, live) {
		t.Fatalf("recovered != live:\n%s\n%s", fingerprint(t, recovered), fingerprint(t, live))
	}
	l.Close()
}

func TestRecoverWithoutSnapshotReplaysEverything(t *testing.T) {
	dir := t.TempDir()
	l, err := wal.Open(dir, wal.Options{Sync: wal.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	cfg := Config{WindowCap: 4}
	live := NewStore(cfg)
	for i := 0; i < 9; i++ {
		lsn, err := l.Append(EncodeEvent(i%3, seq.Item(i)))
		if err != nil {
			t.Fatal(err)
		}
		live.Apply(lsn, i%3, seq.Item(i))
	}
	recovered, stats, err := Recover(dir, l, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if stats.SnapshotPath != "" || stats.Replayed != 9 {
		t.Fatalf("recover stats = %+v", stats)
	}
	if fingerprint(t, recovered) != fingerprint(t, live) {
		t.Fatal("full-replay recovery diverged")
	}
	_ = filepath.Join // keep import balanced if helpers change
}

// TestRecoverRefusesPrunedLogWithoutSnapshot damages every snapshot of a
// directory whose log no longer reaches back to LSN 1. The store would
// start empty and replay only the retained tail — windows silently
// missing acknowledged events — so recovery must refuse and name the
// missing range.
func TestRecoverRefusesPrunedLogWithoutSnapshot(t *testing.T) {
	cfg := Config{WindowCap: 40}
	damage := func(t *testing.T, dir string) {
		t.Helper()
		snaps, err := filepath.Glob(filepath.Join(dir, "sessions-*.snap"))
		if err != nil || len(snaps) == 0 {
			t.Fatalf("no snapshots to damage (err %v)", err)
		}
		for _, path := range snaps {
			if err := os.WriteFile(path, []byte("garbage\n"), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	refuse := func(t *testing.T, dir string, l *wal.Log, missing string) {
		t.Helper()
		_, stats, err := Recover(dir, l, cfg)
		if !errors.Is(err, wal.ErrPruned) {
			t.Fatalf("recover over a pruned log without a loadable snapshot: err = %v (stats %+v), want ErrPruned", err, stats)
		}
		if !strings.Contains(err.Error(), missing) {
			t.Fatalf("recover error %q does not name the missing events %s", err, missing)
		}
	}

	t.Run("pruned behind two snapshots", func(t *testing.T) {
		dir := t.TempDir()
		l, err := wal.Open(dir, wal.Options{SegmentBytes: 256, Sync: wal.SyncNever})
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		live := NewStore(cfg)
		for i := 1; i <= 200; i++ {
			lsn, err := l.Append(EncodeEvent(i%5, seq.Item(i)))
			if err != nil {
				t.Fatal(err)
			}
			live.Apply(lsn, i%5, seq.Item(i))
			if i == 80 || i == 150 {
				if _, _, err := live.Save(dir); err != nil {
					t.Fatal(err)
				}
			}
		}
		horizon, err := PruneSnapshots(dir)
		if err != nil || horizon != 80 {
			t.Fatalf("prune horizon %d err %v, want 80", horizon, err)
		}
		if err := l.Prune(horizon); err != nil {
			t.Fatal(err)
		}
		if oldest := l.OldestLSN(); oldest != 81 {
			t.Fatalf("oldest retained lsn %d, want 81", oldest)
		}
		damage(t, dir)
		refuse(t, dir, l, "events 1..80")
	})

	t.Run("reseeded follower", func(t *testing.T) {
		// A reseed writes the primary's snapshot at S and starts a fresh
		// log at S+1; with that snapshot unreadable, nothing holds 1..S.
		dir := t.TempDir()
		seed := NewStore(cfg)
		for lsn := uint64(1); lsn <= 20; lsn++ {
			seed.Apply(lsn, int(lsn%3), seq.Item(lsn))
		}
		if _, _, err := seed.Save(dir); err != nil {
			t.Fatal(err)
		}
		l, err := wal.Open(dir, wal.Options{Sync: wal.SyncNever, InitialLSN: 21})
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		for i := 0; i < 5; i++ {
			if _, err := l.Append(EncodeEvent(i, seq.Item(i))); err != nil {
				t.Fatal(err)
			}
		}
		damage(t, dir)
		refuse(t, dir, l, "events 1..20")
	})
}

// TestUserLSN covers the response cache's version probe: Apply stamps
// each session with the LSN of its latest event, UserLSN reads it, and
// unknown users report absence.
func TestUserLSN(t *testing.T) {
	s := mustStore(Config{WindowCap: 3})
	if _, ok := s.UserLSN(0); ok {
		t.Fatal("unknown user reported an LSN")
	}
	s.Apply(1, 0, 5)
	s.Apply(2, 1, 6)
	s.Apply(3, 0, 7)
	if lsn, ok := s.UserLSN(0); !ok || lsn != 3 {
		t.Fatalf("user 0 lsn = %d,%v, want 3", lsn, ok)
	}
	if lsn, ok := s.UserLSN(1); !ok || lsn != 2 {
		t.Fatalf("user 1 lsn = %d,%v, want 2", lsn, ok)
	}
	// A duplicate LSN is not applied and must not re-stamp the session.
	if s.Apply(3, 0, 7) {
		t.Fatal("duplicate applied")
	}
	if lsn, _ := s.UserLSN(0); lsn != 3 {
		t.Fatalf("over-replay moved user 0 lsn to %d", lsn)
	}
}

// RingCloneLSN must return the ring and the LSN as one pair: the pair is
// what makes a response-cache fill attributable to an exact store
// version.
func TestWindowCloneLSN(t *testing.T) {
	s := mustStore(Config{WindowCap: 3})
	if _, _, ok := s.RingCloneLSN(0); ok {
		t.Fatal("unknown user cloned")
	}
	s.Apply(1, 0, 5)
	s.Apply(2, 0, 6)
	ring, lsn, ok := s.RingCloneLSN(0)
	if !ok || lsn != 2 {
		t.Fatalf("clone lsn = %d,%v, want 2", lsn, ok)
	}
	items, pushed := ring.Snapshot()
	if pushed != 2 || !reflect.DeepEqual(items, []seq.Item{5, 6}) {
		t.Fatalf("cloned ring = %v (pushed %d)", items, pushed)
	}
	// The clone is a copy: later applies must not leak into it.
	s.Apply(3, 0, 7)
	if items2, _ := ring.Snapshot(); !reflect.DeepEqual(items2, items) {
		t.Fatal("clone shares storage with the live ring")
	}
	if _, lsn, _ := s.RingCloneLSN(0); lsn != 3 {
		t.Fatalf("post-apply clone lsn = %d, want 3", lsn)
	}
}

// A restored snapshot has no per-event attribution, so every session is
// conservatively stamped with the snapshot's applied LSN: probes after
// restart never hit with an LSN older than any state they could see.
func TestSnapshotRestoreStampsSessionLSNs(t *testing.T) {
	dir := t.TempDir()
	s := mustStore(Config{WindowCap: 4})
	s.Apply(1, 0, 1)
	s.Apply(2, 1, 2)
	s.Apply(3, 1, 3)
	if _, _, err := s.Save(dir); err != nil {
		t.Fatal(err)
	}
	restored, _, err := LoadLatest(dir, Config{WindowCap: 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, user := range []int{0, 1} {
		if lsn, ok := restored.UserLSN(user); !ok || lsn != 3 {
			t.Fatalf("restored user %d lsn = %d,%v, want snapshot lsn 3", user, lsn, ok)
		}
	}
	// Live applies after restore stamp precisely again.
	restored.Apply(4, 0, 9)
	if lsn, _ := restored.UserLSN(0); lsn != 4 {
		t.Fatalf("post-restore apply lsn = %d, want 4", lsn)
	}
	if lsn, _ := restored.UserLSN(1); lsn != 3 {
		t.Fatalf("untouched user moved to lsn %d", lsn)
	}
}

// TestCaptureWriteIsChunkedButByteIdentical pins the snapshot file
// format across the capture/write split: a store whose encoded body
// spans many write chunks produces exactly the bytes of the one-buffer
// encoder it replaced (header first, CRC over the whole body), and the
// capture is unaffected by applies that land between Capture and Write.
func TestCaptureWriteIsChunkedButByteIdentical(t *testing.T) {
	dir := t.TempDir()
	s := mustStore(Config{WindowCap: 100})
	lsn := uint64(0)
	for u := 0; u < 1500; u++ {
		for k := 0; k < 100; k++ {
			lsn++
			s.Apply(lsn, u, seq.Item(10000+(u*31+k*7)%9000))
		}
	}
	want := s.Capture().Dump()
	c := s.Capture()
	s.Apply(lsn+1, 3, 1) // after the capture: must not show in the file

	var body bytes.Buffer
	enc := json.NewEncoder(&body)
	for _, uw := range want {
		if err := enc.Encode(uw); err != nil {
			t.Fatal(err)
		}
	}
	if body.Len() < 4*snapChunkBytes {
		t.Fatalf("body %d bytes: too small to span chunks", body.Len())
	}
	var ref bytes.Buffer
	if err := json.NewEncoder(&ref).Encode(snapHeader{
		Format: snapFormat, WindowCap: 100, AppliedLSN: lsn, Users: 1500,
		BodyCRC: crc32.Checksum(body.Bytes(), snapCRC),
	}); err != nil {
		t.Fatal(err)
	}
	ref.Write(body.Bytes())

	path, savedLSN, err := c.Write(dir)
	if err != nil {
		t.Fatal(err)
	}
	if savedLSN != lsn {
		t.Fatalf("snapshot lsn %d, want the lsn at capture %d", savedLSN, lsn)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, ref.Bytes()) {
		t.Fatalf("chunked snapshot (%d bytes) differs from the one-buffer encoding (%d bytes)", len(got), ref.Len())
	}
	restored, _, err := LoadLatest(dir, Config{WindowCap: 100})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(restored.Capture().Dump(), want) {
		t.Fatal("restored state differs from the state at capture")
	}
}
