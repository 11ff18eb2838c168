package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"tsppr/internal/faultinject"
)

func appendN(t *testing.T, l *Log, start, n int) {
	t.Helper()
	for i := start; i < start+n; i++ {
		lsn, err := l.Append([]byte(fmt.Sprintf("rec-%04d", i)))
		if err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
		if want := uint64(i + 1); lsn != want {
			t.Fatalf("append %d: lsn %d, want %d", i, lsn, want)
		}
	}
}

// collect reads every record with LSN ≥ from in one ReadFrom, as
// recovery does.
func collect(t *testing.T, l *Log, from uint64) map[uint64]string {
	t.Helper()
	got := map[uint64]string{}
	_, err := l.ReadFrom(from, math.MaxInt, func(lsn uint64, payload []byte) error {
		got[lsn] = string(payload)
		return nil
	})
	if err != nil {
		t.Fatalf("read from %d: %v", from, err)
	}
	return got
}

// segFiles returns the wal segment names currently in dir.
func segFiles(t *testing.T, dir string) []string {
	t.Helper()
	segs, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, len(segs))
	for i, sg := range segs {
		names[i] = sg.name
	}
	return names
}

func TestAppendReplayAcrossRotation(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{SegmentBytes: 64, Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 0, 50)
	if len(segFiles(t, dir)) < 2 {
		t.Fatal("tiny SegmentBytes did not rotate")
	}
	got := collect(t, l, 1)
	if len(got) != 50 {
		t.Fatalf("replayed %d records, want 50", len(got))
	}
	for i := 0; i < 50; i++ {
		if got[uint64(i+1)] != fmt.Sprintf("rec-%04d", i) {
			t.Fatalf("lsn %d = %q", i+1, got[uint64(i+1)])
		}
	}
	// A read from the middle skips whole early segments.
	if tail := collect(t, l, 40); len(tail) != 11 {
		t.Fatalf("tail replay %d records, want 11", len(tail))
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen continues the LSN sequence.
	l2, err := Open(dir, Options{SegmentBytes: 64, Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if l2.NextLSN() != 51 {
		t.Fatalf("reopened NextLSN = %d, want 51", l2.NextLSN())
	}
	appendN(t, l2, 50, 5)
	if got := collect(t, l2, 1); len(got) != 55 {
		t.Fatalf("after reopen: %d records, want 55", len(got))
	}
}

func TestTornTailTruncatedOnOpen(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{Sync: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 0, 5)
	l.Close()

	// A crash mid-append leaves a partial record at the tail.
	segs := segFiles(t, dir)
	path := filepath.Join(dir, segs[len(segs)-1])
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{9, 0, 0, 0, 0xAB}); err != nil { // header fragment
		t.Fatal(err)
	}
	f.Close()

	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("open with torn tail: %v", err)
	}
	defer l2.Close()
	st := l2.Stats()
	if st.TruncatedTails != 1 || st.TruncatedBytes != 5 {
		t.Fatalf("stats = %+v, want 1 truncated tail of 5 bytes", st)
	}
	if got := collect(t, l2, 1); len(got) != 5 {
		t.Fatalf("recovered %d records, want 5", len(got))
	}
	if l2.NextLSN() != 6 {
		t.Fatalf("NextLSN = %d, want 6", l2.NextLSN())
	}
}

func TestCorruptRecordRefused(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{Sync: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 0, 5)
	l.Close()

	// Flip one payload bit of the middle record (LSN 3). Records are
	// 8 header + 8 payload bytes; record i starts at 16*i.
	segs := segFiles(t, dir)
	path := filepath.Join(dir, segs[0])
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[16*2+headerSize+3] ^= 0x40
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	// Refuse the log: never serve the damage silently.
	if _, err := Open(dir, Options{}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("open corrupt log: err = %v, want ErrCorrupt", err)
	}
}

func TestShortWriteHealsInProcess(t *testing.T) {
	faultinject.Reset()
	defer faultinject.Reset()
	dir := t.TempDir()
	l, err := Open(dir, Options{Sync: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	appendN(t, l, 0, 3)

	faultinject.Arm("wal.append", faultinject.Plan{Mode: faultinject.ShortWrite, Count: 1})
	if _, err := l.Append([]byte("doomed-record")); err == nil {
		t.Fatal("short write did not surface")
	}
	// The torn tail was healed in place: the next append lands cleanly
	// on the same LSN slot the failed one would have taken.
	lsn, err := l.Append([]byte("rec-0003"))
	if err != nil {
		t.Fatalf("append after heal: %v", err)
	}
	if lsn != 4 {
		t.Fatalf("lsn after heal = %d, want 4", lsn)
	}
	if got := collect(t, l, 1); len(got) != 4 {
		t.Fatalf("replayed %d records, want 4", len(got))
	}
}

func TestShortWriteCrashRecoversOnReopen(t *testing.T) {
	faultinject.Reset()
	defer faultinject.Reset()
	dir := t.TempDir()
	l, err := Open(dir, Options{Sync: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 0, 3)

	// The heal point erroring simulates dying mid-append: the torn tail
	// stays on disk and the log goes sticky-failed.
	faultinject.Arm("wal.append", faultinject.Plan{Mode: faultinject.ShortWrite, Count: 1})
	faultinject.Arm("wal.heal", faultinject.Plan{Mode: faultinject.Error})
	if _, err := l.Append([]byte("doomed-record")); err == nil {
		t.Fatal("crashed append did not surface")
	}
	if _, err := l.Append([]byte("after-crash")); err == nil {
		t.Fatal("sticky-failed log accepted an append")
	}
	faultinject.Reset()

	l2, err := Open(dir, Options{Sync: SyncAlways})
	if err != nil {
		t.Fatalf("reopen after crash: %v", err)
	}
	defer l2.Close()
	if st := l2.Stats(); st.TruncatedTails != 1 {
		t.Fatalf("stats = %+v, want 1 truncated tail", st)
	}
	if got := collect(t, l2, 1); len(got) != 3 {
		t.Fatalf("recovered %d records, want all 3 acknowledged ones", len(got))
	}
}

func TestSyncPolicyCounters(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{Sync: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 0, 4)
	if st := l.Stats(); st.Fsyncs != 4 {
		t.Fatalf("always: %d fsyncs after 4 appends", st.Fsyncs)
	}
	l.Close()

	l2, err := Open(t.TempDir(), Options{Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l2, 0, 4)
	if st := l2.Stats(); st.Fsyncs != 0 {
		t.Fatalf("never: %d fsyncs before close", st.Fsyncs)
	}
	l2.Close()
}

func TestPruneKeepsUncoveredSegments(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{SegmentBytes: 64, Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	appendN(t, l, 0, 40)
	before := len(segFiles(t, dir))
	if before < 3 {
		t.Fatalf("want ≥3 segments, got %d", before)
	}
	// Prune to LSN 20: every segment whose records all have LSN ≤ 20 goes.
	if err := l.Prune(20); err != nil {
		t.Fatal(err)
	}
	after := segFiles(t, dir)
	if len(after) >= before {
		t.Fatalf("prune removed nothing (%d → %d segments)", before, len(after))
	}
	got := collect(t, l, 21)
	for lsn := uint64(21); lsn <= 40; lsn++ {
		if got[lsn] != fmt.Sprintf("rec-%04d", lsn-1) {
			t.Fatalf("lsn %d lost after prune", lsn)
		}
	}
}

func TestVerifyReportsWithoutMutating(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{Sync: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 0, 4)
	l.Close()

	rep, err := Verify(dir, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean() || rep.Records != 4 || rep.Good != 4 {
		t.Fatalf("clean log report = %+v", rep)
	}

	// Corrupt one record and tear the tail; Verify must report both and
	// leave the file byte-identical.
	path := filepath.Join(dir, segFiles(t, dir)[0])
	raw, _ := os.ReadFile(path)
	raw[headerSize+2] ^= 1                   // payload bit of record 0
	raw = append(raw, []byte{7, 0, 0, 0}...) // torn header fragment
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	rep, err = Verify(dir, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Clean() || rep.CorruptRecords != 1 || rep.TornSegments != 1 {
		t.Fatalf("damaged log report = %+v", rep)
	}
	now, _ := os.ReadFile(path)
	if !bytes.Equal(raw, now) {
		t.Fatal("Verify mutated the segment")
	}
}

func TestParseSyncPolicy(t *testing.T) {
	for s, want := range map[string]SyncPolicy{"always": SyncAlways, "never": SyncNever} {
		got, err := ParseSyncPolicy(s)
		if err != nil || got != want {
			t.Fatalf("ParseSyncPolicy(%q) = %v, %v", s, got, err)
		}
		if got.String() != s {
			t.Fatalf("String() roundtrip %q → %q", s, got.String())
		}
	}
	// "interval" synced only when a later append found its period over,
	// so an idle log's tail was never synced; it is refused, not mapped.
	for _, s := range []string{"sometimes", "interval"} {
		if _, err := ParseSyncPolicy(s); err == nil || !strings.Contains(err.Error(), "want always or never") {
			t.Fatalf("ParseSyncPolicy(%q): err = %v, want a refusal", s, err)
		}
	}
}

func TestAppendRejectsOversizeAndEmpty(t *testing.T) {
	l, err := Open(t.TempDir(), Options{MaxRecordBytes: 16, Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if _, err := l.Append(nil); err == nil {
		t.Fatal("empty payload accepted")
	}
	if _, err := l.Append(make([]byte, 17)); err == nil {
		t.Fatal("oversize payload accepted")
	}
}

// segmentRecord frames payload as Append writes it.
func segmentRecord(payload string) []byte {
	rec := make([]byte, headerSize+len(payload))
	binary.LittleEndian.PutUint32(rec[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(rec[4:8], crc32.Checksum([]byte(payload), castagnoli))
	copy(rec[headerSize:], payload)
	return rec
}

// FuzzOpenSegment writes arbitrary bytes as one segment file, or two
// when seg1 is non-empty: the second is named where the first one's
// framed records end, shifted by skew. Open refuses the log with
// ErrCorrupt or accepts it; a log it accepts reads back through ReadFrom
// exactly the records Verify finds, at consecutive LSNs, and reopens at
// the same NextLSN.
func FuzzOpenSegment(f *testing.F) {
	good := slices.Concat(segmentRecord("a"), segmentRecord("bb"), segmentRecord("ccc"))
	flipped := slices.Clone(good)
	flipped[headerSize] ^= 1
	torn := append(slices.Clone(good), 9, 0, 0)
	f.Add(good, []byte(nil), int8(0))
	f.Add(good, segmentRecord("dd"), int8(0)) // a second segment where the first ends
	f.Add(good, segmentRecord("dd"), int8(1)) // records missing between the two
	f.Add(torn, []byte(nil), int8(0))         // torn final tail: truncated
	f.Add(torn, segmentRecord("dd"), int8(0)) // torn non-final tail: refused
	f.Add(flipped, []byte(nil), int8(0))      // CRC failure: refused
	f.Add(bytes.Repeat([]byte{0xFF}, 32), []byte{1}, int8(-1))
	f.Fuzz(func(t *testing.T, seg0, seg1 []byte, skew int8) {
		dir := t.TempDir()
		opts := Options{MaxRecordBytes: 64, Sync: SyncNever}
		if err := os.WriteFile(filepath.Join(dir, segmentName(1)), seg0, 0o644); err != nil {
			t.Fatal(err)
		}
		if len(seg1) > 0 {
			rep, err := Verify(dir, opts.MaxRecordBytes, nil)
			if err != nil {
				t.Fatal(err)
			}
			first := uint64(max(2, 1+int64(rep.Records)+int64(skew)))
			if err := os.WriteFile(filepath.Join(dir, segmentName(first)), seg1, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		l, err := Open(dir, opts)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("Open: %v, want ErrCorrupt or success", err)
			}
			return
		}
		defer l.Close()
		var want, got []string
		if _, err := Verify(dir, opts.MaxRecordBytes, func(_ uint64, payload []byte) error {
			want = append(want, string(payload))
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		next := l.OldestLSN()
		if _, err := l.ReadFrom(next, math.MaxInt, func(lsn uint64, payload []byte) error {
			if lsn != next {
				t.Fatalf("lsn %d delivered where %d belongs", lsn, next)
			}
			next++
			got = append(got, string(payload))
			return nil
		}); err != nil {
			t.Fatalf("ReadFrom over an opened log: %v", err)
		}
		if !slices.Equal(got, want) || next != l.NextLSN() {
			t.Fatalf("ReadFrom delivered %q up to %d, Verify %q, NextLSN %d", got, next, want, l.NextLSN())
		}
		l2, err := Open(dir, opts)
		if err != nil {
			t.Fatalf("reopen: %v", err)
		}
		defer l2.Close()
		if l2.NextLSN() != l.NextLSN() {
			t.Fatalf("reopened at NextLSN %d, first open %d", l2.NextLSN(), l.NextLSN())
		}
	})
}
