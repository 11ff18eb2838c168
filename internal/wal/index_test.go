package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"tsppr/internal/obs"
)

type lsnRec struct {
	lsn     uint64
	payload string
}

// scanDirFilter is the property test's first oracle: every intact record
// on disk with LSN ≥ from, capped at max, read by ScanDir from byte 0 of
// every segment.
func scanDirFilter(t *testing.T, dir string, from uint64, max int) []lsnRec {
	t.Helper()
	var out []lsnRec
	_, err := ScanDir(dir, 0, func(lsn uint64, payload []byte) error {
		if lsn >= from && len(out) < max {
			out = append(out, lsnRec{lsn, string(payload)})
		}
		return nil
	})
	if err != nil {
		t.Fatalf("ScanDir: %v", err)
	}
	return out
}

// readFromZero is the second oracle: ReadFrom as it was before the
// offset index, entering every segment at byte 0. It pins what the
// filter cannot — the resume LSN and exactly when CorruptHalt refuses.
func readFromZero(l *Log, from uint64, maxRecords int) (got []lsnRec, next uint64, err error) {
	l.mu.Lock()
	segs := append([]segment(nil), l.segments...)
	limit := l.nextLSN
	l.mu.Unlock()
	if from < segs[0].first {
		return nil, from, ErrPruned
	}
	next = from
	if from >= limit {
		return nil, next, nil
	}
	for i, sg := range segs {
		if i+1 < len(segs) && segs[i+1].first <= next {
			continue
		}
		if sg.first >= limit || len(got) >= maxRecords {
			break
		}
		res, err := scanSegment(filepath.Join(l.dir, sg.name), l.opts.MaxRecordBytes, func(idx int, payload []byte) error {
			lsn := sg.first + uint64(idx)
			if lsn < next || lsn >= limit {
				return nil
			}
			if len(got) >= maxRecords {
				return errReadDone
			}
			got = append(got, lsnRec{lsn, string(payload)})
			next = lsn + 1
			return nil
		})
		if errors.Is(err, errReadDone) {
			return got, next, nil
		}
		if err != nil {
			return got, next, err
		}
		if l.opts.Corrupt == CorruptHalt {
			for _, idx := range res.corrupt {
				if lsn := sg.first + uint64(idx); lsn >= from && lsn < limit {
					return got, next, ErrCorrupt
				}
			}
		}
	}
	return got, next, nil
}

// checkIndex recomputes every retained segment's offset index from its
// bytes and compares it with the one the log maintains incrementally.
func checkIndex(t *testing.T, l *Log) {
	t.Helper()
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, sg := range l.segments {
		res, err := scanSegment(filepath.Join(l.dir, sg.name), l.opts.MaxRecordBytes, nil)
		if err != nil {
			t.Fatalf("scan %s: %v", sg.name, err)
		}
		want := res.index
		if res.records%indexStride == 0 {
			want = append(want, res.end)
		}
		if !reflect.DeepEqual(sg.index, want) {
			t.Fatalf("%s (%d records): index %v, want %v", sg.name, res.records, sg.index, want)
		}
	}
}

// checkReads compares indexed ReadFrom against both oracles at random
// positions and batch sizes.
func checkReads(t *testing.T, rng *rand.Rand, l *Log, dir string) {
	t.Helper()
	oldest, next := l.OldestLSN(), l.NextLSN()
	for i := 0; i < 8; i++ {
		from := oldest + uint64(rng.Intn(int(next-oldest)+2)) // up to one past the horizon
		max := 1 + rng.Intn(200)
		var got []lsnRec
		resume, err := l.ReadFrom(from, max, func(lsn uint64, payload []byte) error {
			got = append(got, lsnRec{lsn, string(payload)})
			return nil
		})
		want, wantResume, wantErr := readFromZero(l, from, max)
		if (err != nil) != (wantErr != nil) || (wantErr != nil && !errors.Is(err, wantErr)) {
			t.Fatalf("ReadFrom(%d,%d): err %v, unindexed read says %v", from, max, err, wantErr)
		}
		if !reflect.DeepEqual(got, want) || resume != wantResume {
			t.Fatalf("ReadFrom(%d,%d): %d records resume %d, unindexed read %d records resume %d",
				from, max, len(got), resume, len(want), wantResume)
		}
		if err == nil {
			if filter := scanDirFilter(t, dir, from, max); !reflect.DeepEqual(got, filter) {
				t.Fatalf("ReadFrom(%d,%d): %d records, ScanDir filter %d", from, max, len(got), len(filter))
			}
		}
	}
}

// flipRecord flips one payload bit of the record at lsn on disk, leaving
// its framing intact, and reports whether the record was found.
func flipRecord(t *testing.T, dir string, lsn uint64) bool {
	t.Helper()
	segs, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := len(segs) - 1; i >= 0; i-- {
		if segs[i].first > lsn {
			continue
		}
		path := filepath.Join(dir, segs[i].name)
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		off := 0
		for n := segs[i].first; n < lsn; n++ {
			off += headerSize + int(binary.LittleEndian.Uint32(b[off:]))
		}
		b[off+headerSize] ^= 0x40
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return true
	}
	return false
}

// TestReadFromIndexedMatchesFullScan drives random histories of append,
// rotate, TruncateFrom, Prune and reopen, and after every step checks the
// incrementally maintained index against a rescan and indexed reads
// against reads that never use it; each history ends with a CRC-failed
// record planted in the live log, under both corruption policies.
func TestReadFromIndexedMatchesFullScan(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		policy := CorruptPolicy(seed % 2)
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			dir := t.TempDir()
			// Segments of a few hundred records: several index entries
			// each, and rotation, truncation and pruning all cross them.
			opts := Options{SegmentBytes: int64(2000 + rng.Intn(6000)), Sync: SyncNever, Corrupt: policy}
			l, err := Open(dir, opts)
			if err != nil {
				t.Fatal(err)
			}
			defer func() { l.Close() }()
			n := 0
			for step := 0; step < 60; step++ {
				switch op := rng.Intn(10); {
				case op < 6:
					for k := rng.Intn(300); k > 0; k-- {
						payload := fmt.Sprintf("r%d-%0*d", n, rng.Intn(24), 0)
						if _, err := l.Append([]byte(payload)); err != nil {
							t.Fatal(err)
						}
						n++
					}
				case op < 7:
					oldest, next := l.OldestLSN(), l.NextLSN()
					if err := l.TruncateFrom(oldest + uint64(rng.Intn(int(next-oldest)+1))); err != nil {
						t.Fatal(err)
					}
				case op < 8:
					if err := l.Prune(uint64(rng.Intn(int(l.NextLSN())))); err != nil {
						t.Fatal(err)
					}
				default:
					if err := l.Close(); err != nil {
						t.Fatal(err)
					}
					if l, err = Open(dir, opts); err != nil {
						t.Fatal(err)
					}
				}
				checkIndex(t, l)
				checkReads(t, rng, l, dir)
			}

			if _, err := l.Append([]byte("tail")); err != nil { // never plant into an empty log
				t.Fatal(err)
			}
			oldest, next := l.OldestLSN(), l.NextLSN()
			bad := oldest + uint64(rng.Intn(int(next-oldest)))
			if !flipRecord(t, dir, bad) {
				t.Fatalf("lsn %d not on disk", bad)
			}
			checkReads(t, rng, l, dir)
			// A read over the whole retained log meets the bad record: Halt
			// refuses, Skip streams over the hole; neither delivers it.
			_, err = l.ReadFrom(oldest, 1<<20, func(lsn uint64, _ []byte) error {
				if lsn == bad {
					t.Fatalf("CRC-failed lsn %d delivered", bad)
				}
				return nil
			})
			if policy == CorruptHalt && !errors.Is(err, ErrCorrupt) {
				t.Fatalf("CorruptHalt read over a CRC-failed record: %v, want ErrCorrupt", err)
			}
			if policy == CorruptSkip && err != nil {
				t.Fatalf("CorruptSkip read over a CRC-failed record: %v", err)
			}
			if policy == CorruptSkip {
				// Skip survives a reopen: the index is rebuilt across the
				// quarantined record and appends carry on past it.
				if err := l.Close(); err != nil {
					t.Fatal(err)
				}
				if l, err = Open(dir, opts); err != nil {
					t.Fatal(err)
				}
				for k := 0; k < 100; k++ {
					if _, err := l.Append([]byte("after")); err != nil {
						t.Fatal(err)
					}
				}
				checkIndex(t, l)
				checkReads(t, rng, l, dir)
			}
		})
	}
}

// TestReadFromTailsAcrossIndexEntries tails a log whose active segment
// grows through many index entries while a writer appends: every record
// arrives once, intact and in order. Run under -race it also proves a
// read shares no unsynchronized memory with Append.
func TestReadFromTailsAcrossIndexEntries(t *testing.T) {
	const total = 40 * indexStride
	l, err := Open(t.TempDir(), Options{Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < total; i++ {
			if _, err := l.Append([]byte(fmt.Sprintf("rec-%04d", i))); err != nil {
				t.Errorf("append: %v", err)
				return
			}
		}
	}()
	next := uint64(1)
	for next <= total {
		n, err := l.ReadFrom(next, 3, func(lsn uint64, payload []byte) error {
			if lsn != next {
				return fmt.Errorf("lsn %d delivered at position %d", lsn, next)
			}
			if want := fmt.Sprintf("rec-%04d", lsn-1); string(payload) != want {
				return fmt.Errorf("lsn %d = %q, want %q", lsn, payload, want)
			}
			next++
			return nil
		})
		if err != nil {
			t.Fatalf("ReadFrom(%d): %v", next, err)
		}
		if n != next {
			t.Fatalf("resume %d after delivering through %d", n, next-1)
		}
	}
	<-done
}

// TestReadFromCostIsBoundedByStride pins the point of the index with the
// log's own counters: wherever a one-record read lands in a full
// segment, it frames fewer than indexStride records it does not deliver.
func TestReadFromCostIsBoundedByStride(t *testing.T) {
	reg := obs.NewRegistry()
	l, err := Open(t.TempDir(), Options{Sync: SyncNever, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	for i := 0; i < 10_000; i++ {
		if _, err := l.Append([]byte("12345678")); err != nil {
			t.Fatal(err)
		}
	}
	scanned := reg.Counter("rrc_wal_read_scanned_records_total")
	delivered := reg.Counter("rrc_wal_read_delivered_records_total")
	for _, from := range []uint64{1, 63, 64, 65, 5000, 9999, 10_000} {
		s0, d0 := scanned.Value(), delivered.Value()
		if _, err := l.ReadFrom(from, 1, func(uint64, []byte) error { return nil }); err != nil {
			t.Fatal(err)
		}
		// One delivered, at most indexStride-1 before it, and the one
		// after it that tells a bounded read it is done.
		if s, d := scanned.Value()-s0, delivered.Value()-d0; d != 1 || s > indexStride+1 {
			t.Fatalf("from %d: scanned %d records to deliver %d", from, s, d)
		}
	}
}

var benchSink uint64

// BenchmarkReadFromTail is the replication stream's steady state: one
// new record at the tail of the active segment. The two fills end at the
// same distance past an index entry, so equal ns/op is the claim.
func BenchmarkReadFromTail(b *testing.B) {
	for _, fill := range []int{1 << 10, 100 << 10} {
		b.Run(fmt.Sprintf("fill=%d", fill), func(b *testing.B) {
			l, err := Open(b.TempDir(), Options{Sync: SyncNever, SegmentBytes: 64 << 20})
			if err != nil {
				b.Fatal(err)
			}
			defer l.Close()
			for i := 0; i < fill; i++ {
				if _, err := l.Append([]byte("12345678")); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				next, err := l.ReadFrom(uint64(fill), 16, func(lsn uint64, _ []byte) error {
					benchSink += lsn
					return nil
				})
				if err != nil || next != uint64(fill)+1 {
					b.Fatalf("next %d err %v", next, err)
				}
			}
		})
	}
}

// TestReadFromAcrossLostRecords reads into and over a hole: under
// CorruptSkip a sealed segment that lost its second half leaves LSNs no
// segment holds, and a read resuming inside the hole enters the next
// segment below its first record.
func TestReadFromAcrossLostRecords(t *testing.T) {
	dir := t.TempDir()
	opts := Options{SegmentBytes: 2048, Sync: SyncNever, Corrupt: CorruptSkip}
	l, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 0, 600)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := listSegments(dir)
	if err != nil || len(segs) < 3 {
		t.Fatalf("%d segments (err %v), want >= 3", len(segs), err)
	}
	victim := filepath.Join(dir, segs[1].name)
	st, err := os.Stat(victim)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(victim, st.Size()/2+3); err != nil { // mid-record
		t.Fatal(err)
	}
	if l, err = Open(dir, opts); err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	checkIndex(t, l)
	for from := segs[1].first; from <= segs[2].first+1; from++ {
		var got []lsnRec
		resume, err := l.ReadFrom(from, 5, func(lsn uint64, payload []byte) error {
			got = append(got, lsnRec{lsn, string(payload)})
			return nil
		})
		want, wantResume, wantErr := readFromZero(l, from, 5)
		if err != nil || wantErr != nil {
			t.Fatalf("ReadFrom(%d): %v (unindexed: %v)", from, err, wantErr)
		}
		if !reflect.DeepEqual(got, want) || resume != wantResume {
			t.Fatalf("ReadFrom(%d): %v resume %d, unindexed read %v resume %d", from, got, resume, want, wantResume)
		}
		if len(got) != 5 {
			t.Fatalf("ReadFrom(%d) delivered %d records, want 5 from beyond the hole", from, len(got))
		}
	}
}
