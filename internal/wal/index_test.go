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

// verifyRead is the oracle for ReadFrom(from, max): derived from every
// intact record Verify finds reading each segment from byte 0, never
// through the offset index. Records come with consecutive LSNs from
// from, up to max or the commit horizon, and the first one missing
// before then is ErrCorrupt.
func verifyRead(t *testing.T, l *Log, from uint64, max int) (got []lsnRec, next uint64, err error) {
	t.Helper()
	recs := map[uint64]string{}
	_, err = Verify(l.dir, 0, func(lsn uint64, payload []byte) error {
		recs[lsn] = string(payload)
		return nil
	})
	if err != nil {
		t.Fatalf("Verify: %v", err)
	}
	if from < l.OldestLSN() {
		return nil, from, ErrPruned
	}
	for next = from; next < l.NextLSN() && len(got) < max; next++ {
		p, ok := recs[next]
		if !ok {
			return got, next, ErrCorrupt
		}
		got = append(got, lsnRec{next, p})
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

// checkReads compares indexed ReadFrom against the oracle at random
// positions and batch sizes.
func checkReads(t *testing.T, rng *rand.Rand, l *Log) {
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
		want, wantResume, wantErr := verifyRead(t, l, from, max)
		if (err != nil) != (wantErr != nil) || (wantErr != nil && !errors.Is(err, wantErr)) {
			t.Fatalf("ReadFrom(%d,%d): err %v, oracle says %v", from, max, err, wantErr)
		}
		if !reflect.DeepEqual(got, want) || resume != wantResume {
			t.Fatalf("ReadFrom(%d,%d): %d records resume %d, oracle %d records resume %d",
				from, max, len(got), resume, len(want), wantResume)
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
// record planted in the live log, which reads over it and a reopen
// refuse.
func TestReadFromIndexedMatchesFullScan(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			dir := t.TempDir()
			// Segments of a few hundred records: several index entries
			// each, and rotation, truncation and pruning all cross them.
			opts := Options{SegmentBytes: int64(2000 + rng.Intn(6000)), Sync: SyncNever}
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
				checkReads(t, rng, l)
			}

			if _, err := l.Append([]byte("tail")); err != nil { // never plant into an empty log
				t.Fatal(err)
			}
			oldest, next := l.OldestLSN(), l.NextLSN()
			bad := oldest + uint64(rng.Intn(int(next-oldest)))
			if !flipRecord(t, dir, bad) {
				t.Fatalf("lsn %d not on disk", bad)
			}
			checkReads(t, rng, l)
			// A read over the whole retained log meets the bad record and
			// refuses it, and so does a reopen.
			_, err = l.ReadFrom(oldest, 1<<20, func(lsn uint64, _ []byte) error {
				if lsn == bad {
					t.Fatalf("CRC-failed lsn %d delivered", bad)
				}
				return nil
			})
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("read over a CRC-failed record: %v, want ErrCorrupt", err)
			}
			if _, err := Open(dir, opts); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("reopen over a CRC-failed record: %v, want ErrCorrupt", err)
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
		// One delivered and at most indexStride-1 before it.
		if s, d := scanned.Value()-s0, delivered.Value()-d0; d != 1 || s > indexStride {
			t.Fatalf("from %d: scanned %d records to deliver %d", from, s, d)
		}
	}
}

// TestReadFromTailScansWhatItDelivers is a standby tailing a primary:
// one append, then a read from where the last read stopped. The read
// starts at the byte the last one stopped at, across index entries and
// rotations, so the log frames exactly the records it delivers.
func TestReadFromTailScansWhatItDelivers(t *testing.T) {
	reg := obs.NewRegistry()
	l, err := Open(t.TempDir(), Options{Sync: SyncNever, SegmentBytes: 4096, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	const total = 5 * indexStride
	next := uint64(1)
	for i := 0; i < total; i++ {
		payload := fmt.Sprintf("rec-%0*d", i%7, i) // sizes vary, so offsets do not follow from LSNs
		if _, err := l.Append([]byte(payload)); err != nil {
			t.Fatal(err)
		}
		resume, err := l.ReadFrom(next, 0, func(lsn uint64, p []byte) error {
			if lsn != next || string(p) != payload {
				return fmt.Errorf("lsn %d = %q, want lsn %d = %q", lsn, p, next, payload)
			}
			return nil
		})
		if err != nil || resume != next+1 {
			t.Fatalf("ReadFrom(%d): resume %d err %v", next, resume, err)
		}
		next = resume
	}
	if l.Stats().Rotations == 0 {
		t.Fatal("fixture never rotated; lower SegmentBytes")
	}
	scanned := reg.Counter("rrc_wal_read_scanned_records_total").Value()
	delivered := reg.Counter("rrc_wal_read_delivered_records_total").Value()
	if delivered != total || scanned != delivered {
		t.Fatalf("scanned %d records to deliver %d, want %d of each", scanned, delivered, total)
	}
}

// TestReadFromForgetsItsPositionAtACut: a TruncateFrom rewrites the bytes
// past the cut, so where the last read stopped may no longer start a
// record. The next read from there delivers the rewritten log.
func TestReadFromForgetsItsPositionAtACut(t *testing.T) {
	l, err := Open(t.TempDir(), Options{Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	appendN(t, l, 0, 100)
	from, err := l.ReadFrom(1, 0, func(uint64, []byte) error { return nil })
	if err != nil || from != 101 {
		t.Fatalf("read all: resume %d err %v", from, err)
	}
	if err := l.TruncateFrom(98); err != nil {
		t.Fatal(err)
	}
	for lsn := 98; lsn <= 101; lsn++ {
		if _, err := l.Append([]byte(fmt.Sprintf("rewritten-%d", lsn))); err != nil {
			t.Fatal(err)
		}
	}
	var got []string
	if _, err := l.ReadFrom(from, 0, func(_ uint64, p []byte) error {
		got = append(got, string(p))
		return nil
	}); err != nil || !reflect.DeepEqual(got, []string{"rewritten-101"}) {
		t.Fatalf("read after the cut: %q err %v", got, err)
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

// TestReadFromAcrossLostRecords damages a sealed segment under a live
// log: its second half goes, leaving LSNs no segment holds. Every read
// that reaches the hole stops at its first missing LSN with ErrCorrupt,
// never jumping to the next segment; reads wholly before or past it are
// untouched; the same holds for a hole at the end of the active segment;
// and a reopen refuses the log.
func TestReadFromAcrossLostRecords(t *testing.T) {
	dir := t.TempDir()
	opts := Options{SegmentBytes: 2048, Sync: SyncNever}
	l, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	appendN(t, l, 0, 600)
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
	rep, err := Verify(dir, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	hole := segs[1].first + uint64(rep.Segments[1].Records) // first lost LSN
	const batch = 5
	for from := segs[1].first; from <= segs[2].first+1; from++ {
		var got []lsnRec
		resume, err := l.ReadFrom(from, batch, func(lsn uint64, payload []byte) error {
			if want := from + uint64(len(got)); lsn != want {
				t.Fatalf("ReadFrom(%d): lsn %d delivered where %d belongs", from, lsn, want)
			}
			got = append(got, lsnRec{lsn, string(payload)})
			return nil
		})
		if reaches := from < segs[2].first && from+batch > hole; reaches != errors.Is(err, ErrCorrupt) ||
			(!reaches && err != nil) || (reaches && resume != max(from, hole)) {
			t.Fatalf("ReadFrom(%d): resume %d err %v; the hole is [%d, %d)", from, resume, err, hole, segs[2].first)
		}
		want, wantResume, wantErr := verifyRead(t, l, from, batch)
		if !errors.Is(err, wantErr) || !reflect.DeepEqual(got, want) || resume != wantResume {
			t.Fatalf("ReadFrom(%d): %v resume %d err %v, oracle %v resume %d err %v",
				from, got, resume, err, want, wantResume, wantErr)
		}
	}

	// Cut short after Open, the active segment has no later record to
	// give its hole away; a read into it still stops there.
	active := segs[len(segs)-1]
	path := filepath.Join(dir, active.name)
	if st, err = os.Stat(path); err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, st.Size()/2+3); err != nil {
		t.Fatal(err)
	}
	if rep, err = Verify(dir, 0, nil); err != nil {
		t.Fatal(err)
	}
	tail := active.first + uint64(rep.Segments[len(segs)-1].Records)
	if resume, err := l.ReadFrom(active.first, 1<<20, func(uint64, []byte) error { return nil }); !errors.Is(err, ErrCorrupt) || resume != tail {
		t.Fatalf("read into the active segment's hole: resume %d err %v, want %d and ErrCorrupt", resume, err, tail)
	}

	if _, err := Open(dir, opts); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("reopen over the hole: %v, want ErrCorrupt", err)
	}
}
