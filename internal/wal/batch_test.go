package wal

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"tsppr/internal/faultinject"
)

// randomPayloads returns n payloads of 1–40 random bytes.
func randomPayloads(rng *rand.Rand, n int) [][]byte {
	ps := make([][]byte, n)
	for i := range ps {
		ps[i] = make([]byte, 1+rng.Intn(40))
		rng.Read(ps[i])
	}
	return ps
}

// segmentBytes reads every segment file of dir, by name.
func segmentBytes(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	files := map[string][]byte{}
	for _, name := range segFiles(t, dir) {
		b, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		files[name] = b
	}
	return files
}

// readAt reads up to max records from from, with the resume point.
func readAt(t *testing.T, l *Log, from uint64, max int) ([]lsnRec, uint64) {
	t.Helper()
	var got []lsnRec
	next, err := l.ReadFrom(from, max, func(lsn uint64, payload []byte) error {
		got = append(got, lsnRec{lsn, string(payload)})
		return nil
	})
	if err != nil {
		t.Fatalf("ReadFrom(%d, %d): %v", from, max, err)
	}
	return got, next
}

// TestBatchAppendMatchesPerRecord is the oracle of the batch path: the
// same payloads appended in random batches of 1–300 records and one
// record at a time leave byte-identical segment files and equal offset
// indexes, and after a reopen the two logs agree on NextLSN, OldestLSN
// and what ReadFrom returns from every LSN. Segments of 1–3 KiB make
// batches straddle rotations and the 64-record index stride.
func TestBatchAppendMatchesPerRecord(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			payloads := randomPayloads(rng, 2000+rng.Intn(1000))
			opts := Options{SegmentBytes: 1024 + rng.Int63n(2048), Sync: SyncNever}
			batchDir, oneDir := t.TempDir(), t.TempDir()
			batched, err := Open(batchDir, opts)
			if err != nil {
				t.Fatal(err)
			}
			single, err := Open(oneDir, opts)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < len(payloads); {
				k := min(1+rng.Intn(300), len(payloads)-i)
				lsn, err := batched.Append(payloads[i : i+k]...)
				if err != nil {
					t.Fatalf("batch at %d: %v", i, err)
				}
				if want := uint64(i + 1); lsn != want {
					t.Fatalf("batch at %d: first lsn %d, want %d", i, lsn, want)
				}
				i += k
			}
			for i, p := range payloads {
				if lsn, err := single.Append(p); err != nil || lsn != uint64(i+1) {
					t.Fatalf("append %d: lsn %d, %v", i, lsn, err)
				}
			}
			if batched.Stats().Appends != single.Stats().Appends {
				t.Fatalf("Appends %d batched, %d one at a time", batched.Stats().Appends, single.Stats().Appends)
			}
			checkIndex(t, batched)
			if !reflect.DeepEqual(batched.segments, single.segments) {
				t.Fatal("segment lists or offset indexes differ")
			}
			for _, l := range []*Log{batched, single} {
				if err := l.Close(); err != nil {
					t.Fatal(err)
				}
			}

			bb, ob := segmentBytes(t, batchDir), segmentBytes(t, oneDir)
			if len(bb) < 3 {
				t.Fatalf("only %d segments: the batches straddle no rotation", len(bb))
			}
			if len(bb) != len(ob) {
				t.Fatalf("%d segments batched, %d one at a time", len(bb), len(ob))
			}
			for name, b := range bb {
				if o, ok := ob[name]; !ok || !bytes.Equal(b, o) {
					t.Fatalf("%s: %d bytes batched, %d one at a time, contents differ", name, len(b), len(o))
				}
			}

			if batched, err = Open(batchDir, opts); err != nil {
				t.Fatal(err)
			}
			defer batched.Close()
			if single, err = Open(oneDir, opts); err != nil {
				t.Fatal(err)
			}
			defer single.Close()
			if batched.NextLSN() != single.NextLSN() || batched.OldestLSN() != single.OldestLSN() {
				t.Fatalf("reopened: next %d/%d oldest %d/%d", batched.NextLSN(), single.NextLSN(),
					batched.OldestLSN(), single.OldestLSN())
			}
			for from := uint64(1); from <= single.NextLSN(); from++ {
				max := 1 + rng.Intn(200)
				got, next := readAt(t, batched, from, max)
				want, wantNext := readAt(t, single, from, max)
				if !reflect.DeepEqual(got, want) || next != wantNext {
					t.Fatalf("ReadFrom(%d, %d): %d records resume %d batched, %d resume %d one at a time",
						from, max, len(got), next, len(want), wantNext)
				}
			}
		})
	}
}

// TestShortWriteMidBatchHealsToBatchStart tears a 100-record batch that
// spans four segments in one of its writes. Healed, the log is as it was
// before the batch — NextLSN, segments and their offset indexes — and
// the batch appended again lands at its first LSN. With the heal
// suppressed (a crash mid-append), the reopened log keeps the batch's
// whole records and cuts only the partial one at its tail.
func TestShortWriteMidBatchHealsToBatchStart(t *testing.T) {
	batch := make([][]byte, 100)
	for i := range batch {
		// 16 to 18 bytes framed: each write torn at half its length
		// ends inside a record
		batch[i] = []byte(fmt.Sprintf("rec-%04d", 10+i) + strings.Repeat("+", i%3))
	}
	for write := 0; write < 4; write++ { // which of the batch's writes tears
		for _, crash := range []bool{false, true} {
			t.Run(fmt.Sprintf("write%d/crash=%v", write, crash), func(t *testing.T) {
				faultinject.Reset()
				defer faultinject.Reset()
				dir := t.TempDir()
				opts := Options{SegmentBytes: 512, Sync: SyncAlways}
				l, err := Open(dir, opts)
				if err != nil {
					t.Fatal(err)
				}
				appendN(t, l, 0, 10)
				l.mu.Lock()
				before := slices.Clone(l.segments)
				l.mu.Unlock()

				faultinject.Arm("wal.append", faultinject.Plan{Mode: faultinject.ShortWrite, After: write, Count: 1})
				if crash {
					faultinject.Arm("wal.heal", faultinject.Plan{Mode: faultinject.Error})
				}
				if _, err := l.Append(batch...); err == nil {
					t.Fatal("torn batch did not surface")
				}
				if hits, _ := faultinject.Hits("wal.append"); hits != write+1 {
					t.Fatalf("the batch made %d writes, want %d", hits, write+1)
				}
				if crash {
					l.Close()
					faultinject.Reset()
					checkCrashedBatch(t, dir, opts, 10, batch, write)
					return
				}
				if next := l.NextLSN(); next != 11 {
					t.Fatalf("NextLSN %d after the heal, want 11", next)
				}
				l.mu.Lock()
				after := slices.Clone(l.segments)
				l.mu.Unlock()
				if !reflect.DeepEqual(after, before) {
					t.Fatalf("segments after the heal %+v, before the batch %+v", after, before)
				}
				checkIndex(t, l)
				lsn, err := l.Append(batch...)
				if err != nil || lsn != 11 {
					t.Fatalf("batch again: lsn %d, %v; want 11", lsn, err)
				}
				if got := collect(t, l, 1); len(got) != 110 || got[11] != "rec-0010" || got[110] != string(batch[99]) {
					t.Fatalf("read back %d records", len(got))
				}
				checkIndex(t, l)
				l.Close()
			})
		}
	}
}

// checkCrashedBatch reopens a log that died on write `write` of batch,
// appended after `held` records: the records of the writes before it
// are kept whole, in segments Open accepts only if they end where their
// successors begin, and a partial record at the tail is the one thing
// cut.
func checkCrashedBatch(t *testing.T, dir string, opts Options, held int, batch [][]byte, write int) {
	t.Helper()
	l, err := Open(dir, opts)
	if err != nil {
		t.Fatalf("reopen after a torn batch: %v", err)
	}
	defer l.Close()
	if st := l.Stats(); st.TruncatedTails != 1 {
		t.Fatalf("stats %+v, want one truncated tail", st)
	}
	if segs := segFiles(t, dir); len(segs) != write+1 {
		t.Fatalf("%d segments after the crash, want %d", len(segs), write+1)
	}
	got := collect(t, l, 1)
	kept := len(got) - held
	if kept < 0 || kept >= len(batch) {
		t.Fatalf("kept %d records of a torn batch of %d", kept, len(batch))
	}
	for i := 0; i < kept; i++ {
		if got[uint64(held+i+1)] != string(batch[i]) {
			t.Fatalf("record %d of the batch: %q", i, got[uint64(held+i+1)])
		}
	}
}
