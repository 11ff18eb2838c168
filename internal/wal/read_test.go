package wal

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"reflect"
	"testing"
)

// readAll drains ReadFrom in batches of batch until it stops advancing,
// returning the delivered records and the final resume LSN.
func readAll(t *testing.T, l *Log, from uint64, batch int) (map[uint64]string, uint64) {
	t.Helper()
	got := map[uint64]string{}
	next := from
	for {
		n, err := l.ReadFrom(next, batch, func(lsn uint64, payload []byte) error {
			if _, dup := got[lsn]; dup {
				t.Fatalf("lsn %d delivered twice", lsn)
			}
			got[lsn] = string(payload)
			return nil
		})
		if err != nil {
			t.Fatalf("ReadFrom(%d): %v", next, err)
		}
		if n == next {
			return got, n
		}
		next = n
	}
}

func TestReadFromPositions(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{SegmentBytes: 64, Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	appendN(t, l, 0, 50) // rec-0000..rec-0049 at LSNs 1..50

	segs := segFiles(t, dir)
	if len(segs) < 3 {
		t.Fatalf("need ≥3 segments for boundary cases, got %d", len(segs))
	}
	ls, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	boundary := ls[1].first // exactly the first record of segment 2

	cases := []struct {
		name string
		from uint64
		want int
	}{
		{"start", 1, 50},
		{"segment boundary", boundary, 50 - int(boundary) + 1},
		{"mid segment", boundary + 1, 50 - int(boundary)},
		{"last record", 50, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, next := readAll(t, l, tc.from, 7)
			if len(got) != tc.want {
				t.Fatalf("from %d: %d records, want %d", tc.from, len(got), tc.want)
			}
			for lsn, payload := range got {
				if want := fmt.Sprintf("rec-%04d", lsn-1); payload != want {
					t.Fatalf("lsn %d = %q, want %q", lsn, payload, want)
				}
			}
			if next != 51 {
				t.Fatalf("resume LSN %d, want 51", next)
			}
		})
	}
}

func TestReadFromPastEndIsCleanEOF(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	appendN(t, l, 0, 5)

	for _, from := range []uint64{6, 7, 100} {
		next, err := l.ReadFrom(from, 10, func(lsn uint64, _ []byte) error {
			t.Fatalf("unexpected record %d", lsn)
			return nil
		})
		if err != nil {
			t.Fatalf("ReadFrom(%d) past end: %v", from, err)
		}
		if next != from {
			t.Fatalf("ReadFrom(%d) past end advanced to %d", from, next)
		}
	}
}

func TestReadFromBelowOldestIsPruned(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{SegmentBytes: 64, Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	appendN(t, l, 0, 50)
	if err := l.Prune(30); err != nil {
		t.Fatal(err)
	}
	oldest := l.OldestLSN()
	if oldest <= 1 {
		t.Fatalf("prune kept oldest=%d, nothing removed", oldest)
	}
	if _, err := l.ReadFrom(1, 10, func(uint64, []byte) error { return nil }); !errors.Is(err, ErrPruned) {
		t.Fatalf("ReadFrom below oldest: %v, want ErrPruned", err)
	}
	// Reading from the oldest retained record still works.
	got, _ := readAll(t, l, oldest, 8)
	if len(got) != 50-int(oldest)+1 {
		t.Fatalf("from oldest %d: %d records", oldest, len(got))
	}
}

func TestReadFromBatchStopsEarly(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	appendN(t, l, 0, 20)
	var n int
	next, err := l.ReadFrom(1, 3, func(uint64, []byte) error { n++; return nil })
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 || next != 4 {
		t.Fatalf("batch of 3: delivered %d, next %d", n, next)
	}
}

func TestReadFromConcurrentWithAppends(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{SegmentBytes: 128, Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	appendN(t, l, 0, 10)

	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 10; i < 200; i++ {
			if _, err := l.Append([]byte(fmt.Sprintf("rec-%04d", i))); err != nil {
				t.Errorf("append: %v", err)
				return
			}
		}
	}()
	// Tail the log while the writer runs; every delivered record must be
	// intact and in order regardless of interleaving.
	var next uint64 = 1
	for {
		n, err := l.ReadFrom(next, 16, func(lsn uint64, payload []byte) error {
			if want := fmt.Sprintf("rec-%04d", lsn-1); string(payload) != want {
				t.Fatalf("lsn %d = %q, want %q", lsn, payload, want)
			}
			return nil
		})
		if err != nil {
			t.Fatalf("ReadFrom(%d): %v", next, err)
		}
		next = n
		if next > 201 {
			t.Fatalf("read past the committed horizon: %d", next)
		}
		if next == 201 {
			break
		}
	}
	<-done
}

func TestTruncateFrom(t *testing.T) {
	build := func(t *testing.T) (*Log, string) {
		dir := t.TempDir()
		l, err := Open(dir, Options{SegmentBytes: 64, Sync: SyncNever})
		if err != nil {
			t.Fatal(err)
		}
		appendN(t, l, 0, 50)
		return l, dir
	}

	t.Run("noop at and past nextLSN", func(t *testing.T) {
		l, _ := build(t)
		defer l.Close()
		for _, lsn := range []uint64{51, 52, 1000} {
			if err := l.TruncateFrom(lsn); err != nil {
				t.Fatalf("TruncateFrom(%d): %v", lsn, err)
			}
		}
		if got := l.NextLSN(); got != 51 {
			t.Fatalf("nextLSN %d after no-op truncations", got)
		}
	})

	t.Run("mid segment", func(t *testing.T) {
		l, _ := build(t)
		defer l.Close()
		ls := l.segments
		cut := ls[len(ls)-1].first + 1 // second record of the last segment
		if err := l.TruncateFrom(cut); err != nil {
			t.Fatal(err)
		}
		if got := l.NextLSN(); got != cut {
			t.Fatalf("nextLSN %d, want %d", got, cut)
		}
		// The next append lands exactly at the cut and replays intact.
		lsn, err := l.Append([]byte("rewritten"))
		if err != nil {
			t.Fatal(err)
		}
		if lsn != cut {
			t.Fatalf("append after truncate: lsn %d, want %d", lsn, cut)
		}
		got := collect(t, l, 1)
		if len(got) != int(cut) {
			t.Fatalf("replay %d records, want %d", len(got), cut)
		}
		if got[cut] != "rewritten" {
			t.Fatalf("lsn %d = %q", cut, got[cut])
		}
	})

	t.Run("segment boundary", func(t *testing.T) {
		l, dir := build(t)
		defer l.Close()
		ls, err := listSegments(dir)
		if err != nil {
			t.Fatal(err)
		}
		cut := ls[1].first
		if err := l.TruncateFrom(cut); err != nil {
			t.Fatal(err)
		}
		if got := l.NextLSN(); got != cut {
			t.Fatalf("nextLSN %d, want %d", got, cut)
		}
		got := collect(t, l, 1)
		if len(got) != int(cut)-1 {
			t.Fatalf("replay %d records, want %d", len(got), cut-1)
		}
		appendN(t, l, int(cut)-1, 3)
	})

	t.Run("everything", func(t *testing.T) {
		l, _ := build(t)
		defer l.Close()
		if err := l.TruncateFrom(1); err != nil {
			t.Fatal(err)
		}
		if got := l.NextLSN(); got != 1 {
			t.Fatalf("nextLSN %d, want 1", got)
		}
		appendN(t, l, 0, 5)
	})

	t.Run("below oldest is pruned", func(t *testing.T) {
		l, _ := build(t)
		defer l.Close()
		if err := l.Prune(30); err != nil {
			t.Fatal(err)
		}
		if err := l.TruncateFrom(1); !errors.Is(err, ErrPruned) {
			t.Fatalf("TruncateFrom below oldest: %v, want ErrPruned", err)
		}
	})

	t.Run("survives reopen", func(t *testing.T) {
		l, dir := build(t)
		cut := uint64(23)
		if err := l.TruncateFrom(cut); err != nil {
			t.Fatal(err)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		l2, err := Open(dir, Options{SegmentBytes: 64, Sync: SyncNever})
		if err != nil {
			t.Fatal(err)
		}
		defer l2.Close()
		if got := l2.NextLSN(); got != cut {
			t.Fatalf("nextLSN after reopen %d, want %d", got, cut)
		}
		if got := collect(t, l2, 1); len(got) != int(cut)-1 {
			t.Fatalf("replay %d records, want %d", len(got), cut-1)
		}
	})
}

func TestInitialLSNSeedsEmptyLog(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{Sync: SyncNever, InitialLSN: 41})
	if err != nil {
		t.Fatal(err)
	}
	if got := l.NextLSN(); got != 41 {
		t.Fatalf("nextLSN %d, want 41", got)
	}
	lsn, err := l.Append([]byte("first"))
	if err != nil {
		t.Fatal(err)
	}
	if lsn != 41 {
		t.Fatalf("first append lsn %d, want 41", lsn)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// InitialLSN is ignored once segments exist.
	l2, err := Open(dir, Options{Sync: SyncNever, InitialLSN: 999})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if got := l2.NextLSN(); got != 42 {
		t.Fatalf("nextLSN after reopen %d, want 42", got)
	}
}

// TestVerifyMatchesReadFrom: the directory reader delivers exactly what
// the live log's reader does, LSN for LSN.
func TestVerifyMatchesReadFrom(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{SegmentBytes: 64, Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 0, 30)
	want := collect(t, l, 1)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	got := map[uint64]string{}
	rep, err := Verify(dir, 0, func(lsn uint64, payload []byte) error {
		got[lsn] = string(payload)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean() || rep.Good != 30 {
		t.Fatalf("clean log report = %+v", rep)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Verify delivered %v, ReadFrom %v", got, want)
	}
}

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	payloads := [][]byte{[]byte("hello"), {}, bytes.Repeat([]byte{0xAB}, 4096)}
	for i, p := range payloads {
		if err := WriteFrame(&buf, uint64(100+i), p); err != nil {
			t.Fatal(err)
		}
	}
	for i, p := range payloads {
		lsn, got, err := ReadFrame(&buf, 0)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if lsn != uint64(100+i) {
			t.Fatalf("frame %d: lsn %d", i, lsn)
		}
		if !bytes.Equal(got, p) {
			t.Fatalf("frame %d: payload mismatch", i)
		}
	}
	if _, _, err := ReadFrame(&buf, 0); err != io.EOF {
		t.Fatalf("after last frame: %v, want io.EOF", err)
	}
}

func TestFrameCorruptionDetected(t *testing.T) {
	frame := func() []byte {
		var buf bytes.Buffer
		if err := WriteFrame(&buf, 7, []byte("payload-bytes")); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}

	t.Run("flipped payload bit", func(t *testing.T) {
		b := frame()
		b[len(b)-1] ^= 0x01
		if _, _, err := ReadFrame(bytes.NewReader(b), 0); !errors.Is(err, ErrFrameCorrupt) {
			t.Fatalf("got %v, want ErrFrameCorrupt", err)
		}
	})
	t.Run("flipped lsn bit", func(t *testing.T) {
		b := frame()
		b[8] ^= 0x01 // LSN is covered by the CRC: repositioned frames fail
		if _, _, err := ReadFrame(bytes.NewReader(b), 0); !errors.Is(err, ErrFrameCorrupt) {
			t.Fatalf("got %v, want ErrFrameCorrupt", err)
		}
	})
	t.Run("truncated body", func(t *testing.T) {
		b := frame()
		if _, _, err := ReadFrame(bytes.NewReader(b[:len(b)-3]), 0); err != io.ErrUnexpectedEOF {
			t.Fatalf("got %v, want io.ErrUnexpectedEOF", err)
		}
	})
	t.Run("truncated header", func(t *testing.T) {
		b := frame()
		if _, _, err := ReadFrame(bytes.NewReader(b[:7]), 0); err != io.ErrUnexpectedEOF {
			t.Fatalf("got %v, want io.ErrUnexpectedEOF", err)
		}
	})
	t.Run("oversized length", func(t *testing.T) {
		b := frame()
		b[0], b[1], b[2], b[3] = 0xFF, 0xFF, 0xFF, 0x7F
		if _, _, err := ReadFrame(bytes.NewReader(b), 1<<20); !errors.Is(err, ErrFrameCorrupt) {
			t.Fatalf("got %v, want ErrFrameCorrupt", err)
		}
	})
}

// FuzzReadFrame throws arbitrary bytes at the stream frame decoder: it
// must never panic or over-allocate, and anything it accepts must
// round-trip back to identical bytes.
func FuzzReadFrame(f *testing.F) {
	var seed bytes.Buffer
	_ = WriteFrame(&seed, 1, []byte("seed"))
	f.Add(seed.Bytes())
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xFF}, 32))
	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		for {
			lsn, payload, err := ReadFrame(r, 1<<16)
			if err != nil {
				break
			}
			var buf bytes.Buffer
			if err := WriteFrame(&buf, lsn, payload); err != nil {
				t.Fatalf("re-encode: %v", err)
			}
			if int64(buf.Len()) > int64(len(data)) {
				t.Fatalf("accepted frame longer than input: %d > %d", buf.Len(), len(data))
			}
		}
	})
}
