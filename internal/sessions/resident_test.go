package sessions

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"testing"

	"tsppr/internal/rngutil"
	"tsppr/internal/seq"
)

// TestResidentBytesPerUser guards what a session costs at rest: the ring
// of |W| item ids, its counters, the LSN and a map slot, 510 B at this
// shape; the guard is that figure + 10 %. A session that also carried two
// recency-list links and its user id measured 526 B, and the indexed
// seq.Window the store used to keep resident measured 3.3 KB.
func TestResidentBytesPerUser(t *testing.T) {
	const users, windowCap, pool = 20_000, 100, 40
	heap := func() uint64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	before := heap()
	s := NewStore(Config{WindowCap: windowCap})
	rng := rngutil.New(5)
	lsn := uint64(0)
	for k := 0; k < windowCap+7; k++ { // full and wrapped
		for u := 0; u < users; u++ {
			lsn++
			s.Apply(lsn, u, seq.Item(u*pool+rng.Intn(pool)))
		}
	}
	perUser := float64(heap()-before) / users
	if s.Len() != users || s.WindowLen(users-1) != windowCap {
		t.Fatalf("store holds %d sessions, last of length %d", s.Len(), s.WindowLen(users-1))
	}
	t.Logf("%.0f B resident per full |W|=%d session", perUser, windowCap)
	if perUser > 561 {
		t.Fatalf("%.0f B resident per user, want <= 561", perUser)
	}
	runtime.KeepAlive(s)
}

// TestCaptureSharesNothingWithTheStore: the capture's windows are slices
// of one slab, independent of the live rings and of each other. The
// capture lists them in map order; a write sorts them.
func TestCaptureSharesNothingWithTheStore(t *testing.T) {
	s := NewStore(Config{WindowCap: 3})
	s.Apply(1, 0, 10)
	s.Apply(2, 1, 20)
	s.Apply(3, 1, 21)
	c := s.Capture()
	s.Apply(4, 0, 11)
	s.Apply(5, 1, 22)
	s.Apply(6, 1, 23) // wraps user 1's ring over the captured items
	c.sortByUser()
	want := []UserWindow{{User: 0, Pushed: 1, Items: []seq.Item{10}}, {User: 1, Pushed: 2, Items: []seq.Item{20, 21}}}
	if !reflect.DeepEqual(c.windows, want) {
		t.Fatalf("capture = %v, want %v", c.windows, want)
	}
	// Appending to one window must not run into its slab neighbour.
	_ = append(c.windows[0].Items, 99)
	if !reflect.DeepEqual(c.windows, want) {
		t.Fatalf("append through one window reached the next: %v", c.windows)
	}
}

// parentSnapshot is a snapshot file written by the commit before the
// resident form changed (f0d085d: sessions held *seq.Window), with the
// Dump() that commit printed for the same store next to it.
const parentSnapshot = "testdata/parent-f0d085d/sessions-000000000000006a.snap"

// TestParentWrittenSnapshotLoadsIdentically: an events dir written by the
// parent boots on this code to the same state, and saving that state
// again writes the parent's file with its body lines in user order (the
// parent wrote them least recently used first) under a header carrying
// the re-sorted body's CRC. The parent's loader takes lines in any order,
// so it boots from ours too.
func TestParentWrittenSnapshotLoadsIdentically(t *testing.T) {
	golden, err := os.ReadFile(parentSnapshot)
	if err != nil {
		t.Fatal(err)
	}
	wantDump, err := os.ReadFile(filepath.Join(filepath.Dir(parentSnapshot), "dump.json"))
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{WindowCap: 5}
	s, stats, err := LoadLatest(filepath.Dir(parentSnapshot), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if stats.SnapshotsSkipped != 0 || stats.SnapshotLSN != 0x6a || stats.SnapshotUsers != 18 {
		t.Fatalf("load stats = %+v", stats)
	}
	if got := fingerprint(t, s) + "\n"; got != string(wantDump) {
		t.Fatalf("Dump() after loading the parent's snapshot:\n%swant:\n%s", got, wantDump)
	}
	path, _, err := s.Save(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var hdr snapHeader
	hdrLine, body, _ := bytes.Cut(golden, []byte("\n"))
	if err := json.Unmarshal(hdrLine, &hdr); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(string(body), "\n"), "\n")
	user := func(line string) int {
		var uw UserWindow
		if err := json.Unmarshal([]byte(line), &uw); err != nil {
			t.Fatal(err)
		}
		return uw.User
	}
	sort.SliceStable(lines, func(i, j int) bool { return user(lines[i]) < user(lines[j]) })
	want := snapshotBytes(t, hdr.WindowCap, hdr.AppliedLSN, lines...)
	if filepath.Base(path) != filepath.Base(parentSnapshot) || !bytes.Equal(got, want) {
		t.Fatalf("re-saved snapshot %s differs from the parent's lines in user order:\n%s\nwant:\n%s", filepath.Base(path), got, want)
	}
}

// TestSnapshotGoldenBytes pins the file format literally; the bytes are
// what the parent commit wrote for the same applies.
func TestSnapshotGoldenBytes(t *testing.T) {
	s := NewStore(Config{WindowCap: 3})
	s.Apply(1, 7, 70)
	s.Apply(2, 2, 20)
	for i := 0; i < 5; i++ {
		s.Apply(uint64(3+i), 7, seq.Item(71+i)) // wraps
	}
	s.Apply(8, 1<<20, 0)
	path, _, err := s.Save(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	const want = `{"format":"tsppr-sessnap-v1","window_cap":3,"applied_lsn":8,"users":3,"body_crc":3377174949}
{"u":2,"t":1,"w":[20]}
{"u":7,"t":6,"w":[73,74,75]}
{"u":1048576,"t":1,"w":[0]}
`
	if string(got) != want {
		t.Fatalf("snapshot bytes:\n%swant:\n%s", got, want)
	}
}

// snapshotBytes hand-builds a snapshot file whose header is consistent
// with its body (count and CRC), whatever the body says.
func snapshotBytes(t *testing.T, windowCap int, lsn uint64, lines ...string) []byte {
	t.Helper()
	var body bytes.Buffer
	for _, l := range lines {
		body.WriteString(l + "\n")
	}
	hdr, err := json.Marshal(snapHeader{Format: snapFormat, WindowCap: windowCap, AppliedLSN: lsn,
		Users: len(lines), BodyCRC: crc32.Checksum(body.Bytes(), snapCRC)})
	if err != nil {
		t.Fatal(err)
	}
	return append(append(hdr, '\n'), body.Bytes()...)
}

// writeSnapshot writes snapshotBytes to dir under the name for lsn.
func writeSnapshot(t *testing.T, dir string, windowCap int, lsn uint64, lines ...string) string {
	t.Helper()
	path := SnapshotPath(dir, lsn)
	if err := os.WriteFile(path, snapshotBytes(t, windowCap, lsn, lines...), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestLoadSnapshotRejectsDuplicateUser: a body naming one user twice has
// a valid CRC and the right line count, yet no writer produces it and
// restoring it would silently keep one of the two windows. It is a
// corrupt generation.
func TestLoadSnapshotRejectsDuplicateUser(t *testing.T) {
	dir := t.TempDir()
	writeSnapshot(t, dir, 4, 3, `{"u":1,"t":2,"w":[5,6]}`)
	writeSnapshot(t, dir, 4, 9, `{"u":1,"t":2,"w":[5,6]}`, `{"u":1,"t":3,"w":[5,6,7]}`)
	s, stats, err := LoadLatest(dir, Config{WindowCap: 4})
	if err != nil {
		t.Fatal(err)
	}
	if stats.SnapshotsSkipped != 1 || stats.SnapshotLSN != 3 || s.AppliedLSN() != 3 || s.Len() != 1 {
		t.Fatalf("duplicate-user generation not skipped: %+v, lsn %d, %d sessions", stats, s.AppliedLSN(), s.Len())
	}
	// The hand-built writer itself is sound: the same lines under two
	// users load.
	writeSnapshot(t, dir, 4, 12, `{"u":1,"t":2,"w":[5,6]}`, `{"u":2,"t":3,"w":[5,6,7]}`)
	if s, stats, err = LoadLatest(dir, Config{WindowCap: 4}); err != nil || stats.SnapshotLSN != 12 || s.Len() != 2 {
		t.Fatalf("valid hand-built snapshot: %+v %v", stats, err)
	}
}

// TestStreamingLoadSkipsDamagedGeneration: the loader no longer holds the
// body to checksum it before parsing, so every way the newest file can be
// wrong must still end with that generation skipped whole — nothing of
// it in the store that comes back — and the older one loaded.
func TestStreamingLoadSkipsDamagedGeneration(t *testing.T) {
	const users = 300
	build := func(t *testing.T) (dir, newest string, older []UserWindow) {
		dir = t.TempDir()
		s := NewStore(Config{WindowCap: 8})
		lsn := uint64(0)
		for k := 0; k < 11; k++ {
			for u := 0; u < users; u++ {
				lsn++
				s.Apply(lsn, u, seq.Item(u+k))
			}
		}
		if _, _, err := s.Save(dir); err != nil {
			t.Fatal(err)
		}
		older = s.Dump()
		for u := 0; u < users; u++ {
			lsn++
			s.Apply(lsn, u, 9999)
		}
		newest, _, err := s.Save(dir)
		if err != nil {
			t.Fatal(err)
		}
		return dir, newest, older
	}
	lastLineStart := func(raw []byte) int {
		return bytes.LastIndexByte(raw[:len(raw)-1], '\n') + 1
	}
	damage := map[string]func(raw []byte) []byte{
		"flipped byte in the last line": func(raw []byte) []byte {
			raw[lastLineStart(raw)+8] ^= 0x01
			return raw
		},
		"flipped byte in the first line": func(raw []byte) []byte {
			raw[bytes.IndexByte(raw, '\n')+8] ^= 0x01
			return raw
		},
		"truncated mid-line":       func(raw []byte) []byte { return raw[:len(raw)-5] },
		"truncated on a line end":  func(raw []byte) []byte { return raw[:lastLineStart(raw)] },
		"truncated to the header":  func(raw []byte) []byte { return raw[:bytes.IndexByte(raw, '\n')+1] },
		"one line too many":        func(raw []byte) []byte { return append(raw, []byte(`{"u":100000,"t":1,"w":[1]}`+"\n")...) },
		"last line repeated":       func(raw []byte) []byte { return append(raw, raw[lastLineStart(raw):]...) },
		"trailing garbage":         func(raw []byte) []byte { return append(raw, "garbage"...) },
		"header count off by one":  func(raw []byte) []byte { return bytes.Replace(raw, []byte(`"users":300`), []byte(`"users":301`), 1) },
		"header count one too few": func(raw []byte) []byte { return bytes.Replace(raw, []byte(`"users":300`), []byte(`"users":299`), 1) },
	}
	for name, mutate := range damage {
		t.Run(name, func(t *testing.T) {
			dir, newest, older := build(t)
			raw, err := os.ReadFile(newest)
			if err != nil {
				t.Fatal(err)
			}
			mutated := mutate(append([]byte(nil), raw...))
			if bytes.Equal(mutated, raw) {
				t.Fatal("mutation changed nothing")
			}
			if err := os.WriteFile(newest, mutated, 0o644); err != nil {
				t.Fatal(err)
			}
			s, stats, err := LoadLatest(dir, Config{WindowCap: 8})
			if err != nil {
				t.Fatal(err)
			}
			if stats.SnapshotsSkipped != 1 || stats.SnapshotLSN != 11*users || s.AppliedLSN() != 11*users {
				t.Fatalf("stats = %+v, store at lsn %d: want the newest skipped and the older (lsn %d) loaded",
					stats, s.AppliedLSN(), 11*users)
			}
			if !reflect.DeepEqual(s.Dump(), older) {
				t.Fatal("state differs from the older generation: part of the damaged file got in")
			}
		})
	}
	// With no older generation the answer is an empty store, not a
	// partly filled one.
	dir, newest, _ := build(t)
	if err := os.Remove(SnapshotPath(dir, 11*users)); err != nil {
		t.Fatal(err)
	}
	raw, _ := os.ReadFile(newest)
	raw[len(raw)-4] ^= 0x01
	if err := os.WriteFile(newest, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	s, stats, err := LoadLatest(dir, Config{WindowCap: 8})
	if err != nil || stats.SnapshotsSkipped != 1 || s.Len() != 0 || s.AppliedLSN() != 0 {
		t.Fatalf("damaged only generation: %+v, %d sessions at lsn %d, err %v", stats, s.Len(), s.AppliedLSN(), err)
	}
}

// TestLoadSnapshotLineFieldsDoNotCarryOver: the loader reuses one line's
// storage for the next; a line that omits a field must read as zero, not
// as the previous line's value.
func TestLoadSnapshotLineFieldsDoNotCarryOver(t *testing.T) {
	dir := t.TempDir()
	writeSnapshot(t, dir, 4, 5, `{"u":3,"t":9,"w":[1,2,3]}`, `{"u":4}`, `{"t":2,"w":[8]}`)
	s, _, err := LoadLatest(dir, Config{WindowCap: 4})
	if err != nil {
		t.Fatal(err)
	}
	want := []UserWindow{{User: 0, Pushed: 2, Items: []seq.Item{8}}, {User: 3, Pushed: 9, Items: []seq.Item{1, 2, 3}}, {User: 4, Pushed: 0, Items: []seq.Item{}}}
	if got := s.Dump(); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("Dump = %v, want %v", got, want)
	}
}

// Sinks keep the benchmarked calls from being optimised away.
var (
	sinkWindow *seq.Window
	sinkRing   seq.Ring
	sinkDump   []UserWindow
)

// benchStore is the bench fixture's shape: full |W| = 100 windows over a
// personal pool of 40 items.
func benchStore(users int) *Store {
	s := NewStore(Config{WindowCap: 100})
	rng := rngutil.New(9)
	lsn := uint64(0)
	for k := 0; k < 130; k++ {
		for u := 0; u < users; u++ {
			lsn++
			s.Apply(lsn, u, seq.Item(u*40+rng.Intn(40)))
		}
	}
	return s
}

// BenchmarkWindowCloneLSN is the session read: ring copy under the lock,
// window materialised outside it. The parent (three map copies under the
// lock) measured 4.2–4.5 µs and 3,184 B per read at this shape (this read:
// 5.7–6.2 µs and 5,894 B, 0.27 µs of it under the lock).
func BenchmarkWindowCloneLSN(b *testing.B) {
	s := benchStore(1024)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var ok bool
		if sinkWindow, _, ok = s.WindowCloneLSN(i & 1023); !ok {
			b.Fatal("missing session")
		}
	}
}

// BenchmarkRingCloneLSN is the part of that read spent under the lock.
func BenchmarkRingCloneLSN(b *testing.B) {
	s := benchStore(1024)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkRing, _, _ = s.RingCloneLSN(i & 1023)
	}
}

func BenchmarkApply(b *testing.B) {
	s := benchStore(1024)
	lsn := s.AppliedLSN()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lsn++
		s.Apply(lsn, i&1023, seq.Item(i&31))
	}
}

func BenchmarkDump(b *testing.B) {
	s := benchStore(20_000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkDump = s.Dump()
	}
}
