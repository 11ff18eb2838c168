package core

import (
	"bytes"
	"errors"
	"io"
	"reflect"
	"runtime"
	"testing"
	"testing/quick"

	"tsppr/internal/features"
	"tsppr/internal/linalg"
	"tsppr/internal/rngutil"
)

// TestReadModelNeverPanicsOnCorruption serializes a real model, then flips
// bytes, truncates and splices at random, asserting ReadModel either
// succeeds or returns an error — never panics, never allocates absurdly.
func TestReadModelNeverPanicsOnCorruption(t *testing.T) {
	train, numItems, ex, set := corpus(t, 5)
	m, _, err := Train(set, len(train), numItems, ex, smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.Write(&buf); err != nil {
		t.Fatal(err)
	}
	blob := buf.Bytes()
	rng := rngutil.New(31)

	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("ReadModel panicked: %v", r)
		}
	}()
	for trial := 0; trial < 300; trial++ {
		corrupted := append([]byte(nil), blob...)
		switch trial % 3 {
		case 0: // flip a handful of bytes
			for i := 0; i < 1+rng.Intn(8); i++ {
				corrupted[rng.Intn(len(corrupted))] ^= byte(1 + rng.Intn(255))
			}
		case 1: // truncate
			corrupted = corrupted[:rng.Intn(len(corrupted))]
		case 2: // swap two random chunks
			a, b := rng.Intn(len(corrupted)), rng.Intn(len(corrupted))
			corrupted[a], corrupted[b] = corrupted[b], corrupted[a]
		}
		_, _ = ReadModel(bytes.NewReader(corrupted)) // must not panic
	}
}

// TestReadModelArbitraryBytes feeds fully random blobs.
func TestReadModelArbitraryBytes(t *testing.T) {
	f := func(blob []byte) bool {
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("panic on %d bytes: %v", len(blob), r)
			}
		}()
		_, _ = ReadModel(bytes.NewReader(blob))
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// FuzzReadModel drives ReadModel with arbitrary bytes seeded from a real
// v2 model, its v1 rendering, truncations, bit flips, and hostile shape
// headers. The invariant: ReadModel returns (model, nil) or (nil, error) —
// it never panics and never allocates from unvalidated shape claims.
// The seed corpus alone runs under plain `go test`; `go test -fuzz
// FuzzReadModel` explores further.
func FuzzReadModel(f *testing.F) {
	train, numItems, ex, set := corpus(f, 4)
	m, _, err := Train(set, len(train), numItems, ex, smallConfig())
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.Write(&buf); err != nil {
		f.Fatal(err)
	}
	blob := buf.Bytes()
	f.Add(blob)
	f.Add(blob[:len(blob)/2])    // truncated mid-body
	f.Add(blob[:len(blob)-2])    // truncated in the checksum trailer
	f.Add([]byte(modelMagic))    // header only
	f.Add([]byte{})              // empty
	f.Add([]byte("TSPPRv9\nxx")) // unknown version
	flipped := append([]byte(nil), blob...)
	flipped[len(flipped)/3] ^= 0x40
	f.Add(flipped)
	// Valid magic, absurd shape claim: must be rejected before allocating.
	hostile := append([]byte(modelMagic), bytes.Repeat([]byte{0xff}, 40)...)
	f.Add(hostile)
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := ReadModel(bytes.NewReader(data))
		if (got == nil) == (err == nil) {
			t.Fatalf("got model=%v err=%v; want exactly one", got != nil, err)
		}
	})
}

// TestReadModelHostileHeader crafts a valid magic with absurd shape
// claims: the reader must reject them before allocating.
func TestReadModelHostileHeader(t *testing.T) {
	mk := func(k, f, mapType, users, items int64) []byte {
		var buf bytes.Buffer
		buf.WriteString(modelMagic)
		for _, v := range []int64{k, f, mapType, users, items} {
			for i := 0; i < 8; i++ {
				buf.WriteByte(byte(v >> (8 * i)))
			}
		}
		return buf.Bytes()
	}
	hostile := [][]byte{
		mk(1<<40, 4, 0, 10, 10), // absurd K
		mk(8, 1<<40, 0, 10, 10), // absurd F
		mk(8, 4, 0, 1<<40, 10),  // absurd users
		mk(8, 4, 0, 10, 1<<40),  // absurd items
		mk(8, 4, 9, 10, 10),     // unknown map kind
		mk(-1, 4, 0, 10, 10),    // negative K
		mk(8, 4, 0, -10, 10),    // negative users
	}
	for i, blob := range hostile {
		if _, err := ReadModel(bytes.NewReader(blob)); err == nil {
			t.Errorf("hostile header %d accepted", i)
		}
	}
}

// hostileShapeHeader is a v2 file whose header passes every range check
// while claiming the largest shape they admit — 2²⁸ users × 2²⁰ factors,
// a 2⁵¹-byte U table — and which then simply ends.
func hostileShapeHeader() []byte {
	var buf bytes.Buffer
	buf.WriteString(modelMagic)
	for _, v := range []int64{1 << 20, 4, int64(PerUserMap), 1 << 28, 1 << 28} {
		for i := 0; i < 8; i++ {
			buf.WriteByte(byte(v >> (8 * i)))
		}
	}
	return buf.Bytes()
}

// TestReadModelAllocatesByBytesRead: the tables are sized by what the
// stream delivers, not by what the header claims, so the hostile header
// above is an error and under 1 MiB of allocation — not an out-of-range
// make or an OOM kill before the first body byte is looked at.
func TestReadModelAllocatesByBytesRead(t *testing.T) {
	blob := hostileShapeHeader()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	m, err := ReadModel(bytes.NewReader(blob))
	runtime.ReadMemStats(&after)
	if err == nil || m != nil {
		t.Fatalf("header-only model accepted: %v", m)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Fatalf("rejecting a %d-byte file allocated %d bytes, want < 1 MiB", len(blob), got)
	}
	// Some of the claimed table present, then EOF mid-table: still an
	// error, and still bounded by the bytes that were there.
	blob = append(blob, make([]byte, 3<<20)...)
	runtime.ReadMemStats(&before)
	_, err = ReadModel(bytes.NewReader(blob))
	runtime.ReadMemStats(&after)
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("err = %v, want unexpected EOF", err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 4*uint64(len(blob)) {
		t.Fatalf("a %d-byte file allocated %d bytes", len(blob), got)
	}
}

// TestReadModelLargeTableRoundTrip drives a table through readFloats'
// growth path (more floats than floatPresize, not a multiple of the
// chunk) and checks every value and the load's allocation: about the
// model's own size, not twice it.
func TestReadModelLargeTableRoundTrip(t *testing.T) {
	const users, items, k = 2003, 50, 37 // U = 74,111 floats
	rng := rngutil.New(12)
	gauss := func(rows, cols int) *linalg.Matrix {
		m := linalg.NewMatrix(rows, cols)
		for i := range m.Data {
			m.Data[i] = rng.NormFloat64()
		}
		return m
	}
	quality, reratio := make([]float64, items), make([]float64, items)
	for i := range quality {
		quality[i], reratio[i] = rng.Float64(), rng.Float64()
	}
	ex, err := features.FromTables(features.AllFeatures, features.Hyperbolic, 20, 3, quality, reratio)
	if err != nil {
		t.Fatal(err)
	}
	m := &Model{K: k, F: ex.Dim(), MapType: SharedMap, U: gauss(users, k), V: gauss(items, k),
		A: []*linalg.Matrix{gauss(k, ex.Dim())}, Extractor: ex}
	if len(m.U.Data) <= floatPresize {
		t.Fatalf("U holds %d floats: does not reach the growth path", len(m.U.Data))
	}
	var buf bytes.Buffer
	if err := m.Write(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadModel(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.U.Data, m.U.Data) || !reflect.DeepEqual(got.V.Data, m.V.Data) ||
		!reflect.DeepEqual(got.A[0].Data, m.A[0].Data) {
		t.Fatal("tables changed across the round trip")
	}
	// Cut inside U, on a chunk boundary: the table ended early, whatever
	// the stream says.
	cut := len(modelMagic) + 5*8 + 3*floatChunkBytes
	if _, err := ReadModel(bytes.NewReader(buf.Bytes()[:cut])); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("cut on a chunk boundary: err = %v, want unexpected EOF", err)
	}
}
