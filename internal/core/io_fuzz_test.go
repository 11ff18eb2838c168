package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
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
// v2 model, truncations, bit flips, and hostile shape headers. The
// invariant: ReadModel returns (model, nil) or (nil, error) — it never
// panics and never allocates from unvalidated shape claims.
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

// FuzzReadServingModel is a differential against ReadModel: for any input
// load + Validate either fails on both paths or succeeds on both, and on
// success the serving load's w_u is bit-equal to the full load's for every
// user (Validate is part of the verdict because the serving load applies
// A's finiteness check in the stream, the full load in Validate).
func FuzzReadServingModel(f *testing.F) {
	for _, mk := range []MapKind{PerUserMap, SharedMap, IdentityMap} {
		m := trainedKind(f, mk)
		blob := mustWrite(f, m)
		f.Add(blob)
		f.Add(blob[:len(blob)/2])
		f.Add(blob[:len(blob)-2])
		f.Add(v1Blob(f, m)) // intact v1: refused by its magic
		flipped := append([]byte(nil), blob...)
		flipped[mapsOffset(m)+11] ^= 0x40
		f.Add(flipped)
		nan := append([]byte(nil), blob...)
		binary.LittleEndian.PutUint64(nan[mapsOffset(m)+16:], math.Float64bits(math.NaN()))
		resealV2(nan)
		f.Add(nan)
	}
	f.Add(hostileShapeHeader())
	f.Add([]byte{})
	load := func(read func(io.Reader) (*Model, error), data []byte) (*Model, error) {
		m, err := read(bytes.NewReader(data))
		if err == nil {
			err = m.Validate()
		}
		return m, err
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		full, e1 := load(ReadModel, data)
		serving, e2 := load(ReadServingModel, data)
		if (e1 == nil) != (e2 == nil) {
			t.Fatalf("full load: %v; serving load: %v", e1, e2)
		}
		if e1 != nil {
			return
		}
		if !bytes.HasPrefix(data, []byte(modelMagic)) {
			t.Fatalf("loaded a file that does not start with %q", modelMagic)
		}
		if full.MapType == PerUserMap && serving.A != nil {
			t.Fatalf("serving load kept %d maps", len(serving.A))
		}
		for u := 0; u < full.NumUsers(); u++ {
			a, b := full.EffectiveFeatureWeights(u), serving.EffectiveFeatureWeights(u)
			for i := range a {
				if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
					t.Fatalf("w[%d][%d]: full %x, serving %x", u, i, math.Float64bits(a[i]), math.Float64bits(b[i]))
				}
			}
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
		for name, read := range loaders {
			if _, err := read(bytes.NewReader(blob)); err == nil {
				t.Errorf("hostile header %d accepted by the %s load", i, name)
			}
		}
	}
}

// loaders are the two entry points of the one parser; the allocation and
// rejection properties below hold for both.
var loaders = map[string]func(io.Reader) (*Model, error){"full": ReadModel, "serving": ReadServingModel}

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
	for name, read := range loaders {
		blob := hostileShapeHeader()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		m, err := read(bytes.NewReader(blob))
		runtime.ReadMemStats(&after)
		if err == nil || m != nil {
			t.Fatalf("%s: header-only model accepted: %v", name, m)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
			t.Fatalf("%s: rejecting a %d-byte file allocated %d bytes, want < 1 MiB", name, len(blob), got)
		}
		// Some of the claimed table present, then EOF mid-table: still an
		// error, and still bounded by the bytes that were there.
		blob = append(blob, make([]byte, 3<<20)...)
		runtime.ReadMemStats(&before)
		_, err = read(bytes.NewReader(blob))
		runtime.ReadMemStats(&after)
		if !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("%s: err = %v, want unexpected EOF", name, err)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got >= 4*uint64(len(blob)) {
			t.Fatalf("%s: a %d-byte file allocated %d bytes", name, len(blob), got)
		}
	}
}

// TestServingLoadSizesEffWByBlocksRead: U and V are honestly there, so the
// user count is backed by bytes — but F = 2¹⁷ is only the header's word. A
// numUsers × F table made on that word would be 64 MiB for this 1 KiB
// file; the serving load grows effW per arrived block instead, here not at
// all, and with two whole 1 MiB blocks present stays inside 4× the file.
func TestServingLoadSizesEffWByBlocksRead(t *testing.T) {
	const users, bigF = 64, 1 << 17
	var buf bytes.Buffer
	buf.WriteString(modelMagic)
	cw := &countingWriter{w: &buf}
	for _, v := range []int64{1, bigF, int64(PerUserMap), users, 1} {
		cw.write(v)
	}
	cw.writeFloats(make([]float64, users+1)) // U (K=1) and the one V row
	cw.write(int64(users))                   // map count
	for name, blocks := range map[string]int{"no block": 0, "two blocks": 2} {
		blob := append(append([]byte(nil), buf.Bytes()...), make([]byte, 8*bigF*blocks+100)...)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := ReadServingModel(bytes.NewReader(blob))
		runtime.ReadMemStats(&after)
		if !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("%s: err = %v, want unexpected EOF", name, err)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20+4*uint64(len(blob)) {
			t.Fatalf("%s: a %d-byte file allocated %d bytes", name, len(blob), got)
		}
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
