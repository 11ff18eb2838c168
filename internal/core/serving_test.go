package core

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// trainedKind returns a small trained model of the given map kind.
func trainedKind(t testing.TB, mk MapKind) *Model {
	t.Helper()
	train, numItems, ex, set := corpus(t, 6)
	cfg := smallConfig()
	cfg.MapType = mk
	if mk == IdentityMap {
		cfg.K = ex.Dim()
	}
	m, _, err := Train(set, len(train), numItems, ex, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func mustWrite(t testing.TB, m *Model) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := m.Write(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// resealV2 recomputes a v2 blob's CRC trailer after its body was edited,
// so the edit reaches the checks behind the checksum.
func resealV2(blob []byte) {
	body := blob[len(modelMagic) : len(blob)-4]
	binary.LittleEndian.PutUint32(blob[len(blob)-4:], crc32.Checksum(body, crcTable))
}

// mapsOffset is where the first A block starts in a blob of m.
func mapsOffset(m *Model) int {
	return len(modelMagic) + 5*8 + 8*len(m.U.Data) + 8*len(m.V.Data) + 8
}

// sameServingTables fails unless the two models hand the engine bit-equal
// operands: U, V and w_u.
func sameServingTables(t *testing.T, full, serving *Model) {
	t.Helper()
	if !reflect.DeepEqual(full.U, serving.U) || !reflect.DeepEqual(full.V, serving.V) {
		t.Fatal("U/V differ between the loads")
	}
	for u := 0; u < full.NumUsers(); u++ {
		a, b := full.EffectiveFeatureWeights(u), serving.EffectiveFeatureWeights(u)
		for f := range a {
			if math.Float64bits(a[f]) != math.Float64bits(b[f]) {
				t.Fatalf("w[%d][%d]: full %x, serving %x", u, f, math.Float64bits(a[f]), math.Float64bits(b[f]))
			}
		}
	}
}

// TestServingLoadMatchesFullLoad: for every map kind the serving load
// yields the full load's scoring operands bit for bit; a PerUserMap model
// comes back without A and keeps its folded effW (same storage) however
// often Validate and Precompute run after readBody's own call — engine.New
// is one more such call.
func TestServingLoadMatchesFullLoad(t *testing.T) {
	for _, mk := range []MapKind{PerUserMap, SharedMap, IdentityMap} {
		blob := mustWrite(t, trainedKind(t, mk))
		full, err := ReadModel(bytes.NewReader(blob))
		if err != nil {
			t.Fatalf("%v full: %v", mk, err)
		}
		serving, err := ReadServingModel(bytes.NewReader(blob))
		if err != nil {
			t.Fatalf("%v serving: %v", mk, err)
		}
		if mk == PerUserMap {
			if serving.A != nil {
				t.Fatalf("serving load kept %d maps", len(serving.A))
			}
			folded := &serving.effW.Data[0]
			for i := 0; i < 3; i++ {
				if err := serving.Validate(); err != nil {
					t.Fatal(err)
				}
				serving.Precompute()
				if serving.A != nil || &serving.effW.Data[0] != folded {
					t.Fatal("Validate/Precompute replaced the folded effW")
				}
			}
		} else if len(serving.A) != len(full.A) {
			t.Fatalf("%v: serving load has %d maps, full %d", mk, len(serving.A), len(full.A))
		}
		if err := full.Validate(); err != nil {
			t.Fatal(err)
		}
		sameServingTables(t, full, serving)
	}
}

// TestServingLoadParentWrittenFile: a file written by the parent commit's
// rrc-train loads through both paths to the same operands, and one flipped
// byte gets the same checksum verdict from both — which claiming to be the
// checksum-less v1 (byte 6 = '1') must not get it out of.
func TestServingLoadParentWrittenFile(t *testing.T) {
	path := filepath.Join("testdata", "parent-48120b3", "model.tsppr")
	full, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	serving, err := LoadServingFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if full.MapType != PerUserMap || serving.A != nil {
		t.Fatalf("fixture map kind %v, serving maps %d", full.MapType, len(serving.A))
	}
	sameServingTables(t, full, serving)
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	blob[len(blob)-40] ^= 0x01 // inside the extractor tables, behind the maps
	_, e1 := ReadModel(bytes.NewReader(blob))
	_, e2 := ReadServingModel(bytes.NewReader(blob))
	if e1 == nil || e2 == nil || e1.Error() != e2.Error() || !strings.Contains(e1.Error(), "checksum mismatch") {
		t.Fatalf("flipped byte: full %v, serving %v", e1, e2)
	}
	blob[6] = '1'
	_, e1 = ReadModel(bytes.NewReader(blob))
	_, e2 = ReadServingModel(bytes.NewReader(blob))
	if e1 == nil || e2 == nil || e1.Error() != e2.Error() || !strings.Contains(e1.Error(), "bad model magic") {
		t.Fatalf("flipped byte under a v1 magic: full %v, serving %v", e1, e2)
	}
	if _, err := LoadServingFile(filepath.Join(t.TempDir(), "missing")); err == nil {
		t.Fatal("missing file accepted")
	}
}

// TestServingLoadRejectsWhatFullLoadRejects: every truncation and a flipped
// bit at every byte of the file is rejected by both loads, with the same
// error unless the flip made an A entry non-finite — which the serving load
// names before it gets to the checksum.
func TestServingLoadRejectsWhatFullLoadRejects(t *testing.T) {
	m := trainedKind(t, PerUserMap)
	blob := mustWrite(t, m)
	check := func(what string, data []byte) {
		t.Helper()
		_, e1 := ReadModel(bytes.NewReader(data))
		_, e2 := ReadServingModel(bytes.NewReader(data))
		if e1 == nil || e2 == nil {
			t.Fatalf("%s: full %v, serving %v", what, e1, e2)
		}
		if e1.Error() != e2.Error() && !strings.Contains(e2.Error(), "non-finite value in A[") {
			t.Fatalf("%s: full %q, serving %q", what, e1, e2)
		}
	}
	for cut := 0; cut < len(blob); cut += 7 {
		check("truncated", blob[:cut])
	}
	check("one byte short", blob[:len(blob)-1])
	for i := range blob {
		flipped := append([]byte(nil), blob...)
		flipped[i] ^= 0x40
		check("flipped", flipped)
	}
}

// TestServingLoadRejectsNonFiniteMap: a file that checksums cleanly but
// holds Inf/NaN in some A_u is stopped by Validate after the full load and
// by the stream check in the serving load — same message either way.
func TestServingLoadRejectsNonFiniteMap(t *testing.T) {
	m := trainedKind(t, PerUserMap)
	for _, bad := range []float64{math.Inf(1), math.Inf(-1), math.NaN()} {
		blob := mustWrite(t, m)
		off := mapsOffset(m) + 8*(3*m.K*m.F+5) // user 3's block, entry 5
		binary.LittleEndian.PutUint64(blob[off:], math.Float64bits(bad))
		resealV2(blob)
		full, err := ReadModel(bytes.NewReader(blob))
		if err != nil {
			t.Fatalf("full load: %v", err)
		}
		want := full.Validate()
		if want == nil || !strings.Contains(want.Error(), "non-finite value in A[3]") {
			t.Fatalf("Validate = %v", want)
		}
		if _, err := ReadServingModel(bytes.NewReader(blob)); err == nil || err.Error() != want.Error() {
			t.Fatalf("serving load = %v, want %v", err, want)
		}
	}
}

// TestServingModelFailsClosed: a model without its per-user maps cannot be
// written (the file would never load again) or used as a warm start — each
// is an error, not an index panic — while the kinds that keep their A
// through the serving load still write byte-identically.
func TestServingModelFailsClosed(t *testing.T) {
	m := trainedKind(t, PerUserMap)
	blob := mustWrite(t, m)
	serving, err := ReadServingModel(bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := serving.Write(&buf); err == nil || buf.Len() != 0 {
		t.Fatalf("Write = %v after %d bytes", err, buf.Len())
	}
	path := filepath.Join(t.TempDir(), "m.tsppr")
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := serving.SaveFile(path); err == nil {
		t.Fatal("SaveFile wrote an A-less model")
	}
	if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, blob) {
		t.Fatalf("refused SaveFile disturbed the file in place (err %v)", err)
	}
	train, numItems, ex, set := corpus(t, 6)
	cfg := smallConfig()
	cfg.Warm = serving
	if _, _, err := Train(set, len(train), numItems, ex, cfg); err == nil {
		t.Fatal("Train warm-started from an A-less model")
	}
	// Neither maps nor folded weights: not fit to serve.
	hollow := &Model{K: m.K, F: m.F, MapType: PerUserMap, U: m.U, V: m.V, Extractor: m.Extractor}
	if err := hollow.Validate(); err == nil {
		t.Fatal("Validate accepted a per-user model with neither A nor effW")
	}
	for _, mk := range []MapKind{SharedMap, IdentityMap} {
		blob := mustWrite(t, trainedKind(t, mk))
		serving, err := ReadServingModel(bytes.NewReader(blob))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(mustWrite(t, serving), blob) {
			t.Fatalf("%v: serving-loaded model re-writes differently", mk)
		}
	}
}

// TestServingLoadResidentBytes: the serving load holds exactly the full
// load's tables minus the maps, 8·users·K·F bytes, and that is 8 bytes for
// every element of U, V, effW and the extractor's two tables — nothing else
// is resident.
func TestServingLoadResidentBytes(t *testing.T) {
	m := trainedKind(t, PerUserMap)
	blob := mustWrite(t, m)
	full, _ := ReadModel(bytes.NewReader(blob))
	serving, _ := ReadServingModel(bytes.NewReader(blob))
	maps := int64(8 * m.NumUsers() * m.K * m.F)
	if got, want := serving.ResidentBytes(), full.ResidentBytes()-maps; got != want || got <= 0 {
		t.Fatalf("serving load holds %d bytes, want full %d - maps %d", got, full.ResidentBytes(), maps)
	}
	quality, reratio := serving.Extractor.Tables()
	want := int64(8 * (len(serving.U.Data) + len(serving.V.Data) + len(serving.effW.Data) + len(quality) + len(reratio)))
	if got := serving.ResidentBytes(); got != want || len(serving.effW.Data) != m.NumUsers()*m.F {
		t.Fatalf("ResidentBytes = %d, want %d (effW holds %d floats)", got, want, len(serving.effW.Data))
	}
}
