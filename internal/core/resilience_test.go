package core

import (
	"bytes"
	"errors"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"tsppr/internal/faultinject"
)

// trainedModel returns a small trained model for I/O tests.
func trainedModel(t testing.TB) *Model {
	t.Helper()
	train, numItems, ex, set := corpus(t, 5)
	m, _, err := Train(set, len(train), numItems, ex, smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// v1Blob renders m in the checksum-free v1 format that PR 1's trainer wrote
// and no load accepts any more: the v2 body under the old magic, no trailer.
func v1Blob(t testing.TB, m *Model) []byte {
	blob := mustWrite(t, m)
	return append([]byte("TSPPRv1\n"), blob[len(modelMagic):len(blob)-4]...)
}

// TestReadModelV1Rejected: an intact v1 file is refused by both loads, by
// its magic and with the accepted one named — a body with no checksum
// behind it is never parsed.
func TestReadModelV1Rejected(t *testing.T) {
	blob := v1Blob(t, trainedModel(t))
	_, e1 := ReadModel(bytes.NewReader(blob))
	_, e2 := ReadServingModel(bytes.NewReader(blob))
	for _, err := range []error{e1, e2} {
		if err == nil || !strings.Contains(err.Error(), "bad model magic") || !strings.Contains(err.Error(), "TSPPRv2") {
			t.Fatalf("v1 file: full %v, serving %v; want bad model magic naming TSPPRv2", e1, e2)
		}
	}
}

func TestReadModelV2DetectsBitFlip(t *testing.T) {
	m := trainedModel(t)
	var buf bytes.Buffer
	if err := m.Write(&buf); err != nil {
		t.Fatal(err)
	}
	blob := buf.Bytes()
	// Flip a bit deep inside the float tables: the value still parses as
	// a float64, so only the checksum can catch it.
	for _, off := range []int{len(blob) / 2, len(blob) - 100, 64} {
		corrupted := append([]byte(nil), blob...)
		corrupted[off] ^= 0x10
		_, err := ReadModel(bytes.NewReader(corrupted))
		if err == nil {
			t.Fatalf("bit flip at %d accepted", off)
		}
	}
	// A flip in the float region specifically must surface as a checksum
	// mismatch (header flips may fail shape validation instead).
	corrupted := append([]byte(nil), blob...)
	corrupted[len(blob)-100] ^= 0x10
	_, err := ReadModel(bytes.NewReader(corrupted))
	if err == nil || !strings.Contains(err.Error(), "checksum mismatch") {
		t.Fatalf("err = %v, want checksum mismatch", err)
	}
}

func TestReadModelV2DetectsTruncation(t *testing.T) {
	m := trainedModel(t)
	var buf bytes.Buffer
	if err := m.Write(&buf); err != nil {
		t.Fatal(err)
	}
	blob := buf.Bytes()
	for _, cut := range []int{1, 2, 4, 100, len(blob) / 2} {
		if _, err := ReadModel(bytes.NewReader(blob[:len(blob)-cut])); err == nil {
			t.Fatalf("truncation by %d bytes accepted", cut)
		}
	}
}

func TestSaveFileAtomicRoundtrip(t *testing.T) {
	m := trainedModel(t)
	path := filepath.Join(t.TempDir(), "model.tsppr")
	if err := m.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := got.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestSaveFileShortWriteLeavesOldModel(t *testing.T) {
	faultinject.Reset()
	defer faultinject.Reset()
	m := trainedModel(t)
	dir := t.TempDir()
	path := filepath.Join(dir, "model.tsppr")
	if err := m.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	// A save that dies mid-write must fail loudly and leave the previous
	// file — and no temp litter — behind.
	faultinject.Arm("core.io.write", faultinject.Plan{Mode: faultinject.ShortWrite})
	if err := m.SaveFile(path); !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("err = %v, want injected", err)
	}
	faultinject.Reset()
	if _, err := LoadFile(path); err != nil {
		t.Fatalf("previous model damaged: %v", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("temp files left behind: %v", entries)
	}
}

func TestSaveFileCorruptionCaughtOnLoad(t *testing.T) {
	faultinject.Reset()
	defer faultinject.Reset()
	m := trainedModel(t)
	path := filepath.Join(t.TempDir(), "model.tsppr")
	// Corrupt the second buffered chunk (the first holds the magic and
	// header, whose damage may fail shape checks rather than the CRC).
	faultinject.Arm("core.io.write", faultinject.Plan{Mode: faultinject.Corrupt, After: 1, Count: 1, Seed: 9})
	if err := m.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	faultinject.Reset()
	if _, err := LoadFile(path); err == nil {
		t.Fatal("silently corrupted file accepted")
	}
}

func TestValidateRejectsNonFinite(t *testing.T) {
	m := trainedModel(t)
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	m.U.Data[3] = math.NaN()
	if err := m.Validate(); err == nil {
		t.Fatal("NaN in U accepted")
	}
	m.U.Data[3] = 0
	m.A[0].Data[0] = math.Inf(1)
	if err := m.Validate(); err == nil {
		t.Fatal("Inf in A accepted")
	}
}

func TestTrainDivergenceBackoff(t *testing.T) {
	train, numItems, ex, set := corpus(t, 6)
	cfg := Config{
		K: 8, Seed: 3,
		// A learning rate this large makes the (1−αγ) shrinkage factor
		// hugely negative, so the parameters explode to Inf within a few
		// steps of every checkpoint until backoff tames α.
		LearningRate: 500,
		MaxSteps:     30_000,
		CheckEvery:   1_000,
	}
	m, stats, err := Train(set, len(train), numItems, ex, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Backoffs == 0 {
		t.Fatal("no backoff despite exploding learning rate")
	}
	if err := m.Validate(); err != nil {
		t.Fatalf("returned model not finite after backoff: %v", err)
	}
	sawDiverged := false
	var prevLR float64
	for _, cp := range stats.Checkpoints {
		if cp.Diverged {
			sawDiverged = true
			if prevLR != 0 && cp.LR >= prevLR {
				t.Fatalf("LR did not shrink on divergence: %v -> %v", prevLR, cp.LR)
			}
		}
		prevLR = cp.LR
	}
	if !sawDiverged {
		t.Fatal("no diverged checkpoint recorded")
	}
}

func TestTrainHealthyRunHasNoBackoffs(t *testing.T) {
	train, numItems, ex, set := corpus(t, 6)
	_, stats, err := Train(set, len(train), numItems, ex, smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	if stats.Backoffs != 0 || stats.Diverged {
		t.Fatalf("healthy run reported backoffs=%d diverged=%v", stats.Backoffs, stats.Diverged)
	}
}
