package engine_test

import (
	"math"
	"math/rand"
	"path/filepath"
	"testing"

	"tsppr/internal/core"
	"tsppr/internal/engine"
	"tsppr/internal/features"
	"tsppr/internal/rec"
	"tsppr/internal/seq"
)

// TestServingLoadGoldenEquivalence: one PerUserMap model file at the bench
// shape's K and F, loaded whole (core.LoadFile) and for serving
// (core.LoadServingFile, which folds each A_u into w_u as it streams by and
// keeps no A). Over 10³ random windows the two engines return the same
// items with math.Float64bits-identical scores.
func TestServingLoadGoldenEquivalence(t *testing.T) {
	const users, items, k, windowCap, omega = 500, 300, 40, 100, 10
	rng := rand.New(rand.NewSource(21))
	quality, reratio := make([]float64, items), make([]float64, items)
	for i := range quality {
		quality[i], reratio[i] = rng.Float64(), rng.Float64()
	}
	ex, err := features.FromTables(features.AllFeatures, features.Hyperbolic, windowCap, omega, quality, reratio)
	if err != nil {
		t.Fatal(err)
	}
	if ex.Dim() != 4 {
		t.Fatalf("F = %d, want 4", ex.Dim())
	}
	m := &core.Model{K: k, F: ex.Dim(), MapType: core.PerUserMap,
		U: randMatrix(rng, users, k), V: randMatrix(rng, items, k), Extractor: ex}
	for u := 0; u < users; u++ {
		m.A = append(m.A, randMatrix(rng, k, ex.Dim()))
	}
	path := filepath.Join(t.TempDir(), "model.tsppr")
	if err := m.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	full, err := core.LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	serving, err := core.LoadServingFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(full.A) != users || serving.A != nil {
		t.Fatalf("full load holds %d maps, serving load %d; want %d and none", len(full.A), len(serving.A), users)
	}
	for _, mod := range []*core.Model{full, serving} {
		if err := mod.Validate(); err != nil {
			t.Fatal(err)
		}
	}
	engFull, engServing := engine.New(full), engine.New(serving)
	if serving.A != nil {
		t.Fatal("Validate/engine.New rebuilt A on the serving model")
	}
	var got, want []rec.Scored
	compared := 0
	for i := 0; i < 1000; i++ {
		w := seq.NewWindow(windowCap)
		distinct := 1 + rng.Intn(60)
		for n := rng.Intn(2 * windowCap); n >= 0; n-- {
			w.Push(seq.Item(rng.Intn(distinct)))
		}
		ctx := &rec.Context{User: rng.Intn(users), Window: w, Omega: rng.Intn(omega + 1)}
		n := 1 + rng.Intn(20)
		want = engFull.Recommend(ctx, n, want[:0])
		got = engServing.Recommend(ctx, n, got[:0])
		if len(got) != len(want) {
			t.Fatalf("window %d: %d results, want %d", i, len(got), len(want))
		}
		compared += len(want)
		for r := range want {
			if got[r].Item != want[r].Item || math.Float64bits(got[r].Score) != math.Float64bits(want[r].Score) {
				t.Fatalf("window %d rank %d: serving %v != full %v", i, r, got[r], want[r])
			}
		}
	}
	if compared < 5000 {
		t.Fatalf("only %d scores compared: the windows are not exercising the ranking", compared)
	}
}
