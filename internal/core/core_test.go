package core

import (
	"bytes"
	"math"
	"path/filepath"
	"testing"

	"tsppr/internal/datagen"
	"tsppr/internal/features"
	"tsppr/internal/linalg"
	"tsppr/internal/rngutil"
	"tsppr/internal/sampling"
	"tsppr/internal/seq"
)

// corpus builds a small synthetic corpus and its pipeline pieces.
func corpus(t testing.TB, users int) ([]seq.Sequence, int, *features.Extractor, *sampling.Set) {
	t.Helper()
	cfg := datagen.GowallaLike(users, 5)
	cfg.MinLen, cfg.MaxLen = 80, 200
	cfg.WindowCap = 20
	ds, err := datagen.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	numItems := ds.NumItems()
	train := make([]seq.Sequence, len(ds.Seqs))
	for u, s := range ds.Seqs {
		train[u], _ = s.Split(0.8)
	}
	b := features.NewBuilder(numItems, 20, 3)
	for _, s := range train {
		b.Add(s)
	}
	ex := b.Build(features.AllFeatures, features.Hyperbolic)
	set, err := sampling.Build(train, ex, sampling.Config{WindowCap: 20, Omega: 3, S: 5, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if set.NumPairs() == 0 {
		t.Fatal("corpus yielded no training pairs")
	}
	return train, numItems, ex, set
}

func smallConfig() Config {
	return Config{K: 8, MaxSteps: 20_000, CheckEvery: 5_000, Seed: 3}
}

// scoreRef evaluates r_uvt from the model's scoring operands, mirroring
// the engine's two-dot-product path (the engine itself cannot be imported
// here: it imports core).
func scoreRef(m *Model, u int, v seq.Item, w *seq.Window) float64 {
	static := 0.0
	if v >= 0 && int(v) < m.V.Rows {
		static = linalg.Dot(m.U.Row(u), m.V.Row(int(v)))
	}
	f := linalg.NewVector(m.F)
	m.Extractor.Extract(f, v, w)
	return static + linalg.Dot(m.EffectiveFeatureWeights(u), f)
}

func TestTrainShapes(t *testing.T) {
	train, numItems, ex, set := corpus(t, 10)
	m, stats, err := Train(set, len(train), numItems, ex, smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	if m.K != 8 || m.F != 4 {
		t.Fatalf("shape K=%d F=%d", m.K, m.F)
	}
	if m.NumUsers() != len(train) || m.NumItems() != numItems {
		t.Fatalf("users/items = %d/%d", m.NumUsers(), m.NumItems())
	}
	if len(m.A) != len(train) {
		t.Fatalf("per-user maps = %d", len(m.A))
	}
	if stats.Steps == 0 || len(stats.Checkpoints) == 0 {
		t.Fatal("no training happened")
	}
	for _, cp := range stats.Checkpoints {
		if math.IsNaN(cp.RBar) || math.IsNaN(cp.Loss) {
			t.Fatal("NaN in checkpoints")
		}
	}
}

func TestTrainingImprovesObjective(t *testing.T) {
	train, numItems, ex, set := corpus(t, 10)
	cfg := smallConfig()
	pairs := set.SmallBatch(0.5)

	init := initModel(len(train), numItems, ex, cfg)
	before := Objective(init, pairs, 0.01, 0.05)

	m, _, err := Train(set, len(train), numItems, ex, cfg)
	if err != nil {
		t.Fatal(err)
	}
	after := Objective(m, pairs, 0.01, 0.05)
	if after >= before {
		t.Fatalf("objective did not improve: %v → %v", before, after)
	}
}

func TestTrainingIncreasesMargin(t *testing.T) {
	train, numItems, ex, set := corpus(t, 10)
	m, stats, err := Train(set, len(train), numItems, ex, smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	_ = m
	first := stats.Checkpoints[0].RBar
	last := stats.Checkpoints[len(stats.Checkpoints)-1].RBar
	if last <= first {
		t.Fatalf("r̃ did not increase: %v → %v", first, last)
	}
	if last <= 0 {
		t.Fatalf("final r̃ %v should be positive", last)
	}
}

func TestTrainDeterminism(t *testing.T) {
	train, numItems, ex, set := corpus(t, 8)
	cfg := smallConfig()
	m1, _, _ := Train(set, len(train), numItems, ex, cfg)
	m2, _, _ := Train(set, len(train), numItems, ex, cfg)
	if !linalg.Equal(m1.U, m2.U, 0) || !linalg.Equal(m1.V, m2.V, 0) {
		t.Fatal("same-seed training produced different parameters")
	}
	cfg.Seed++
	m3, _, _ := Train(set, len(train), numItems, ex, cfg)
	if linalg.Equal(m1.U, m3.U, 0) {
		t.Fatal("different seeds produced identical parameters")
	}
}

func TestTrainMapKinds(t *testing.T) {
	train, numItems, ex, set := corpus(t, 8)
	for _, mk := range []MapKind{PerUserMap, SharedMap, IdentityMap} {
		cfg := smallConfig()
		cfg.MapType = mk
		if mk == IdentityMap {
			cfg.K = ex.Dim()
		}
		m, _, err := Train(set, len(train), numItems, ex, cfg)
		if err != nil {
			t.Fatalf("%v: %v", mk, err)
		}
		wantMaps := map[MapKind]int{PerUserMap: len(train), SharedMap: 1, IdentityMap: 0}[mk]
		if len(m.A) != wantMaps {
			t.Fatalf("%v: %d maps, want %d", mk, len(m.A), wantMaps)
		}
		// The scoring operands must be finite for every kind.
		for _, x := range m.EffectiveFeatureWeights(0) {
			if math.IsNaN(x) {
				t.Fatalf("%v: NaN effective weight", mk)
			}
		}
	}
}

func TestIdentityMapRequiresKEqualsF(t *testing.T) {
	train, numItems, ex, set := corpus(t, 6)
	cfg := smallConfig()
	cfg.MapType = IdentityMap
	cfg.K = 8 // != F=4
	if _, _, err := Train(set, len(train), numItems, ex, cfg); err == nil {
		t.Fatal("IdentityMap with K != F accepted")
	}
}

func TestTwoPhaseTraining(t *testing.T) {
	train, numItems, ex, set := corpus(t, 8)
	cfg := smallConfig()
	cfg.TwoPhase = true
	m, stats, err := Train(set, len(train), numItems, ex, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if m.MapType != PerUserMap || len(m.A) != len(train) {
		t.Fatal("two-phase result is not per-user")
	}
	// Steps accumulate over both phases.
	if stats.Steps <= cfg.MaxSteps {
		t.Fatalf("steps %d should exceed single-phase max %d", stats.Steps, cfg.MaxSteps)
	}
}

func TestWarmStart(t *testing.T) {
	train, numItems, ex, set := corpus(t, 8)
	cfg := smallConfig()
	m1, _, err := Train(set, len(train), numItems, ex, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg2 := smallConfig()
	cfg2.Warm = m1
	cfg2.MaxSteps = 1000
	m2, _, err := Train(set, len(train), numItems, ex, cfg2)
	if err != nil {
		t.Fatal(err)
	}
	// Warm start must not mutate the donor.
	if &m1.U.Data[0] == &m2.U.Data[0] {
		t.Fatal("warm start shares storage with donor")
	}
	// Mismatched shapes must be rejected.
	cfg3 := smallConfig()
	cfg3.Warm = m1
	if _, _, err := Train(set, len(train)+1, numItems, ex, cfg3); err == nil {
		t.Fatal("warm-start shape mismatch accepted")
	}
}

func TestTrainRejectsBadConfig(t *testing.T) {
	train, numItems, ex, set := corpus(t, 6)
	bad := []Config{
		{K: -1},
		{LearningRate: -1},
		{Lambda: -1},
		{Gamma: -1},
	}
	for i, cfg := range bad {
		if _, _, err := Train(set, len(train), numItems, ex, cfg); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
	if _, _, err := Train(set, 0, numItems, ex, smallConfig()); err == nil {
		t.Error("zero users accepted")
	}
}

func TestModelRoundTrip(t *testing.T) {
	train, numItems, ex, set := corpus(t, 6)
	for _, mk := range []MapKind{PerUserMap, SharedMap, IdentityMap} {
		cfg := smallConfig()
		cfg.MapType = mk
		if mk == IdentityMap {
			cfg.K = ex.Dim()
		}
		m, _, err := Train(set, len(train), numItems, ex, cfg)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := m.Write(&buf); err != nil {
			t.Fatal(err)
		}
		got, err := ReadModel(&buf)
		if err != nil {
			t.Fatalf("%v: %v", mk, err)
		}
		if got.K != m.K || got.F != m.F || got.MapType != m.MapType {
			t.Fatalf("%v: header mismatch", mk)
		}
		if !linalg.Equal(got.U, m.U, 0) || !linalg.Equal(got.V, m.V, 0) {
			t.Fatalf("%v: parameter mismatch", mk)
		}
		for i := range m.A {
			if !linalg.Equal(got.A[i], m.A[i], 0) {
				t.Fatalf("%v: map %d mismatch", mk, i)
			}
		}
		// The deserialized model must score identically: the scoring
		// operands (precomputed effective weights included) are bit-equal.
		for u := 0; u < m.NumUsers(); u++ {
			w1, w2 := m.EffectiveFeatureWeights(u), got.EffectiveFeatureWeights(u)
			for f := range w1 {
				if w1[f] != w2[f] {
					t.Fatalf("%v: effective weights differ after round-trip (user %d)", mk, u)
				}
			}
		}
	}
}

func TestModelFileRoundTrip(t *testing.T) {
	train, numItems, ex, set := corpus(t, 6)
	m, _, _ := Train(set, len(train), numItems, ex, smallConfig())
	path := filepath.Join(t.TempDir(), "m.tsppr")
	if err := m.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !linalg.Equal(got.V, m.V, 0) {
		t.Fatal("file round-trip mismatch")
	}
}

func TestReadModelRejectsGarbage(t *testing.T) {
	if _, err := ReadModel(bytes.NewReader([]byte("not a model"))); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := ReadModel(bytes.NewReader(nil)); err == nil {
		t.Fatal("empty input accepted")
	}
	// Valid magic, truncated body.
	if _, err := ReadModel(bytes.NewReader([]byte(modelMagic + "\x01\x00"))); err == nil {
		t.Fatal("truncated model accepted")
	}
}

func TestEmptyTrainingSet(t *testing.T) {
	b := features.NewBuilder(5, 4, 1)
	b.Add(seq.Sequence{1, 2})
	ex := b.Build(features.AllFeatures, features.Hyperbolic)
	set, err := sampling.Build([]seq.Sequence{{1, 2}}, ex, sampling.Config{WindowCap: 4, Omega: 1, S: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	m, stats, err := Train(set, 1, 5, ex, smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	if stats.Steps != 0 {
		t.Fatalf("steps %d on empty set", stats.Steps)
	}
	if m == nil {
		t.Fatal("nil model on empty set")
	}
}

func TestMapKindString(t *testing.T) {
	if PerUserMap.String() != "per-user" || SharedMap.String() != "shared" || IdentityMap.String() != "identity" {
		t.Fatal("MapKind strings wrong")
	}
}

func BenchmarkSGDStep(b *testing.B) {
	train, numItems, ex, set := corpus(b, 10)
	cfg := smallConfig().withDefaults(set.NumPairs())
	m := initModel(len(train), numItems, ex, cfg)
	tr := trainer{m: m, cfg: cfg}
	tr.init()
	rng := rngutil.New(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, _ := set.SamplePairUniform(rng)
		tr.step(p)
	}
}

func TestEffectiveFeatureWeights(t *testing.T) {
	train, numItems, ex, set := corpus(t, 8)
	m, _, err := Train(set, len(train), numItems, ex, smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	w := m.EffectiveFeatureWeights(0)
	if len(w) != m.F {
		t.Fatalf("weights dim %d, want %d", len(w), m.F)
	}
	// Consistency: the precomputed fold w·f matches the direct derivation
	// uᵀ(A_u·f) for an actual extracted feature vector. The two fold in
	// different summation orders, hence a tolerance, not equality.
	win := seq.NewWindow(20)
	for _, v := range train[0][:20] {
		win.Push(v)
	}
	f := linalg.NewVector(m.F)
	ex.Extract(f, train[0][0], win)
	tmp := linalg.NewVector(m.K)
	m.mapFor(0).MulVec(tmp, f)
	dyn := linalg.Dot(m.U.Row(0), tmp)
	if diff := math.Abs(dyn - linalg.Dot(w, f)); diff > 1e-9 {
		t.Fatalf("w·f inconsistent with uᵀA_uf: diff %v", diff)
	}

	// Identity map: weights are u itself.
	cfg := smallConfig()
	cfg.MapType = IdentityMap
	cfg.K = ex.Dim()
	mi, _, err := Train(set, len(train), numItems, ex, cfg)
	if err != nil {
		t.Fatal(err)
	}
	wi := mi.EffectiveFeatureWeights(0)
	for k := range wi {
		if wi[k] != mi.U.Row(0)[k] {
			t.Fatal("identity-map weights != u")
		}
	}
}

func TestEffectiveFeatureWeightsPanics(t *testing.T) {
	train, numItems, ex, set := corpus(t, 6)
	m, _, _ := Train(set, len(train), numItems, ex, smallConfig())
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	m.EffectiveFeatureWeights(-1)
}

func TestOnCheckpointCallback(t *testing.T) {
	train, numItems, ex, set := corpus(t, 6)
	cfg := smallConfig()
	var calls []Checkpoint
	cfg.OnCheckpoint = func(cp Checkpoint) { calls = append(calls, cp) }
	_, stats, err := Train(set, len(train), numItems, ex, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(calls) != len(stats.Checkpoints) {
		t.Fatalf("callback fired %d times, %d checkpoints recorded", len(calls), len(stats.Checkpoints))
	}
	for i := range calls {
		if calls[i].Model == nil {
			t.Fatalf("callback %d carried no model", i)
		}
		if stats.Checkpoints[i].Model != nil {
			t.Fatalf("recorded checkpoint %d retains the live model", i)
		}
		got, want := calls[i], stats.Checkpoints[i]
		got.Model = nil
		if got != want {
			t.Fatalf("callback %d mismatch: %+v != %+v", i, got, want)
		}
	}
}
