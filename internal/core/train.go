package core

import (
	"context"
	"fmt"
	"math"

	"tsppr/internal/features"
	"tsppr/internal/linalg"
	"tsppr/internal/mathx"
	"tsppr/internal/rngutil"
	"tsppr/internal/sampling"
)

// Config parameterizes TS-PPR training (paper Table 4 defaults are the
// zero-value fallbacks applied by withDefaults).
type Config struct {
	K            int     // latent dimension (default 40)
	Lambda       float64 // L2 penalty on the maps A (default 0.01)
	Gamma        float64 // L2 penalty on U and V (default 0.05)
	LearningRate float64 // SGD step size α (default 0.03)

	// MaxSteps caps the number of SGD steps (the paper's "epochs": one
	// quadruple per step). 0 means 5·|D| clamped to [50_000, 3_000_000] —
	// roughly where held-out precision peaks before the per-user maps
	// start to overfit the pre-sampled quadruples.
	MaxSteps int
	// CheckEvery is the number of steps between convergence checks;
	// 0 means |D|/10 (paper §4.2.2), clamped to at least 1000.
	CheckEvery int
	// SmallBatchFrac is the fraction of each user's leading quadruples in
	// the convergence batch; 0 means 0.10.
	SmallBatchFrac float64
	// ConvergenceTol is the Δr̃ threshold; 0 means 1e-3 (paper §5.6.1).
	ConvergenceTol float64

	// SampleUsersFirst selects Algorithm 1's user-first hierarchy (a
	// uniform user, then one of their quadruples), which equalizes users
	// regardless of activity. The default (false) samples quadruples
	// uniformly, weighting users by their repeat activity — the same
	// weighting MaAP applies at evaluation time.
	SampleUsersFirst bool

	MapType MapKind
	Seed    uint64

	// Warm continues training from an existing model instead of a fresh
	// Gaussian initialization. The model is copied, not mutated.
	Warm *Model

	// TwoPhase first fits a single shared map (whose gradients pool every
	// user's quadruples, so the global feature weighting is estimated from
	// the full training set), then forks per-user maps from it and
	// continues training. Short-history users end at the global solution
	// instead of an overfit one; data-rich users personalize away from it.
	// Applies only to PerUserMap.
	TwoPhase bool

	// OnCheckpoint, when non-nil, is invoked synchronously after every
	// convergence checkpoint (progress reporting for long trainings, or
	// durable checkpointing via Checkpoint.Model — training is paused for
	// the duration of the call, so the model may be serialized safely).
	OnCheckpoint func(Checkpoint)

	// MaxBackoffs caps how many times a diverged run (NaN/Inf in the
	// parameters or the convergence batch) is rolled back to the last
	// healthy checkpoint with a halved learning rate before training
	// gives up and returns the last healthy parameters. 0 means 8.
	MaxBackoffs int
}

func (c Config) withDefaults(numPairs int) Config {
	if c.K == 0 {
		c.K = 40
	}
	if c.Lambda == 0 {
		c.Lambda = 0.01
	}
	if c.Gamma == 0 {
		c.Gamma = 0.05
	}
	if c.LearningRate == 0 {
		c.LearningRate = 0.03
	}
	if c.MaxSteps == 0 {
		c.MaxSteps = 5 * numPairs
		if c.MaxSteps < 50_000 {
			c.MaxSteps = 50_000
		}
		if c.MaxSteps > 3_000_000 {
			c.MaxSteps = 3_000_000
		}
	}
	if c.CheckEvery == 0 {
		c.CheckEvery = numPairs / 10
		if c.CheckEvery < 1000 {
			c.CheckEvery = 1000
		}
	}
	if c.SmallBatchFrac == 0 {
		c.SmallBatchFrac = 0.10
	}
	if c.ConvergenceTol == 0 {
		c.ConvergenceTol = 1e-3
	}
	if c.MaxBackoffs == 0 {
		c.MaxBackoffs = 8
	}
	return c
}

func (c Config) validate(featDim int) error {
	switch {
	case c.K <= 0:
		return fmt.Errorf("core: K %d <= 0", c.K)
	case c.Lambda < 0 || c.Gamma < 0:
		return fmt.Errorf("core: negative regularization (λ=%v, γ=%v)", c.Lambda, c.Gamma)
	case c.LearningRate <= 0:
		return fmt.Errorf("core: learning rate %v <= 0", c.LearningRate)
	case c.MapType == IdentityMap && c.K != featDim:
		return fmt.Errorf("core: IdentityMap requires K == F, got K=%d F=%d", c.K, featDim)
	}
	return nil
}

// Checkpoint records the convergence-batch state at one check point
// (paper Fig. 12 plots RBar against Step).
type Checkpoint struct {
	Step     int
	RBar     float64 // mean preference difference r̃ over the small batch
	Loss     float64 // mean −ln σ(margin) over the small batch
	LR       float64 // base learning rate in effect after this checkpoint
	Diverged bool    // this checkpoint detected NaN/Inf and rolled back

	// Model is the live training model at this checkpoint. Training is
	// paused while OnCheckpoint runs, so hooks may read or serialize it;
	// they must not retain it past the call or mutate it. After a
	// Diverged checkpoint it holds the restored last-healthy parameters.
	Model *Model
}

// TrainStats reports how training went.
type TrainStats struct {
	Steps       int
	Converged   bool
	Checkpoints []Checkpoint
	FinalRBar   float64
	Backoffs    int  // divergence rollbacks performed (learning-rate halvings)
	Diverged    bool // run hit MaxBackoffs and stopped at the last healthy parameters
	Interrupted bool // the context was cancelled; the model holds the parameters at the last boundary
}

// Train fits a TS-PPR model on the pre-sampled training set. numUsers and
// numItems size the latent tables; ex must be the extractor the set was
// built with. Deterministic in cfg.Seed.
func Train(set *sampling.Set, numUsers, numItems int, ex *features.Extractor, cfg Config) (*Model, *TrainStats, error) {
	return TrainContext(context.Background(), set, numUsers, numItems, ex, cfg)
}

// TrainContext is Train with cancellation: the context is polled at every
// convergence-check boundary, and on cancellation training stops cleanly —
// the returned model holds the parameters as of the last boundary and
// stats.Interrupted is set, so callers can flush a partial model instead
// of losing the run. A cancelled run returns a nil error: interruption is
// an outcome, not a failure.
func TrainContext(ctx context.Context, set *sampling.Set, numUsers, numItems int, ex *features.Extractor, cfg Config) (*Model, *TrainStats, error) {
	if cfg.TwoPhase && cfg.MapType == PerUserMap && cfg.Warm == nil {
		phase1 := cfg
		phase1.TwoPhase = false
		phase1.MapType = SharedMap
		phase1.MaxSteps = cfg.MaxSteps // resolved by withDefaults below if zero
		shared, stats1, err := TrainContext(ctx, set, numUsers, numItems, ex, phase1)
		if err != nil {
			return nil, nil, err
		}
		if stats1.Interrupted {
			// Phase 1 was cut short; forking per-user maps from a half-built
			// shared solution would bake the interruption into every user.
			// Return the shared model (a valid, loadable map kind) marked
			// interrupted instead.
			return shared, stats1, nil
		}
		// Fork per-user maps from the shared solution and continue.
		warm := &Model{K: shared.K, F: shared.F, MapType: PerUserMap, U: shared.U, V: shared.V, Extractor: ex}
		warm.A = make([]*linalg.Matrix, numUsers)
		for i := range warm.A {
			warm.A[i] = shared.A[0].Clone()
		}
		phase2 := cfg
		phase2.TwoPhase = false
		phase2.Warm = warm
		phase2.Seed = cfg.Seed + 0x2fa5e
		m, stats2, err := TrainContext(ctx, set, numUsers, numItems, ex, phase2)
		if err != nil {
			return nil, nil, err
		}
		stats2.Steps += stats1.Steps
		stats2.Checkpoints = append(stats1.Checkpoints, stats2.Checkpoints...)
		return m, stats2, nil
	}
	return train(ctx, set, numUsers, numItems, ex, cfg)
}

func train(ctx context.Context, set *sampling.Set, numUsers, numItems int, ex *features.Extractor, cfg Config) (*Model, *TrainStats, error) {
	cfg = cfg.withDefaults(set.NumPairs())
	if w := cfg.Warm; w != nil {
		if w.U.Rows != numUsers || w.V.Rows != numItems || w.F != ex.Dim() {
			return nil, nil, fmt.Errorf("core: warm-start shape mismatch (users %d/%d, items %d/%d, F %d/%d)",
				w.U.Rows, numUsers, w.V.Rows, numItems, w.F, ex.Dim())
		}
		if err := w.requireMaps(); err != nil {
			return nil, nil, err
		}
		cfg.K = w.K
		cfg.MapType = w.MapType
	}
	if err := cfg.validate(set.Dim()); err != nil {
		return nil, nil, err
	}
	if set.Dim() != ex.Dim() {
		return nil, nil, fmt.Errorf("core: set feature dim %d != extractor dim %d", set.Dim(), ex.Dim())
	}
	if numUsers <= 0 || numItems <= 0 {
		return nil, nil, fmt.Errorf("core: empty universe (users=%d items=%d)", numUsers, numItems)
	}

	m := initModel(numUsers, numItems, ex, cfg)
	// Every exit below hands m to scoring consumers; fold the effective
	// feature weights so it leaves train ready for the engine's
	// two-dot-product hot path.
	defer m.Precompute()
	stats := &TrainStats{}
	if set.NumPairs() == 0 {
		// Nothing to learn from; return the initialized model so callers
		// can still score (it degrades to noise, which tests rely on).
		return m, stats, nil
	}

	if ctx.Err() != nil {
		stats.Interrupted = true
		return m, stats, nil
	}

	rng := rngutil.New(cfg.Seed + 0x5eed)
	batch := set.SmallBatch(cfg.SmallBatchFrac)

	tr := trainer{m: m, cfg: cfg}
	tr.init()
	baseLR := cfg.LearningRate
	lastGood := snapshotParams(m)

	emit := func(cp Checkpoint) {
		// The stats copy drops the live model pointer: Checkpoints are
		// retained by callers long after training mutates (or frees) it.
		flat := cp
		flat.Model = nil
		stats.Checkpoints = append(stats.Checkpoints, flat)
		if cfg.OnCheckpoint != nil {
			cfg.OnCheckpoint(cp)
		}
	}

	// SGD makes r̃ noisy between checkpoints, so a single small Δr̃ is
	// often luck rather than convergence; require a few consecutive
	// under-tolerance checks before stopping.
	const convergeStreak = 3
	prevRBar := math.Inf(-1)
	streak := 0
	for step := 1; step <= cfg.MaxSteps; step++ {
		var pair sampling.Pair
		var ok bool
		if cfg.SampleUsersFirst {
			pair, ok = set.Sample(rng)
		} else {
			pair, ok = set.SamplePairUniform(rng)
		}
		if !ok {
			break
		}
		// Inverse decay of the step size: late-stage SGD noise otherwise
		// keeps the parameters jittering around the optimum, which
		// measurably hurts Top-1 ranking precision.
		tr.cfg.LearningRate = baseLR / (1 + 3*float64(step)/float64(cfg.MaxSteps))
		tr.step(pair)
		stats.Steps = step
		if step%cfg.CheckEvery == 0 || step == cfg.MaxSteps {
			// Cancellation is honored only at check boundaries: the model is
			// always in a consistent state here, and polling amortizes the
			// ctx read over CheckEvery SGD steps.
			if ctx.Err() != nil {
				stats.Interrupted = true
				stats.FinalRBar, _ = tr.evalBatch(batch)
				return m, stats, nil
			}
			rbar, loss := tr.evalBatch(batch)
			if !finite(rbar) || !finite(loss) || !paramsFinite(m) {
				// The run diverged. Roll back to the last healthy
				// checkpoint and halve the learning rate rather than
				// letting NaN/Inf spread through the parameter tables.
				stats.Backoffs++
				restoreParams(m, lastGood)
				baseLR /= 2
				emit(Checkpoint{Step: step, RBar: rbar, Loss: loss, LR: baseLR, Diverged: true, Model: m})
				if stats.Backoffs >= cfg.MaxBackoffs {
					stats.Diverged = true
					stats.FinalRBar, _ = tr.evalBatch(batch)
					return m, stats, nil
				}
				prevRBar = math.Inf(-1)
				streak = 0
				continue
			}
			copyParams(lastGood, m)
			emit(Checkpoint{Step: step, RBar: rbar, Loss: loss, LR: baseLR, Model: m})
			if math.Abs(rbar-prevRBar) <= cfg.ConvergenceTol {
				streak++
				if streak >= convergeStreak {
					stats.Converged = true
					stats.FinalRBar = rbar
					return m, stats, nil
				}
			} else {
				streak = 0
			}
			prevRBar = rbar
		}
	}
	stats.FinalRBar = prevRBar
	return m, stats, nil
}

// paramSnapshot is a deep copy of a model's mutable parameters, used to
// roll back a diverged run to its last healthy checkpoint.
type paramSnapshot struct {
	u, v []float64
	a    [][]float64
}

func snapshotParams(m *Model) *paramSnapshot {
	s := &paramSnapshot{
		u: append([]float64(nil), m.U.Data...),
		v: append([]float64(nil), m.V.Data...),
		a: make([][]float64, len(m.A)),
	}
	for i, a := range m.A {
		s.a[i] = append([]float64(nil), a.Data...)
	}
	return s
}

// copyParams refreshes an existing snapshot from the model in place.
func copyParams(dst *paramSnapshot, m *Model) {
	copy(dst.u, m.U.Data)
	copy(dst.v, m.V.Data)
	for i, a := range m.A {
		copy(dst.a[i], a.Data)
	}
}

// restoreParams writes a snapshot back into the model's tables.
func restoreParams(m *Model, s *paramSnapshot) {
	copy(m.U.Data, s.u)
	copy(m.V.Data, s.v)
	for i, a := range m.A {
		copy(a.Data, s.a[i])
	}
}

func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

// paramsFinite scans every parameter table for NaN/Inf. It runs only at
// checkpoint boundaries, so the O(params) cost is amortized over
// CheckEvery SGD steps.
func paramsFinite(m *Model) bool {
	if !finiteSlice(m.U.Data) || !finiteSlice(m.V.Data) {
		return false
	}
	for _, a := range m.A {
		if !finiteSlice(a.Data) {
			return false
		}
	}
	return true
}

// initModel builds the parameter tables, Gaussian-initialized per
// Algorithm 1 line 1 (A ~ N(0, λI), U,V ~ N(0, γI); we read λ and γ as the
// noise scale, i.e. the standard deviation — reading them as variances
// leaves ≈0.22-magnitude noise in uᵀv for items the sampler rarely
// touches, which measurably hurts Top-1 precision) or copied from the
// warm-start model.
func initModel(numUsers, numItems int, ex *features.Extractor, cfg Config) *Model {
	if w := cfg.Warm; w != nil {
		m := &Model{K: w.K, F: w.F, MapType: w.MapType, U: w.U.Clone(), V: w.V.Clone(), Extractor: ex}
		m.A = make([]*linalg.Matrix, len(w.A))
		for i, a := range w.A {
			m.A[i] = a.Clone()
		}
		return m
	}
	rng := rngutil.New(cfg.Seed)
	m := &Model{K: cfg.K, F: ex.Dim(), MapType: cfg.MapType, Extractor: ex}
	m.U = linalg.NewMatrix(numUsers, cfg.K)
	m.U.FillGaussian(rng, cfg.Gamma)
	m.V = linalg.NewMatrix(numItems, cfg.K)
	m.V.FillGaussian(rng, cfg.Gamma)
	switch cfg.MapType {
	case PerUserMap:
		m.A = make([]*linalg.Matrix, numUsers)
		for i := range m.A {
			m.A[i] = linalg.NewMatrix(cfg.K, m.F)
			m.A[i].FillGaussian(rng, cfg.Lambda)
		}
	case SharedMap:
		m.A = []*linalg.Matrix{linalg.NewMatrix(cfg.K, m.F)}
		m.A[0].FillGaussian(rng, cfg.Lambda)
	case IdentityMap:
		m.A = nil
	}
	return m
}

// trainer holds per-run scratch so the hot SGD loop is allocation-free.
type trainer struct {
	m   *Model
	cfg Config

	df   linalg.Vector // F: f_i − f_j
	yi   linalg.Vector // K: A_u f_i (or margin work space)
	diff linalg.Vector // K: v_i − v_j + A_u(f_i − f_j)
	uOld linalg.Vector // K: copy of u before the step
}

func (t *trainer) init() {
	t.df = linalg.NewVector(t.m.F)
	t.yi = linalg.NewVector(t.m.K)
	t.diff = linalg.NewVector(t.m.K)
	t.uOld = linalg.NewVector(t.m.K)
}

// margin computes r_uv_it − r_uv_jt for a pair, filling t.df and t.diff as
// side effects.
func (t *trainer) margin(p sampling.Pair) float64 {
	m := t.m
	uvec := m.U.Row(p.User)
	vi := m.V.Row(int(p.Pos))
	vj := m.V.Row(int(p.Neg))
	linalg.Sub(t.df, p.PosFeat, p.NegFeat)
	if a := m.mapFor(p.User); a != nil {
		a.MulVec(t.yi, t.df)
	} else {
		linalg.Copy(t.yi, t.df) // identity map (K == F)
	}
	for k := 0; k < m.K; k++ {
		t.diff[k] = vi[k] - vj[k] + t.yi[k]
	}
	return linalg.Dot(uvec, t.diff)
}

// step performs one SGD update (Algorithm 1 lines 6—10). All gradients use
// the pre-update parameter values, matching the pseudo-code's simultaneous
// assignment.
func (t *trainer) step(p sampling.Pair) {
	m, cfg := t.m, t.cfg
	g := cfg.LearningRate * (1 - mathx.Sigmoid(t.margin(p)))

	uvec := m.U.Row(p.User)
	linalg.Copy(t.uOld, uvec)

	// u ← (1−αγ)u + αg·(v_i − v_j + A_u(f_i − f_j))
	linalg.Scale(1-cfg.LearningRate*cfg.Gamma, uvec)
	linalg.Axpy(g, t.diff, uvec)

	// v_i ← (1−αγ)v_i + αg·u ; v_j ← (1−αγ)v_j − αg·u (old u).
	vi := m.V.Row(int(p.Pos))
	linalg.Scale(1-cfg.LearningRate*cfg.Gamma, vi)
	linalg.Axpy(g, t.uOld, vi)
	vj := m.V.Row(int(p.Neg))
	linalg.Scale(1-cfg.LearningRate*cfg.Gamma, vj)
	linalg.Axpy(-g, t.uOld, vj)

	// A_u ← (1−αλ)A_u + αg·u ⊗ (f_i − f_j) (old u).
	if a := m.mapFor(p.User); a != nil {
		a.ScaleInPlace(1 - cfg.LearningRate*cfg.Lambda)
		a.AddOuter(g, t.uOld, t.df)
	}
}

// evalBatch computes r̃ (mean margin) and the mean pairwise loss over the
// convergence batch.
func (t *trainer) evalBatch(batch []sampling.Pair) (rbar, loss float64) {
	if len(batch) == 0 {
		return 0, 0
	}
	for _, p := range batch {
		mg := t.margin(p)
		rbar += mg
		loss += -mathx.LogSigmoid(mg)
	}
	n := float64(len(batch))
	return rbar / n, loss / n
}

// Objective evaluates the full regularized objective J (paper Eq. 7) over
// the given pairs. Exposed for tests that assert SGD decreases J.
func Objective(m *Model, pairs []sampling.Pair, lambda, gamma float64) float64 {
	t := trainer{m: m, cfg: Config{}}
	t.init()
	j := 0.0
	for _, p := range pairs {
		j += -mathx.LogSigmoid(t.margin(p))
	}
	for _, a := range m.A {
		j += lambda / 2 * a.FrobeniusNormSq()
	}
	j += gamma / 2 * (frobSq(m.U) + frobSq(m.V))
	return j
}

func frobSq(m *linalg.Matrix) float64 { return m.FrobeniusNormSq() }
