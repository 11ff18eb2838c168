// Package core implements TS-PPR, the paper's contribution: a
// Time-Sensitive Personalized Pairwise Ranking model for recommendation
// for repeat consumption (RRC).
//
// The preference of user u for item v at time t is (paper Eq. 5)
//
//	r_uvt = uᵀ v + uᵀ A_u f_uvt
//
// where u, v ∈ R^K are static latent features, f_uvt ∈ R^F is the
// observable time-sensitive behavioural feature vector, and A_u ∈ R^{K×F}
// is a per-user linear map from observable space into latent preference
// space. The pairwise ranking probability p(v_i >_ut v_j) is the sigmoid
// of the preference difference (Eq. 6); parameters are fit by SGD on
// pre-sampled quadruples minimizing the regularized negative log-likelihood
// (Eq. 7, Algorithm 1).
package core

import (
	"fmt"
	"math"

	"tsppr/internal/features"
	"tsppr/internal/linalg"
)

// MapKind selects how the observable→latent map A is parameterized. The
// paper's model is per-user maps; the alternatives exist for the §4.2.1
// discussion (identity when K=F) and the shared-map ablation.
type MapKind int

const (
	// PerUserMap is the paper's A_u: one K×F matrix per user.
	PerUserMap MapKind = iota
	// SharedMap uses a single global K×F matrix for all users.
	SharedMap
	// IdentityMap fixes A_u = I (requires K == F); the time-sensitive term
	// becomes uᵀ f_uvt directly (paper §4.2.1 case 2).
	IdentityMap
)

func (k MapKind) String() string {
	switch k {
	case SharedMap:
		return "shared"
	case IdentityMap:
		return "identity"
	default:
		return "per-user"
	}
}

// Model holds the learned TS-PPR parameters together with the feature
// extractor they were trained against. A Model is immutable after training
// and safe for concurrent scoring through the engine package, which owns
// the serving hot path.
type Model struct {
	K, F    int
	MapType MapKind

	U *linalg.Matrix // numUsers × K
	V *linalg.Matrix // numItems × K
	A []*linalg.Matrix
	// A layout: PerUserMap → len numUsers; SharedMap → len 1;
	// IdentityMap → nil. Also nil for a PerUserMap model from the serving
	// load (ReadServingModel), which keeps only the folded effW.

	Extractor *features.Extractor

	// effW caches the per-user effective feature weights w_u = A_uᵀu
	// (numUsers × F), folded once by Precompute so per-item scoring is two
	// dot products instead of a K×F matrix-vector product per call. Nil
	// until Precompute runs; nil (not serialized) in model files.
	effW *linalg.Matrix
}

// Validate checks that the model is fit to serve: consistent shapes and
// finite parameters throughout. A file can parse (and even checksum)
// cleanly yet hold NaN/Inf parameters if a diverged training run saved
// it, so serving layers validate before swapping a model in.
func (m *Model) Validate() error {
	if m.U == nil || m.V == nil || m.Extractor == nil {
		return fmt.Errorf("core: model missing tables")
	}
	if m.U.Cols != m.K || m.V.Cols != m.K {
		return fmt.Errorf("core: latent table width %d/%d != K %d", m.U.Cols, m.V.Cols, m.K)
	}
	if m.Extractor.Dim() != m.F {
		return fmt.Errorf("core: extractor dim %d != F %d", m.Extractor.Dim(), m.F)
	}
	if !finiteSlice(m.U.Data) {
		return fmt.Errorf("core: non-finite value in U")
	}
	if !finiteSlice(m.V.Data) {
		return fmt.Errorf("core: non-finite value in V")
	}
	for i, a := range m.A {
		if !finiteSlice(a.Data) {
			return fmt.Errorf("core: non-finite value in A[%d]", i)
		}
	}
	if err := m.requireMaps(); err != nil && (m.effW == nil || m.effW.Rows != m.U.Rows || m.effW.Cols != m.F) {
		return err // neither the maps nor their folded weights
	}
	// A model that validates is a model about to serve: fold the
	// effective feature weights now so the first request after a load or
	// a SIGHUP hot-swap is already on the two-dot-product path.
	m.Precompute()
	return nil
}

func finiteSlice(xs []float64) bool {
	for _, x := range xs {
		// NaN and ±Inf both fail this self-comparison / range test.
		if x != x || x > math.MaxFloat64 || x < -math.MaxFloat64 {
			return false
		}
	}
	return true
}

// NumUsers returns the number of users the model was trained over.
func (m *Model) NumUsers() int { return m.U.Rows }

// NumItems returns the number of items the model was trained over.
func (m *Model) NumItems() int { return m.V.Rows }

// ResidentBytes sums the model's tables as they sit in memory: U, V, effW,
// every A_u and the extractor's static tables, at 8 bytes an element. The
// serving load's saving shows here by construction, before any RSS
// measurement.
func (m *Model) ResidentBytes() int64 {
	quality, reratio := m.Extractor.Tables()
	n := len(m.U.Data) + len(m.V.Data) + len(quality) + len(reratio)
	for _, a := range m.A {
		n += len(a.Data)
	}
	if m.effW != nil {
		n += len(m.effW.Data)
	}
	return 8 * int64(n)
}

// Precompute folds the per-user effective feature weights w_u = A_uᵀu
// into a dense numUsers × F table, so per-item scoring needs two dot
// products (uᵀv + w_uᵀf) instead of re-deriving uᵀA_u per call. It runs
// at the end of Train, after ReadModel, inside Validate (the load/hot-swap
// gate) and in engine.New; calling it again rebuilds the table from the
// current U and A. Under IdentityMap no table is built: w_u is u itself.
// A serving-loaded model has no A to fold from: the load wrote its effW,
// and Precompute leaves it alone.
//
// U, V and effW in float64 are the whole serving form of the model, and
// nothing but Precompute and the serving load writes effW.
//
// Precompute is not safe to call concurrently with readers; every
// production path runs it before the model is published for serving.
func (m *Model) Precompute() {
	if m.requireMaps() != nil {
		return
	}
	if m.MapType == IdentityMap {
		m.effW = nil
		return
	}
	eff := linalg.NewMatrix(m.U.Rows, m.F)
	for u := 0; u < m.U.Rows; u++ {
		m.foldUser(eff.Row(u), u)
	}
	m.effW = eff
}

// requireMaps reports a PerUserMap model that no longer holds its A_u (the
// serving load folds them away): it can score, but not train or serialize.
func (m *Model) requireMaps() error {
	if m.MapType == PerUserMap && len(m.A) != m.U.Rows {
		return fmt.Errorf("core: model holds %d of its %d per-user maps (loaded for serving?); use LoadFile", len(m.A), m.U.Rows)
	}
	return nil
}

// foldUser writes w_u = A_uᵀu into dst (length F).
func (m *Model) foldUser(dst linalg.Vector, u int) {
	foldInto(dst, m.U.Row(u), m.mapFor(u).Data)
}

// foldInto writes Aᵀu into dst (length F) for a row-major K×F map a. The
// summation order (k innermost, ascending) is part of the model's
// observable behaviour: scores are reproducible bit for bit across the
// full load and the serving load only because both fold here.
func foldInto(dst, uvec linalg.Vector, a []float64) {
	for f := range dst {
		s := 0.0
		for k, uk := range uvec {
			s += uk * a[k*len(dst)+f]
		}
		dst[f] = s
	}
}

// EffectiveFeatureWeights returns w_u = A_uᵀu, the model's personalized
// linear weighting of the behavioural features for user u: entry f is the
// marginal effect of feature f on user u's preference. Under IdentityMap
// it is u itself (K = F). The returned vector shares the model's storage
// and must be treated as read-only; it is served from the table built by
// Precompute (built on first use if needed), so steady-state calls
// allocate nothing.
//
// This is both the scoring hot path's dynamic-term operand and the
// model's main interpretability hook: comparing w_u across users shows
// *why* each user repeats (popularity-driven vs reconsumption-driven vs
// recency-driven), which is the behavioural heterogeneity the per-user
// maps exist to capture.
func (m *Model) EffectiveFeatureWeights(u int) linalg.Vector {
	if u < 0 || u >= m.U.Rows {
		panic(fmt.Sprintf("core: EffectiveFeatureWeights user %d out of range [0,%d)", u, m.U.Rows))
	}
	if m.MapType == IdentityMap {
		return m.U.Row(u)
	}
	if m.effW == nil {
		m.Precompute()
	}
	return m.effW.Row(u)
}

// mapFor returns the observable→latent map of user u, or nil under
// IdentityMap.
func (m *Model) mapFor(u int) *linalg.Matrix {
	switch m.MapType {
	case PerUserMap:
		return m.A[u]
	case SharedMap:
		return m.A[0]
	default:
		return nil
	}
}

// Scoring lives in the engine package: internal/engine owns candidate
// enumeration, pooled scratch, and Top-N selection over this model's
// tables. The model exposes exactly what the engine consumes — U/V rows,
// the extractor, and the precomputed EffectiveFeatureWeights.
