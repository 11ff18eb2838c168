// Package engine owns the TS-PPR scoring hot path: candidate enumeration,
// per-item preference evaluation, and Top-N selection, shared by training
// diagnostics, offline evaluation, and every serving endpoint. Before this
// package existed the preference function r_uvt = uᵀv + uᵀA_u f_uvt (paper
// Eq. 5) was evaluated by four separate code paths with four separate
// scratch-allocation disciplines; now there is exactly one.
//
// Two structural optimizations make the engine both singular and fast:
//
//   - The per-user factor uᵀA_u is folded into an effective feature-weight
//     vector w_u once per model load/swap (core.Model.Precompute), so
//     scoring an item costs two dot products — uᵀv (K mults) + w_uᵀf_uvt
//     (F mults) — instead of a K×F matrix-vector product per call.
//   - All per-request scratch (feature vector, candidate buffer, Top-N
//     selector) lives in a sync.Pool of reusable blocks, so steady-state
//     Recommend performs zero heap allocations and the engine is safe for
//     concurrent use from batch fan-out without per-goroutine setup.
//
// Candidates are enumerated through seq.Window.CandidatesUnordered — the
// allocation-free walk of the window's last-seen index. Its unspecified
// order is sound here because the Top-N selector imposes a strict total
// order on (score, item): the returned ranking is identical to ranking
// the deterministically-ordered candidate list.
package engine

import (
	"fmt"
	"sync"
	"time"

	"tsppr/internal/core"
	"tsppr/internal/linalg"
	"tsppr/internal/obs"
	"tsppr/internal/rec"
	"tsppr/internal/seq"
	"tsppr/internal/topk"
)

// Engine evaluates TS-PPR preferences and produces scored Top-N
// recommendations over a shared read-only model. Unlike the per-goroutine
// scorers it replaced, one Engine serves any number of goroutines: scratch
// is pooled, the model is never written.
type Engine struct {
	m    *core.Model
	pool sync.Pool // *scratch

	// Optional instrumentation, set by Instrument. Nil handles record
	// nothing; the only hot-path cost when instrumented is two
	// time.Now() calls and two atomic histogram observes.
	recSec *obs.Histogram // Recommend wall latency
	cands  *obs.Histogram // candidate-set size per Recommend
}

// maxPooledCands bounds the candidate-buffer capacity a scratch block may
// carry back into the pool. One pathological request (a huge window with a
// tiny Ω) would otherwise pin its oversized buffer in the pool for the
// life of the engine, charging every future caller for one bad input.
// Variable, not const, so the regression test can lower it.
var maxPooledCands = 1 << 15

// scratch is one goroutine's worth of reusable scoring state.
type scratch struct {
	f     linalg.Vector // F: behavioural feature vector f_uvt
	cands []seq.Item
	sel   *topk.Selector
}

// New returns an engine over m, folding the per-user effective feature
// weights if the model has not precomputed them yet. It panics on a nil
// model: an engine without a model is a programming error, not a runtime
// condition.
func New(m *core.Model) *Engine {
	if m == nil {
		panic("engine: New with nil model")
	}
	if m.Extractor == nil {
		panic("engine: New with model missing its feature extractor")
	}
	m.Precompute()
	e := &Engine{m: m}
	e.pool.New = func() any {
		return &scratch{f: linalg.NewVector(m.F)}
	}
	return e
}

// Model returns the engine's underlying model.
func (e *Engine) Model() *core.Model { return e.m }

// Instrument registers the engine's hot-path metrics on reg and starts
// recording into them. A nil registry leaves the engine uninstrumented
// (recording stays a no-op). Metric names are stable across engine
// hot-swaps: a replacement engine instrumented on the same registry
// accumulates into the same series.
func (e *Engine) Instrument(reg *obs.Registry) {
	if reg == nil {
		return
	}
	reg.Help("rrc_engine_recommend_seconds", "Engine Recommend wall latency.")
	e.recSec = reg.Histogram("rrc_engine_recommend_seconds", obs.LatencyBuckets)
	reg.Help("rrc_engine_candidates", "Candidate-set size per Recommend call.")
	e.cands = reg.Histogram("rrc_engine_candidates", obs.SizeBuckets)
}

// putScratch returns a scratch block to the pool unless its candidate
// buffer has grown past maxPooledCands, in which case the block is
// dropped for the GC so one oversized request cannot pin its buffer in
// the pool forever. Reports whether the block was pooled.
func (e *Engine) putScratch(s *scratch) bool {
	if cap(s.cands) > maxPooledCands {
		return false
	}
	e.pool.Put(s)
	return true
}

// Score returns r_uvt for item v against the user's current window. It is
// safe for concurrent use. For ranking whole candidate sets use Recommend,
// which amortizes the scratch checkout across all items.
func (e *Engine) Score(u int, v seq.Item, w *seq.Window) float64 {
	if u < 0 || u >= e.m.U.Rows {
		panic(fmt.Sprintf("engine: Score user %d out of range [0,%d)", u, e.m.U.Rows))
	}
	s := e.pool.Get().(*scratch)
	r := e.scoreOne(s.f, e.m.U.Row(u), e.m.EffectiveFeatureWeights(u), v, w)
	e.putScratch(s)
	return r
}

// scoreOne evaluates one preference with caller-held operands: uvec is the
// user's latent row, wu the precomputed effective feature weights, f the
// F-length scratch the feature vector is extracted into.
func (e *Engine) scoreOne(f linalg.Vector, uvec, wu linalg.Vector, v seq.Item, w *seq.Window) float64 {
	static := 0.0
	if v >= 0 && int(v) < e.m.V.Rows {
		static = linalg.Dot(uvec, e.m.V.Row(int(v)))
	}
	e.m.Extractor.Extract(f, v, w)
	return static + linalg.Dot(wu, f)
}

// Recommend appends the Top-N RRC recommendations to dst as (item, score)
// pairs, best first: the highest-scoring distinct window items not
// consumed in the last Ω steps. Steady-state calls allocate nothing
// beyond what dst needs to grow; passing dst[:0] of a reused slice makes
// the whole call allocation-free. It implements rec.Recommender and is
// safe for concurrent use.
func (e *Engine) Recommend(ctx *rec.Context, n int, dst []rec.Scored) []rec.Scored {
	if n <= 0 {
		return dst
	}
	m := e.m
	u := ctx.User
	if u < 0 || u >= m.U.Rows {
		panic(fmt.Sprintf("engine: Recommend user %d out of range [0,%d)", u, m.U.Rows))
	}
	// Instrumentation guards are uniformly explicit nil checks. The obs
	// handles would no-op on a nil receiver anyway, but relying on that
	// for some handles and nil-checking others (as this function once
	// did) hides which style is load-bearing; the explicit check also
	// skips the float conversion and call entirely when uninstrumented.
	var start time.Time
	if e.recSec != nil {
		start = time.Now()
	}
	s := e.pool.Get().(*scratch)
	s.cands = ctx.Window.CandidatesUnordered(ctx.Omega, s.cands[:0])
	if e.cands != nil {
		e.cands.Observe(float64(len(s.cands)))
	}
	if len(s.cands) == 0 {
		e.putScratch(s)
		if e.recSec != nil {
			e.recSec.ObserveDuration(time.Since(start))
		}
		return dst
	}
	if s.sel == nil || s.sel.K() != n {
		s.sel = topk.New(n)
	} else {
		s.sel.Reset()
	}
	uvec := m.U.Row(u)
	wu := m.EffectiveFeatureWeights(u)
	for _, v := range s.cands {
		s.sel.Push(v, e.scoreOne(s.f, uvec, wu, v, ctx.Window))
	}
	dst = s.sel.AppendSorted(dst)
	e.putScratch(s)
	if e.recSec != nil {
		e.recSec.ObserveDuration(time.Since(start))
	}
	return dst
}

// Factory returns a rec.Factory over the shared engine. Unlike baseline
// factories it hands out the engine itself rather than minting per-user
// instances: the engine is safe for concurrent use, and per-user copies
// would only fragment the scratch pool.
func (e *Engine) Factory() rec.Factory {
	return rec.Factory{
		Name: "TS-PPR",
		New:  func(uint64) rec.Recommender { return e },
	}
}
