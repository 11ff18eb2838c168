package baselines

import (
	"math"

	"tsppr/internal/rec"
	"tsppr/internal/seq"
)

// Fallback is a recency-plus-window-frequency ranker. It needs no trained
// tables — every signal comes from the request's own window. No serving
// layer uses it: rrc-server answers a failed TS-PPR scoring with an error,
// not with this ranking.
//
// The score blends the two signals repeat consumption is most skewed
// toward: recency e^{−Δt} dominates among recently seen items, and
// within-window frequency breaks ties in the long tail where the recency
// term has decayed to noise, as in the paper's Recency and Pop baselines
// (Tables 5–6).
type Fallback struct {
	cands []seq.Item
}

// popWeight keeps the frequency term below the recency term for gaps up
// to ≈ −ln(popWeight) ≈ 7 steps, past which recency is numerically noise.
const popWeight = 1e-3

// Score returns the fallback preference of v against the window.
func (f *Fallback) Score(v seq.Item, w *seq.Window) float64 {
	s := 0.0
	if gap, ok := w.Gap(v); ok {
		s = math.Exp(-float64(gap))
	}
	if n := w.Len(); n > 0 {
		s += popWeight * float64(w.Count(v)) / float64(n)
	}
	return s
}

// Recommend implements rec.Recommender.
func (f *Fallback) Recommend(ctx *rec.Context, n int, dst []rec.Scored) []rec.Scored {
	f.cands = ctx.Candidates(f.cands[:0])
	return rankTopN(f.cands, func(v seq.Item) float64 {
		return f.Score(v, ctx.Window)
	}, n, dst)
}

// FallbackFactory returns the recency-plus-frequency recommender factory.
func FallbackFactory() rec.Factory {
	return rec.Factory{Name: "Fallback", New: func(uint64) rec.Recommender {
		return &Fallback{}
	}}
}
