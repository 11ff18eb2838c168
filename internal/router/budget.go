// Router-wide retry budget: the gRPC-style token bucket that makes
// retry storms structurally impossible. Every incoming request adds
// `ratio` tokens to one bucket (capped at `burst`); every retry spends
// one whole token. Under a fully down backend R incoming requests, from
// however many clients, therefore drive at most R×(1+ratio)+burst
// upstream attempts: amplification is bounded by configuration, not by
// luck, and the router keeps no per-client state.
package router

import "sync"

type retryBudget struct {
	ratio float64
	burst float64

	mu     sync.Mutex
	tokens float64
}

func newRetryBudget(ratio, burst float64) *retryBudget {
	return &retryBudget{ratio: ratio, burst: burst}
}

// arrive credits the bucket for one incoming request.
func (b *retryBudget) arrive() {
	b.mu.Lock()
	b.tokens = min(b.tokens+b.ratio, b.burst)
	b.mu.Unlock()
}

// spend tries to consume one retry token; false means the budget is
// exhausted and the caller must give up rather than re-attempt.
func (b *retryBudget) spend() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.tokens < 1 {
		return false
	}
	b.tokens--
	return true
}
