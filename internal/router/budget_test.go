package router

import "testing"

func TestRetryBudgetArithmetic(t *testing.T) {
	b := newRetryBudget(0.5, 2)

	// No credit yet: nothing to spend.
	if b.spend() {
		t.Fatal("spend succeeded on an empty budget")
	}

	// Two arrivals bank 1.0 token — exactly one retry.
	b.arrive()
	b.arrive()
	if !b.spend() {
		t.Fatal("spend failed with a full token banked")
	}
	if b.spend() {
		t.Fatal("second spend succeeded after the balance was drained")
	}

	// The bank is capped at burst: 100 arrivals ≠ 50 retries.
	for i := 0; i < 100; i++ {
		b.arrive()
	}
	if got := b.tokens; got != 2 {
		t.Fatalf("banked %v tokens, burst cap is 2", got)
	}
}

func TestRetryBudgetAmplificationBound(t *testing.T) {
	// The closed-form bound the router's docs promise: R requests from
	// any number of clients can fund at most R*ratio + burst retries.
	const requests, ratio, burst = 1000, 0.1, 10.0
	b := newRetryBudget(ratio, burst)
	retries := 0
	for i := 0; i < requests; i++ {
		b.arrive()
		for b.spend() { // adversarial: drain everything available
			retries++
		}
	}
	if bound := int(requests*ratio + burst); retries > bound {
		t.Fatalf("%d retries funded by %d requests, bound is %d", retries, requests, bound)
	}
}
