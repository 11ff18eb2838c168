package router

import (
	"math/rand"
	"testing"
)

// The three ways a probe ends, as the property test draws them.
const (
	probeAnswered = iota
	probeMissed
	probeRefused
)

// TestRetentionRuleProperty drives nextView with seeded random
// sequences of answered, missed and refused probes and checks it
// against the rule stated directly: a node is a write target iff the
// last answer said primary, nothing was refused since, and fewer than
// ProbeFails probes have missed since.
func TestRetentionRuleProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 2000; trial++ {
		fails := 1 + rng.Intn(4)
		var v nodeView
		var history []int
		target, misses := false, 0
		for step := 0; step < 40; step++ {
			out := rng.Intn(3)
			history = append(history, out)
			probed := nodeView{LastErr: "probe failed"}
			switch out {
			case probeAnswered:
				probed = nodeView{Reachable: true, Ready: true, Role: roleFollower}
				if rng.Intn(3) > 0 {
					probed.Role = rolePrimary
				}
				target, misses = probed.Role == rolePrimary, 0
			case probeMissed:
				misses++
				target = target && misses < fails
			case probeRefused:
				target = false
			}
			v = nextView(v, probed, out == probeRefused, fails)
			if got := writeTargetIn([]*node{{v: v}}) != nil; got != target {
				t.Fatalf("trial %d, ProbeFails=%d, outcomes %v: write target %v, want %v (view %+v)",
					trial, fails, history, got, target, v)
			}
		}
	}
}
